package xmatch_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// unreachedAllowed lists the exported declarations no non-test file names
// that stay anyway, keyed "package.Name" (a method without its receiver).
var unreachedAllowed = map[string]string{
	"store.SetHooks":         "the fault-injection seam the chaos and store tests install hooks through",
	"store.SaveSet":          "the writer of the mapping-set format LoadSet serves from catalog entries",
	"twig.NaiveMatchByPaths": "the naive matcher the index and twig differentials use as oracle (item 8 owns it)",
	"index.ValuePostings":    "value postings read by tests of index, delta and store across packages",
	"schema.ByPath":          "element lookup by path used across packages by tests",
	"oracle.Wire":            "the differential tests' answer key in wire form; only tests import package oracle",
}

// interfaceMethod reports whether a method name satisfies a standard
// interface (sort, fmt, errors, io, net/http, encoding, context): callers
// reach it through the interface without naming it.
func interfaceMethod(name string) bool {
	switch name {
	case "Less", "Len", "Swap", "String", "Error", "Unwrap", "ReadByte", "ServeHTTP", "Deadline":
		return true
	}
	return strings.HasPrefix(name, "Marshal") || strings.HasPrefix(name, "Unmarshal")
}

// nonTestFiles parses every non-test Go file under root, skipping hidden
// directories (build caches), testdata and the directory skip.
func nonTestFiles(t *testing.T, fset *token.FileSet, root, skip string) []*ast.File {
	t.Helper()
	var files []*ast.File
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && (path == skip || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		files = append(files, f)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestExportedDeclsAreReached keeps the library to what a binary, an
// example or the benchmark module reaches. It walks the root module's
// non-test sources with go/ast and fails on an exported top-level func,
// method, type, var or const whose name no non-test identifier of either
// module (the root or bench/) uses outside a declaration. Must*
// constructors, methods that satisfy a standard interface and the entries
// of unreachedAllowed pass by rule.
//
// The census matches names, not objects: a test-only method that shares
// its name with a used one (Index.Paths beside Schema.Paths, say) slips
// through, and so does a declaration named only by another unreached one.
func TestExportedDeclsAreReached(t *testing.T) {
	fset := token.NewFileSet()
	root := nonTestFiles(t, fset, ".", "bench")
	bench := nonTestFiles(t, fset, "bench", "")

	// A name a declaration introduces is not a use of it: top-level and
	// local declarations, struct fields, parameters, results and
	// interface methods.
	declared := map[*ast.Ident]bool{}
	uses := map[string]int{}
	for _, f := range append(root, bench...) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declared[n.Name] = true
			case *ast.TypeSpec:
				declared[n.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					declared[id] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					declared[id] = true
				}
			case *ast.Ident:
				if !declared[n] {
					uses[n.Name]++
				}
			}
			return true
		})
	}

	allowedSeen := map[string]bool{}
	check := func(pkg, recv string, id *ast.Ident) {
		key, name := pkg+"."+id.Name, id.Name
		switch {
		case !id.IsExported() || uses[name] > 0:
		case recv == "" && strings.HasPrefix(name, "Must"):
		case recv != "" && interfaceMethod(name):
		case unreachedAllowed[key] != "":
			allowedSeen[key] = true
		default:
			if recv != "" {
				name = recv + "." + name
			}
			t.Errorf("%s: %s.%s is exported, but no non-test file names it; delete it, move it into the tests that use it, or allow it with a reason",
				fset.Position(id.Pos()), pkg, name)
		}
	}
	for _, f := range root {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				check(f.Name.Name, receiverName(decl), decl.Name)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						check(f.Name.Name, "", spec.Name)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							check(f.Name.Name, "", id)
						}
					}
				}
			}
		}
	}
	for key := range unreachedAllowed {
		if !allowedSeen[key] {
			t.Errorf("unreachedAllowed lists %s, which is gone or now reached: drop the entry", key)
		}
	}
}

// receiverName is the base type name of a method's receiver, or "" for a
// plain function.
func receiverName(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return ""
	}
	typ := fn.Recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr:
			typ = x.X
		case *ast.IndexListExpr:
			typ = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
