package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"xmatch/internal/engine"
	"xmatch/internal/server"
	"xmatch/internal/store"
)

// buildOnce compiles the xmatch binary into a temp dir shared by the
// subcommand smoke tests.
func buildBinary(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping binary smoke tests in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "xmatch")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	err := cmd.Run()
	return buf.String(), err
}

// indexStats matches the stats block `xmatch index` prints for one
// document: the source line, then one posting per document node.
var indexStats = regexp.MustCompile(`(?m)^index .*?(\S+ \(doc=\d+ seed=\d+\)): (\d+) nodes
postings: (\d+) over \d+ distinct paths, \d+ value keys
resident: \d+B, built in \S+
postings bytes: \d+B compressed vs \d+B flat \(ratio [\d.]+\)
$`)

// checkIndexStats asserts that out is exactly one stats block for source,
// with as many postings as the document has nodes.
func checkIndexStats(t *testing.T, out, source string) {
	t.Helper()
	m := indexStats.FindStringSubmatch(out)
	if m == nil || !strings.HasSuffix(m[1], source) || m[2] != m[3] || len(m[0]) != len(out) {
		t.Errorf("index output is not the stats block of %s:\n%s", source, out)
	}
}

func TestCLISmoke(t *testing.T) {
	bin := buildBinary(t)

	t.Run("stats", func(t *testing.T) {
		out, err := run(t, bin, "stats", "-d", "D1", "-m", "20")
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		for _, want := range []string{"dataset D1", "capacity=30", "block tree"} {
			if !strings.Contains(out, want) {
				t.Errorf("stats output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("query", func(t *testing.T) {
		out, err := run(t, bin, "query", "-d", "D7", "-m", "20", "-doc", "1200",
			"-q", "Order/DeliverTo/Contact/EMail", "-k", "5")
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.Contains(out, "relevant mapping(s)") {
			t.Errorf("query output unexpected:\n%s", out)
		}
	})

	t.Run("query-parallel", func(t *testing.T) {
		// A parallel and a sequential engine must print the same answers.
		par, err := run(t, bin, "query", "-d", "D7", "-m", "20", "-doc", "1200",
			"-workers", "8", "-q", "Order/DeliverTo/Contact/EMail")
		if err != nil {
			t.Fatalf("%v\n%s", err, par)
		}
		seq, err := run(t, bin, "query", "-d", "D7", "-m", "20", "-doc", "1200",
			"-workers", "1", "-q", "Order/DeliverTo/Contact/EMail")
		if err != nil {
			t.Fatalf("%v\n%s", err, seq)
		}
		if par != seq {
			t.Errorf("parallel and sequential output differ:\n--- parallel\n%s--- sequential\n%s", par, seq)
		}
	})

	t.Run("query-batch", func(t *testing.T) {
		out, err := run(t, bin, "query", "-d", "D7", "-m", "20", "-doc", "1200",
			"-q", "Order/DeliverTo/Contact/EMail; Order/POLine/Quantity")
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if n := strings.Count(out, "relevant mapping(s)"); n != 2 {
			t.Errorf("batch answered %d queries, want 2:\n%s", n, out)
		}
	})

	t.Run("index", func(t *testing.T) {
		out, err := run(t, bin, "index", "-d", "D7", "-doc", "1200")
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		checkIndexStats(t, out, "D7 (doc=1200 seed=42)")
	})

	t.Run("match-spec-and-xsd", func(t *testing.T) {
		dir := t.TempDir()
		spec := filepath.Join(dir, "a.spec")
		if err := os.WriteFile(spec, []byte("Order\n  ContactName\n  Quantity\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		xsdFile := filepath.Join(dir, "b.xsd")
		xsdText := `<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="ORDER">
    <xs:complexType><xs:sequence>
      <xs:element name="CONTACT_NAME" type="xs:string"/>
      <xs:element name="QTY" type="xs:string"/>
    </xs:sequence></xs:complexType>
  </xs:element>
</xs:schema>`
		if err := os.WriteFile(xsdFile, []byte(xsdText), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := run(t, bin, "match", "-src", spec, "-tgt", xsdFile)
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.Contains(out, "ContactName ~ ORDER.CONTACT_NAME") {
			t.Errorf("match output missing expected correspondence:\n%s", out)
		}
	})

	t.Run("remote", func(t *testing.T) {
		// An in-process xmatchd serving D7 with the same |M|, document
		// size, and seed (42, as runQuery uses) as the local runs below:
		// remote output must be byte-identical to local evaluation.
		man := &store.Catalog{Entries: []store.CatalogEntry{
			{Name: "D7", Dataset: "D7", Mappings: 20, DocNodes: 1200, DocSeed: 42},
		}}
		loader := func() (*server.Catalog, error) {
			return server.BuildCatalog(man, ".", engine.Options{Workers: 4})
		}
		srv, err := server.New(loader, server.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		defer ts.Close()

		for _, tc := range []struct {
			name string
			args []string
		}{
			{"single", []string{"-q", "Order/DeliverTo/Contact/EMail"}},
			{"topk", []string{"-q", "Order/DeliverTo/Contact/EMail", "-k", "3"}},
			{"batch", []string{"-q", "Order/DeliverTo/Contact/EMail; Order/POLine/Quantity"}},
		} {
			t.Run(tc.name, func(t *testing.T) {
				local, err := run(t, bin, append([]string{"query", "-d", "D7", "-m", "20", "-doc", "1200"}, tc.args...)...)
				if err != nil {
					t.Fatalf("local: %v\n%s", err, local)
				}
				remote, err := run(t, bin, append([]string{"query", "-remote", ts.URL, "-d", "D7"}, tc.args...)...)
				if err != nil {
					t.Fatalf("remote: %v\n%s", err, remote)
				}
				if remote != local {
					t.Errorf("remote and local output differ:\n--- remote\n%s--- local\n%s", remote, local)
				}
			})
		}

		t.Run("remote-errors", func(t *testing.T) {
			if out, err := run(t, bin, "query", "-remote", ts.URL, "-d", "nope", "-q", "Order"); err == nil {
				t.Errorf("unknown remote dataset succeeded:\n%s", out)
			} else if !strings.Contains(out, "unknown dataset") {
				t.Errorf("unknown remote dataset error not surfaced:\n%s", out)
			}
			if out, err := run(t, bin, "query", "-remote", ts.URL, "-d", "D7", "-q", "[[["); err == nil {
				t.Errorf("malformed remote pattern succeeded:\n%s", out)
			}
			if out, err := run(t, bin, "query", "-remote", "http://127.0.0.1:1", "-d", "D7", "-q", "Order"); err == nil {
				t.Errorf("unreachable daemon succeeded:\n%s", out)
			}
			// Local-only flags must be rejected, not silently ignored.
			if out, err := run(t, bin, "query", "-remote", ts.URL, "-d", "D7", "-m", "50", "-q", "Order"); err == nil {
				t.Errorf("-remote with -m succeeded:\n%s", out)
			} else if !strings.Contains(out, "-m") {
				t.Errorf("-remote with -m error does not name the flag:\n%s", out)
			}
		})
	})

	t.Run("errors", func(t *testing.T) {
		if out, err := run(t, bin, "query", "-d", "D7"); err == nil {
			t.Errorf("query without -q succeeded:\n%s", out)
		}
		if out, err := run(t, bin, "stats", "-d", "D99"); err == nil {
			t.Errorf("unknown dataset succeeded:\n%s", out)
		}
		if out, err := run(t, bin, "nonsense"); err == nil {
			t.Errorf("unknown subcommand succeeded:\n%s", out)
		}
	})
}

// TestCLIMutate covers the mutate subcommand (local apply with -verify,
// remote apply against an in-process daemon, error paths) and the index
// subcommand's manifest mode, including the hard error for a manifest
// entry that has no document.
func TestCLIMutate(t *testing.T) {
	bin := buildBinary(t)
	dir := t.TempDir()

	edits := `[{"op":"settext","path":"Order.COND_TYPE_UNIT.LINK_MAP_CAT","text":"99"},` +
		`{"op":"insert","path":"Order","pos":0,"xml":"<Audit><By>cli</By></Audit>"}]`

	t.Run("local-verify", func(t *testing.T) {
		out, err := run(t, bin, "mutate", "-d", "D7", "-doc", "900", "-edits", edits, "-verify")
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		for _, want := range []string{"epoch 1", "incremental index == full rebuild"} {
			if !strings.Contains(out, want) {
				t.Errorf("output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("edits-from-file", func(t *testing.T) {
		path := filepath.Join(dir, "edits.json")
		if err := os.WriteFile(path, []byte(edits), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := run(t, bin, "mutate", "-d", "D7", "-doc", "900", "-edits", "@"+path)
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.Contains(out, "2 edit(s)") {
			t.Errorf("output missing edit count:\n%s", out)
		}
	})

	t.Run("remote", func(t *testing.T) {
		man := &store.Catalog{Entries: []store.CatalogEntry{
			{Name: "D7", Dataset: "D7", Mappings: 10, DocNodes: 900, DocSeed: 42},
		}}
		loader := func() (*server.Catalog, error) {
			return server.BuildCatalog(man, ".", engine.Options{Workers: 2})
		}
		srv, err := server.New(loader, server.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		defer ts.Close()

		out, err := run(t, bin, "mutate", "-remote", ts.URL, "-d", "D7", "-edits", edits)
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		for _, want := range []string{"epoch 1", "in-memory only"} {
			if !strings.Contains(out, want) {
				t.Errorf("remote mutate output missing %q:\n%s", want, out)
			}
		}
		if srv.Catalog().Get("D7").Snapshot().Epoch != 1 {
			t.Error("daemon did not advance the epoch")
		}
		// Local-only flags conflict with -remote.
		if out, err := run(t, bin, "mutate", "-remote", ts.URL, "-d", "D7", "-edits", edits, "-verify"); err == nil {
			t.Errorf("-remote with -verify succeeded:\n%s", out)
		} else if !strings.Contains(out, "-verify") {
			t.Errorf("conflict error does not name the flag:\n%s", out)
		}
	})

	t.Run("errors", func(t *testing.T) {
		if out, err := run(t, bin, "mutate", "-d", "D7"); err == nil {
			t.Errorf("mutate without -edits succeeded:\n%s", out)
		}
		if out, err := run(t, bin, "mutate", "-d", "D7", "-edits", "not json"); err == nil {
			t.Errorf("mutate with bad JSON succeeded:\n%s", out)
		}
		if out, err := run(t, bin, "mutate", "-d", "D7", "-edits", `[{"op":"warp","path":"Order"}]`); err == nil {
			t.Errorf("mutate with unknown op succeeded:\n%s", out)
		}
		if out, err := run(t, bin, "mutate", "-d", "D7", "-edits", `[{"op":"delete","path":"No.Such"}]`); err == nil {
			t.Errorf("mutate with unresolvable target succeeded:\n%s", out)
		}
	})

	t.Run("index-manifest", func(t *testing.T) {
		// An entry with no document must fail loudly; a built-in entry works.
		man := &store.Catalog{Entries: []store.CatalogEntry{
			{Name: "nodoc", SetPath: "frozen.set"},
			{Name: "gen", Dataset: "D1", DocNodes: 300},
		}}
		manPath := filepath.Join(dir, "cat.xm")
		f, err := os.Create(manPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.SaveCatalog(f, man); err != nil {
			t.Fatal(err)
		}
		f.Close()

		out, err := run(t, bin, "index", "-manifest", manPath, "-name", "nodoc")
		if err == nil {
			t.Fatalf("indexing a document-less entry succeeded:\n%s", out)
		}
		if !strings.Contains(out, "has no document") || !strings.Contains(out, "nodoc") {
			t.Errorf("document-less entry error unclear:\n%s", out)
		}
		if out, err := run(t, bin, "index", "-manifest", manPath, "-name", "missing"); err == nil || !strings.Contains(out, "no entry named") {
			t.Errorf("unknown entry error unclear: %v\n%s", err, out)
		}
		if out, err := run(t, bin, "index", "-manifest", manPath); err == nil || !strings.Contains(out, "-name") {
			t.Errorf("missing -name error unclear: %v\n%s", err, out)
		}
		out, err = run(t, bin, "index", "-manifest", manPath, "-name", "gen")
		if err != nil {
			t.Fatalf("built-in manifest entry: %v\n%s", err, out)
		}
		checkIndexStats(t, out, "[gen] (doc=300 seed=0)")
	})
}
