// Command xmatch is an end-to-end demonstration of the library: it loads a
// Table II dataset (or matches two schema spec files), derives the top-h
// possible mappings, builds the block tree, and answers probabilistic twig
// queries over a generated source document.
//
// Usage:
//
//	xmatch stats    -d D7                 # matching + block-tree statistics
//	xmatch mappings -d D7 -n 10           # show the 10 most probable mappings
//	xmatch query    -d D7 -q 'Order/DeliverTo/Contact/EMail' [-k 10] [-workers 8]
//	xmatch query    -d D7 -q 'Order//EMail; Order//Quantity'  # batched queries
//	xmatch query    -remote http://localhost:8777 -d D7 -q 'Order//EMail'
//	xmatch mutate   -remote http://localhost:8777 -d D7 -edits '[{"op":"settext","path":"Order.POLine.Quantity","text":"9"}]'
//	xmatch match    -src a.spec -tgt b.spec   # run the COMA-style matcher
//	xmatch workload info   -f queries.capture              # inspect a capture
//	xmatch workload replay -f queries.capture              # re-run locally, diff digests
//	xmatch workload replay -f queries.capture -remote http://localhost:8777
//
// Queries run on the concurrent engine of internal/engine; -workers bounds
// its pool (0 = all cores, 1 = sequential).
// With -remote the query subcommand becomes a client of the xmatchd daemon
// (cmd/xmatchd): -d names the daemon's serving dataset, batches go through
// /v1/batch, and the printed answers match local evaluation exactly.
//
// Schema spec files use the indentation format of schema.ParseSpec.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"xmatch/internal/core"
	"xmatch/internal/dataset"
	"xmatch/internal/delta"
	"xmatch/internal/engine"
	"xmatch/internal/index"
	"xmatch/internal/mapgen"
	"xmatch/internal/mapping"
	"xmatch/internal/matcher"
	"xmatch/internal/schema"
	"xmatch/internal/server"
	"xmatch/internal/store"
	"xmatch/internal/xmltree"
	"xmatch/internal/xsd"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "stats":
		err = runStats(os.Args[2:])
	case "mappings":
		err = runMappings(os.Args[2:])
	case "query":
		err = runQuery(os.Args[2:])
	case "index":
		err = runIndex(os.Args[2:])
	case "mutate":
		err = runMutate(os.Args[2:])
	case "checkpoint":
		err = runCheckpoint(os.Args[2:])
	case "match":
		err = runMatch(os.Args[2:])
	case "workload":
		err = runWorkload(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xmatch:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: xmatch <stats|mappings|query|index|mutate|checkpoint|workload|match> [flags]
  stats    -d <D1..D10>                     matching and block-tree statistics
  mappings -d <D1..D10> [-n 10] [-m 100]    most probable mappings
  query    -d <D1..D10> -q <twig> [-k 0]    answer a PTQ (k>0 for top-k);
           [-workers N]                     ';'-separated twigs run as a batch
           [-remote http://host:port]       ask a running xmatchd instead
  index    -d <D1..D10> | -xml <file>       build the positional index, print
           | -manifest <cat> -name <entry>  its stats; -stats prints the
           [-stats]                         per-path postings table (counts,
                                            compressed vs uncompressed
                                            ("flat") bytes, ratio);
                                            -manifest indexes a catalog
                                            entry's document (the entry must
                                            have one)
  mutate   -d <name> -edits <json|@file>    apply an edit batch to a live
           [-remote http://host:port]       document: remote posts to a
           [-doc N] [-seed N] [-verify]     running xmatchd's /v1/admin/mutate;
                                            local applies to a generated
                                            dataset document (-verify checks
                                            the incremental index against a
                                            full rebuild)
  checkpoint -d <name>                      compact a served dataset's edit
           -remote http://host:port         logs into checkpoint blobs via
                                            /v1/admin/checkpoint: per shard,
                                            persists state at the current
                                            epoch and truncates the shipped
                                            log; lagging followers bootstrap
                                            from the checkpoint
  workload replay -f <capture>              re-run a daemon's workload capture
           [-remote http://host:port]       and byte-diff every result digest:
           [-manifest <cat>] [-datasets..]  remote replays against a live
           [-limit N] [-diffs N]            daemon; local rebuilds the serving
                                            catalog in-process (a manifest, or
                                            builtin datasets matching the
                                            capturing daemon's flags) and
                                            replays through the same HTTP
                                            handler; exits non-zero on any diff
  workload info -f <capture>                summarize a capture file (records,
                                            sampling, fingerprints, torn tail)
  match    -src <spec> -tgt <spec>          run the built-in matcher
           (files ending in .xsd are parsed as XML Schema)`)
}

func loadSet(id string, m int) (*dataset.Dataset, *mapping.Set, error) {
	d, err := dataset.Load(id)
	if err != nil {
		return nil, nil, err
	}
	set, err := mapgen.TopH(d.Matching, m, mapgen.Partition)
	if err != nil {
		return nil, nil, err
	}
	return d, set, nil
}

func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	id := fs.String("d", "D7", "dataset ID")
	m := fs.Int("m", 100, "number of possible mappings")
	tau := fs.Float64("tau", 0.2, "confidence threshold")
	queries := fs.Bool("queries", false, "print the Table III workload queries, one per line, and exit (for scripting query drivers)")
	fs.Parse(args)

	if *queries {
		for _, q := range dataset.Queries() {
			fmt.Println(q.Text)
		}
		return nil
	}

	d, set, err := loadSet(*id, *m)
	if err != nil {
		return err
	}
	st := d.Matching.Stats()
	fmt.Printf("dataset %s: %s (|S|=%d) -> %s (|T|=%d)\n",
		d.Info.ID, d.Info.Src, d.Source.Len(), d.Info.Tgt, d.Target.Len())
	fmt.Printf("matching: capacity=%d partitions=%d max-partition=%d avg=%.1f\n",
		st.Capacity, st.NumPartitions, st.MaxPartition, st.AvgPartition)
	fmt.Printf("mappings: |M|=%d avg o-ratio=%.3f (paper: %.2f)\n",
		set.Len(), set.AverageORatio(), d.Info.PaperORatio)

	bt, err := core.Build(set, core.Options{Tau: *tau})
	if err != nil {
		return err
	}
	bst := bt.Stats()
	comp := bt.Compress()
	fmt.Printf("block tree (tau=%.2f): %d c-blocks, avg size %.2f, max size %d (%.1f%% of target)\n",
		*tau, bst.NumBlocks, bst.AvgSize, bst.MaxSize, 100*bst.MaxCoverage)
	fmt.Printf("storage: raw=%dB compressed=%dB ratio=%.2f%%\n",
		set.RawBytes(), comp.Bytes(), 100*comp.CompressionRatio())
	return nil
}

func runMappings(args []string) error {
	fs := flag.NewFlagSet("mappings", flag.ExitOnError)
	id := fs.String("d", "D7", "dataset ID")
	m := fs.Int("m", 100, "number of possible mappings to derive")
	n := fs.Int("n", 10, "number of mappings to display")
	fs.Parse(args)

	d, set, err := loadSet(*id, *m)
	if err != nil {
		return err
	}
	show := *n
	if show > set.Len() {
		show = set.Len()
	}
	for i := 0; i < show; i++ {
		mp := set.Mappings[i]
		fmt.Printf("m%-3d prob=%.4f score=%.3f correspondences=%d\n", i+1, mp.Prob, mp.Score, mp.Len())
		if i == 0 {
			continue
		}
		// Show how this mapping differs from the most probable one.
		best := set.Mappings[0]
		for t := 0; t < d.Target.Len(); t++ {
			s1, ok1 := best.SourceFor(t)
			s2, ok2 := mp.SourceFor(t)
			if ok1 == ok2 && (!ok1 || s1 == s2) {
				continue
			}
			fmt.Printf("     %s: %s -> %s\n", d.Target.ByID(t).Path, srcName(d, s1, ok1), srcName(d, s2, ok2))
		}
	}
	return nil
}

func srcName(d *dataset.Dataset, s int, ok bool) string {
	if !ok {
		return "(none)"
	}
	return d.Source.ByID(s).Path
}

func runQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	id := fs.String("d", "D7", "dataset ID")
	m := fs.Int("m", 100, "number of possible mappings")
	qtext := fs.String("q", "", "twig query on the target schema; repeatable via ';' for a batch (required)")
	k := fs.Int("k", 0, "top-k PTQ; 0 evaluates all mappings")
	docNodes := fs.Int("doc", 3473, "source document size")
	workers := fs.Int("workers", 0, "parallel evaluation workers (0 = all cores, 1 = sequential)")
	remote := fs.String("remote", "", "xmatchd base URL (e.g. http://localhost:8777); query the daemon's dataset named by -d instead of evaluating locally")
	explain := fs.Bool("explain", false, "print evaluation internals after the answers: the request trace and the index matcher's counters (single query only)")
	fs.Parse(args)
	if *qtext == "" {
		return fmt.Errorf("query: -q is required")
	}
	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}

	var queries []string
	for _, text := range strings.Split(*qtext, ";") {
		if text = strings.TrimSpace(text); text != "" {
			queries = append(queries, text)
		}
	}
	if len(queries) == 0 {
		return fmt.Errorf("query: -q holds no query text")
	}
	if *explain && len(queries) > 1 {
		return fmt.Errorf("query: -explain applies to a single query, not a ';' batch")
	}
	if *remote != "" {
		// The daemon's catalog fixes the dataset shape and engine; accepting
		// these flags would silently answer over a different configuration.
		var conflicts []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "m", "doc", "workers":
				conflicts = append(conflicts, "-"+f.Name)
			}
		})
		if len(conflicts) > 0 {
			return fmt.Errorf("query: %s only apply to local evaluation; with -remote the daemon's catalog fixes the dataset shape", strings.Join(conflicts, ", "))
		}
		return runRemoteQuery(*remote, *id, queries, *k, *explain)
	}

	_, set, err := loadSet(*id, *m)
	if err != nil {
		return err
	}
	d, _ := dataset.Load(*id)
	doc := d.OrderDocument(*docNodes, 42)
	index.Attach(doc)
	bt, err := core.Build(set, core.DefaultOptions())
	if err != nil {
		return err
	}
	eng := engine.New(engine.Options{Workers: w})
	sh := engine.Shards{Docs: []*xmltree.Document{doc}}
	if len(queries) > 1 {
		// Batch: answer every query concurrently under one worker budget.
		reqs := make([]engine.Request, len(queries))
		for i, text := range queries {
			reqs[i] = engine.Request{Pattern: text, K: *k}
		}
		for _, resp := range eng.EvaluateBatchAcross(set, sh, bt, reqs) {
			if resp.Err != nil {
				return fmt.Errorf("query %s: %w", resp.Pattern, resp.Err)
			}
			printAnswers(resp.Pattern, resp.Query, resp.Results)
		}
		return nil
	}
	q, err := eng.Prepare(queries[0], set)
	if err != nil {
		return err
	}
	// Local EXPLAIN reads the process-global matcher counters around the
	// evaluation; this process runs nothing else, so the delta is exact.
	before := index.GlobalCounters()
	start := time.Now()
	var results []core.Result
	if *k > 0 {
		results = eng.EvaluateTopKAcross(q, set, sh, bt, *k)
	} else {
		results = eng.EvaluateAcross(q, set, sh, bt)
	}
	elapsed := time.Since(start)
	printAnswers(queries[0], q, results)
	if *explain {
		fmt.Printf("explain: evaluated in %.3fms\n", float64(elapsed.Microseconds())/1e3)
		printCounters("  ", index.GlobalCounters().Sub(before))
	}
	return nil
}

// printCounters renders one matcher-counter block of an EXPLAIN report.
func printCounters(indent string, c index.CountersSnapshot) {
	fmt.Printf("%sevals=%d memoHits=%d memoMisses=%d fastPath=%d\n", indent, c.Evals, c.MemoHits, c.MemoMisses, c.FastPath)
	fmt.Printf("%scandidates=%d usefulSurvivors=%d reachSurvivors=%d emitted=%d\n", indent, c.Candidates, c.UsefulSurvivors, c.ReachSurvivors, c.Emitted)
	fmt.Printf("%sgallopMerges=%d linearMerges=%d decoded=%d lists / %d postings / %d blocks\n", indent, c.GallopMerges, c.LinearMerges, c.DecodedLists, c.DecodedPostings, c.DecodedBlocks)
}

func printAnswers(text string, q *core.Query, results []core.Result) {
	printWireAnswers(text, len(results), core.AnswersToWire(core.AggregateLeaf(q, results)))
}

// printWireAnswers renders aggregated answers; the local and remote query
// paths share it, so the CLI output is identical either way.
func printWireAnswers(text string, nResults int, answers []core.WireAnswer) {
	fmt.Printf("query %s: %d relevant mapping(s)\n", text, nResults)
	for _, a := range answers {
		vals := a.Values
		const maxShow = 8
		suffix := ""
		if len(vals) > maxShow {
			suffix = fmt.Sprintf(" ... (%d values)", len(vals))
			vals = vals[:maxShow]
		}
		fmt.Printf("  p=%.4f  %s%s\n", a.Prob, strings.Join(vals, ", "), suffix)
	}
}

// runRemoteQuery answers the queries through a running xmatchd daemon:
// one query POSTs /v1/query (top-k when -k > 0), several POST one /v1/batch.
// With explain set the daemon annotates the response with its trace and
// per-shard matcher counters, printed after the answers.
func runRemoteQuery(base, ds string, queries []string, k int, explain bool) error {
	base = strings.TrimRight(base, "/")
	client := &http.Client{Timeout: 60 * time.Second}
	if len(queries) == 1 {
		req := server.QueryRequest{Dataset: ds, Pattern: queries[0], K: k, Explain: explain}
		if k > 0 {
			req.Mode = "topk"
		}
		var resp server.QueryResponse
		if err := postJSON(client, base+"/v1/query", req, &resp); err != nil {
			return err
		}
		printWireAnswers(resp.Pattern, len(resp.Results), resp.Answers)
		if resp.Explain != nil {
			ex := resp.Explain
			fmt.Printf("explain: request %s, %.3fms total\n", ex.Trace.ID, float64(ex.Trace.DurUs)/1e3)
			for _, sp := range ex.Trace.Spans {
				detail := sp.Detail
				if detail != "" {
					detail = "  " + detail
				}
				fmt.Printf("  %9.3fms +%9.3fms  %s%s\n", float64(sp.StartUs)/1e3, float64(sp.DurUs)/1e3, sp.Name, detail)
			}
			for _, sh := range ex.Shards {
				fmt.Printf("  shard %d (epoch %d):\n", sh.Shard, sh.Epoch)
				printCounters("    ", sh.Counters)
			}
		}
		return nil
	}
	req := server.BatchRequest{Dataset: ds}
	for _, text := range queries {
		req.Queries = append(req.Queries, server.BatchQuery{Pattern: text, K: k})
	}
	var resp server.BatchResponse
	if err := postJSON(client, base+"/v1/batch", req, &resp); err != nil {
		return err
	}
	for _, r := range resp.Responses {
		if r.Error != "" {
			return fmt.Errorf("query %s: %s", r.Pattern, r.Error)
		}
		printWireAnswers(r.Pattern, len(r.Results), r.Answers)
	}
	return nil
}

// postJSON posts in as JSON and decodes the response into out, surfacing
// the daemon's error message on non-2xx replies.
func postJSON(client *http.Client, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("remote: %s", e.Error)
		}
		return fmt.Errorf("remote: status %s", resp.Status)
	}
	return json.Unmarshal(data, out)
}

// runIndex builds the positional index over a dataset's generated document,
// an XML file, or a catalog manifest entry's document, and prints its
// statistics.
func runIndex(args []string) error {
	fs := flag.NewFlagSet("index", flag.ExitOnError)
	id := fs.String("d", "D7", "dataset ID (ignored with -xml or -manifest)")
	xmlPath := fs.String("xml", "", "index an XML document file instead of a generated dataset document")
	manifestPath := fs.String("manifest", "", "index the document of a catalog manifest entry (requires -name)")
	entryName := fs.String("name", "", "catalog entry name within -manifest")
	docNodes := fs.Int("doc", 3473, "generated document size (total across -shards members)")
	seed := fs.Int64("seed", 42, "document generator seed")
	shards := fs.Int("shards", 1, "member documents for a generated collection (-d mode); manifest entries carry their own shard count")
	stats := fs.Bool("stats", false, "print the per-path postings table: counts, compressed vs uncompressed (flat) bytes, ratio")
	fs.Parse(args)

	var docs []*xmltree.Document
	var source string
	switch {
	case *manifestPath != "":
		var err error
		docs, source, err = manifestDocuments(*manifestPath, *entryName)
		if err != nil {
			return err
		}
	case *xmlPath != "":
		f, err := os.Open(*xmlPath)
		if err != nil {
			return err
		}
		doc, err := xmltree.Parse(f)
		f.Close()
		if err != nil {
			return err
		}
		docs = []*xmltree.Document{doc}
		source = *xmlPath
	default:
		d, err := dataset.Load(*id)
		if err != nil {
			return err
		}
		if *shards > 1 {
			docs = d.OrderCorpus(*shards, *docNodes, *seed)
			source = fmt.Sprintf("%s (doc=%d seed=%d shards=%d)", *id, *docNodes, *seed, *shards)
		} else {
			docs = []*xmltree.Document{d.OrderDocument(*docNodes, *seed)}
			source = fmt.Sprintf("%s (doc=%d seed=%d)", *id, *docNodes, *seed)
		}
	}

	if len(docs) > 1 {
		return indexCollection(docs, source, *stats)
	}
	doc := docs[0]
	ix := index.Build(doc)
	st := ix.Stats()
	fmt.Printf("index %s: %d nodes\n", source, doc.Len())
	fmt.Printf("postings: %d over %d distinct paths, %d value keys\n",
		st.Postings, st.DistinctPaths, st.ValueKeys)
	fmt.Printf("resident: %dB, built in %v\n", st.ResidentBytes, st.BuildTime.Round(time.Microsecond))
	fmt.Printf("postings bytes: %dB compressed vs %dB flat (ratio %.2f)\n",
		st.PostingsBytes, st.PostingsFlatBytes, st.CompressionRatio())
	if *stats {
		printPathStats(ix)
	}
	return nil
}

// printPathStats prints ix's per-path postings table: counts, compressed
// bytes against the same postings uncompressed, and their ratio.
func printPathStats(ix *index.Index) {
	fmt.Printf("%9s %12s %10s %7s  %s\n", "postings", "compressed", "flat", "ratio", "path")
	for _, ps := range ix.PathStats() {
		ratio := 1.0
		if ps.FlatBytes > 0 {
			ratio = float64(ps.ResidentBytes) / float64(ps.FlatBytes)
		}
		fmt.Printf("%9d %11dB %9dB %7.2f  %s\n", ps.Postings, ps.ResidentBytes, ps.FlatBytes, ratio, ps.Path)
	}
}

// indexCollection indexes every member of a sharded collection and prints
// a per-shard stats table plus aggregates — the offline view of the
// per-shard xmatch_index_* series a daemon serves.
func indexCollection(docs []*xmltree.Document, source string, stats bool) error {
	fmt.Printf("index %s: %d member shards\n", source, len(docs))
	fmt.Printf("%5s %9s %9s %8s %12s %12s  %s\n", "shard", "nodes", "postings", "paths", "resident", "built", "range")
	var nodes, postings, resident int
	var build time.Duration
	ixs := make([]*index.Index, len(docs))
	for i, doc := range docs {
		ix := index.Build(doc)
		ixs[i] = ix
		st := ix.Stats()
		fmt.Printf("%5d %9d %9d %8d %11dB %12v  [%d,%d]\n",
			i, doc.Len(), st.Postings, st.DistinctPaths, st.ResidentBytes,
			st.BuildTime.Round(time.Microsecond), doc.NumBase(), doc.MaxEnd())
		nodes += doc.Len()
		postings += st.Postings
		resident += st.ResidentBytes
		build += st.BuildTime
	}
	fmt.Printf("total %9d %9d %8s %11dB %12v\n", nodes, postings, "", resident, build.Round(time.Microsecond))
	if stats {
		for i, ix := range ixs {
			fmt.Printf("shard %d per-path postings:\n", i)
			printPathStats(ix)
		}
	}
	return nil
}

func runMatch(args []string) error {
	fs := flag.NewFlagSet("match", flag.ExitOnError)
	srcPath := fs.String("src", "", "source schema spec file (required)")
	tgtPath := fs.String("tgt", "", "target schema spec file (required)")
	threshold := fs.Float64("threshold", 0.55, "similarity threshold")
	fs.Parse(args)
	if *srcPath == "" || *tgtPath == "" {
		return fmt.Errorf("match: -src and -tgt are required")
	}
	src, err := loadSpec(*srcPath)
	if err != nil {
		return err
	}
	tgt, err := loadSpec(*tgtPath)
	if err != nil {
		return err
	}
	u, err := matcher.New(matcher.Options{Threshold: *threshold}).Match(src, tgt)
	if err != nil {
		return err
	}
	fmt.Printf("matching %s (%d elements) -> %s (%d elements): %d correspondences\n",
		src.Name, src.Len(), tgt.Name, tgt.Len(), u.Capacity())
	for _, c := range u.Corrs {
		fmt.Printf("  %.3f  %s ~ %s\n", c.Score, src.ByID(c.S).Path, tgt.ByID(c.T).Path)
	}
	return nil
}

func loadSpec(path string) (*schema.Schema, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	name := path
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	if strings.HasSuffix(path, ".xsd") {
		return xsd.ParseString(strings.TrimSuffix(name, ".xsd"), string(data), xsd.Options{})
	}
	return schema.ParseSpec(strings.TrimSuffix(name, ".spec"), string(data))
}

// manifestDocuments resolves the member documents of one catalog manifest
// entry: built-in entries regenerate theirs deterministically (Shards > 1
// regenerates the whole collection), blob-backed entries must name a
// concrete XML file. An entry without a document — a blob-backed entry
// whose DocPath is empty, meaning the daemon instantiates a synthetic
// single-instance document at serve time — is a hard error: that
// document exists only inside a running daemon.
func manifestDocuments(manifestPath, name string) ([]*xmltree.Document, string, error) {
	if name == "" {
		return nil, "", fmt.Errorf("index: -manifest requires -name (which catalog entry to index)")
	}
	f, err := os.Open(manifestPath)
	if err != nil {
		return nil, "", err
	}
	man, err := store.LoadCatalog(f)
	f.Close()
	if err != nil {
		return nil, "", fmt.Errorf("index: manifest %s: %w", manifestPath, err)
	}
	for _, e := range man.Entries {
		if e.Name != name {
			continue
		}
		if e.Dataset != "" {
			d, err := dataset.Load(e.Dataset)
			if err != nil {
				return nil, "", err
			}
			nodes := e.DocNodes
			if nodes == 0 {
				nodes = server.DefaultDocNodes
			}
			if e.Shards > 1 {
				docs := d.OrderCorpus(e.Shards, nodes, e.DocSeed)
				return docs, fmt.Sprintf("%s[%s] (doc=%d seed=%d shards=%d)", manifestPath, name, nodes, e.DocSeed, e.Shards), nil
			}
			doc := d.OrderDocument(nodes, e.DocSeed)
			return []*xmltree.Document{doc}, fmt.Sprintf("%s[%s] (doc=%d seed=%d)", manifestPath, name, nodes, e.DocSeed), nil
		}
		if e.DocPath == "" {
			return nil, "", fmt.Errorf("index: catalog entry %q in %s has no document (DocPath is empty; the daemon generates one at serve time) — point the entry at a concrete XML file, or index that file directly with -xml", name, manifestPath)
		}
		docFile := filepath.Join(filepath.Dir(manifestPath), e.DocPath)
		df, err := os.Open(docFile)
		if err != nil {
			return nil, "", err
		}
		doc, err := xmltree.Parse(df)
		df.Close()
		if err != nil {
			return nil, "", err
		}
		return []*xmltree.Document{doc}, fmt.Sprintf("%s[%s] (%s)", manifestPath, name, docFile), nil
	}
	return nil, "", fmt.Errorf("index: manifest %s has no entry named %q", manifestPath, name)
}

// parseEdits decodes the -edits argument: a JSON array of delta.Edit,
// inline or @file.
func parseEdits(arg string) ([]delta.Edit, error) {
	if arg == "" {
		return nil, fmt.Errorf("mutate: -edits is required (a JSON array, or @file)")
	}
	data := []byte(arg)
	if strings.HasPrefix(arg, "@") {
		var err error
		data, err = os.ReadFile(arg[1:])
		if err != nil {
			return nil, err
		}
	}
	var edits []delta.Edit
	if err := json.Unmarshal(data, &edits); err != nil {
		return nil, fmt.Errorf("mutate: parsing edits: %w", err)
	}
	if err := delta.Validate(edits); err != nil {
		return nil, err
	}
	return edits, nil
}

// runMutate applies an edit batch to a live document: against a running
// xmatchd (-remote, the production path), or locally against a generated
// dataset document as a demonstration of the delta subsystem, optionally
// verifying the incrementally-maintained index against a full rebuild.
func runMutate(args []string) error {
	fs := flag.NewFlagSet("mutate", flag.ExitOnError)
	id := fs.String("d", "D7", "dataset (serving name with -remote, else a built-in ID)")
	editsArg := fs.String("edits", "", "JSON array of edits, or @file (required)")
	remote := fs.String("remote", "", "xmatchd base URL; POST the batch to its /v1/admin/mutate")
	docNodes := fs.Int("doc", 3473, "generated document size (local only)")
	seed := fs.Int64("seed", 42, "document generator seed (local only)")
	verify := fs.Bool("verify", false, "after applying, verify the incremental index equals a full rebuild (local only)")
	fs.Parse(args)

	edits, err := parseEdits(*editsArg)
	if err != nil {
		return err
	}

	if *remote != "" {
		var conflicts []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "doc", "seed", "verify":
				conflicts = append(conflicts, "-"+f.Name)
			}
		})
		if len(conflicts) > 0 {
			return fmt.Errorf("mutate: %s only apply to local mutation; with -remote the daemon owns the document", strings.Join(conflicts, ", "))
		}
		client := &http.Client{Timeout: 60 * time.Second}
		var resp server.MutateResponse
		if err := postJSON(client, strings.TrimRight(*remote, "/")+"/v1/admin/mutate",
			server.MutateRequest{Dataset: *id, Edits: edits}, &resp); err != nil {
			return err
		}
		persisted := "in-memory only (no edit log; lost on reload)"
		if resp.Persisted {
			persisted = "appended to the dataset's edit log"
		}
		fmt.Printf("mutated %s: %d edit(s) applied, epoch %d, %d nodes, %s\n",
			resp.Dataset, resp.Applied, resp.Epoch, resp.DocNodes, persisted)
		return nil
	}

	d, err := dataset.Load(*id)
	if err != nil {
		return err
	}
	doc := d.OrderDocument(*docNodes, *seed)
	h := delta.Open(doc)
	before := h.Snapshot()
	start := time.Now()
	snap, err := h.Apply(edits)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	st := snap.Index.Stats()
	fmt.Printf("mutated %s: %d edit(s) in %v, epoch %d, %d -> %d nodes\n",
		*id, len(edits), elapsed.Round(time.Microsecond), snap.Epoch, before.Doc.Len(), snap.Doc.Len())
	fmt.Printf("index: %d postings over %d paths spliced in %v (overlay depth %d)\n",
		st.Postings, st.DistinctPaths, st.BuildTime.Round(time.Microsecond), st.Overlays)
	if *verify {
		rebuildStart := time.Now()
		fresh := index.Build(snap.Doc)
		rebuildTime := time.Since(rebuildStart)
		a, err := json.Marshal(snap.Index.Snapshot())
		if err != nil {
			return err
		}
		b, err := json.Marshal(fresh.Snapshot())
		if err != nil {
			return err
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("mutate: VERIFY FAILED: incremental index diverged from full rebuild")
		}
		fmt.Printf("verify: incremental index == full rebuild (rebuild took %v, %.1fx the splice)\n",
			rebuildTime.Round(time.Microsecond), float64(rebuildTime)/float64(st.BuildTime))
	}
	return nil
}

// runCheckpoint asks a running xmatchd to compact a dataset's edit logs
// into checkpoint blobs (POST /v1/admin/checkpoint). Remote-only: a
// checkpoint is an operation on a daemon's durable state.
func runCheckpoint(args []string) error {
	fs := flag.NewFlagSet("checkpoint", flag.ExitOnError)
	id := fs.String("d", "", "served dataset name (required)")
	remote := fs.String("remote", "", "xmatchd base URL (required)")
	fs.Parse(args)
	if *remote == "" || *id == "" {
		return fmt.Errorf("checkpoint: both -remote and -d are required")
	}
	client := &http.Client{Timeout: 60 * time.Second}
	var resp server.CheckpointResponse
	if err := postJSON(client, strings.TrimRight(*remote, "/")+"/v1/admin/checkpoint",
		server.CheckpointRequest{Dataset: *id}, &resp); err != nil {
		return err
	}
	for _, sh := range resp.Shards {
		durable := "retention trimmed (volatile dataset, no blob)"
		if sh.Durable {
			durable = "checkpoint blob written"
		}
		fmt.Printf("checkpointed %s shard %d at epoch %d: %s, %d log byte(s) freed\n",
			resp.Dataset, sh.Shard, sh.Epoch, durable, sh.FreedBytes)
	}
	return nil
}
