package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"xmatch/internal/engine"
	"xmatch/internal/server"
	"xmatch/internal/store"
)

// The workload subcommand operates on xmatchd's capture files (the
// -capture flag): `info` summarizes one, `replay` re-runs every record —
// against a live daemon (-remote) or an in-process rebuild of the
// serving catalog — and byte-diffs each response's result digest against
// the digest captured when the query was originally served. Zero diffs
// means the replay target serves byte-identical answers to the capturing
// daemon; any diff exits non-zero, which is what makes the command a CI
// differential gate.

func runWorkload(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("workload: want a verb: replay or info")
	}
	switch args[0] {
	case "replay":
		return runWorkloadReplay(args[1:])
	case "info":
		return runWorkloadInfo(args[1:])
	default:
		return fmt.Errorf("workload: unknown verb %q (want replay or info)", args[0])
	}
}

// loadCapture reads a capture file, surfacing a torn tail as a warning:
// a crash mid-append loses at most the final record, never the replay.
func loadCapture(path string) (*store.Workload, error) {
	if path == "" {
		return nil, fmt.Errorf("workload: -f is required (an xmatchd -capture file)")
	}
	w, err := store.LoadWorkloadFile(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %w", path, err)
	}
	if w.Torn {
		fmt.Fprintf(os.Stderr, "workload: %s has a torn tail (crash mid-append); replaying the %d intact record(s)\n", path, len(w.Records))
	}
	return w, nil
}

func runWorkloadReplay(args []string) error {
	fs := flag.NewFlagSet("workload replay", flag.ExitOnError)
	path := fs.String("f", "", "capture file written by xmatchd -capture (required)")
	remote := fs.String("remote", "", "replay against a live xmatchd at this base URL instead of rebuilding the catalog locally")
	manifest := fs.String("manifest", "", "local replay: rebuild the serving catalog from this store manifest")
	datasets := fs.String("datasets", "", "local replay: builtin dataset IDs to serve (default: the datasets the capture references)")
	m := fs.Int("m", server.DefaultMappings, "local replay: possible mappings per builtin dataset (match the capturing daemon)")
	docNodes := fs.Int("doc", server.DefaultDocNodes, "local replay: document size per builtin dataset")
	seed := fs.Int64("seed", 42, "local replay: document generator seed")
	shards := fs.Int("shards", 1, "local replay: member documents per builtin dataset")
	tau := fs.Float64("tau", 0.2, "local replay: block-tree confidence threshold")
	limit := fs.Int("limit", 0, "replay only the first N records (0 = all)")
	maxDiffs := fs.Int("diffs", 10, "print at most N diffs")
	fs.Parse(args)

	w, err := loadCapture(*path)
	if err != nil {
		return err
	}
	recs := w.Records
	if *limit > 0 && len(recs) > *limit {
		recs = recs[:*limit]
	}
	if len(recs) == 0 {
		return fmt.Errorf("workload: %s holds no records", *path)
	}

	var run server.ReplayRunner
	target := ""
	if *remote != "" {
		target = strings.TrimRight(*remote, "/")
		run = server.RemoteReplayRunner(target, &http.Client{Timeout: 60 * time.Second})
	} else {
		srv, err := replayServer(*manifest, *datasets, recs, *m, *docNodes, *seed, *shards, *tau)
		if err != nil {
			return err
		}
		target = "local catalog"
		run = server.HandlerReplayRunner(srv)
	}

	start := time.Now()
	report := server.ReplayWorkload(recs, run)
	elapsed := time.Since(start)
	fmt.Printf("replayed %d record(s) against %s in %v: %d matched, %d diff(s)\n",
		report.Total, target, elapsed.Round(time.Millisecond), report.Matched, len(report.Diffs))
	for i, d := range report.Diffs {
		if i >= *maxDiffs {
			fmt.Printf("  ... %d more diff(s)\n", len(report.Diffs)-i)
			break
		}
		if d.Err != "" {
			fmt.Printf("  record %d %s %s (%s): %s\n", d.Index, d.Dataset, d.Pattern, d.Mode, d.Err)
		} else {
			fmt.Printf("  record %d %s %s (%s): digest %s, want %s\n", d.Index, d.Dataset, d.Pattern, d.Mode, d.Got, d.Want)
		}
	}
	if len(report.Diffs) > 0 {
		return fmt.Errorf("workload: %d of %d record(s) did not reproduce their captured digest", len(report.Diffs), report.Total)
	}
	return nil
}

// replayServer builds the in-process server a local replay drives: from a
// manifest when given, else a builtin-dataset catalog shaped like the
// capturing daemon's (the -m/-doc/-seed/-shards/-tau flags must match the
// flags xmatchd served with, exactly as a second daemon's would). The
// short MinEpochWait fails records demanding an epoch this fresh catalog
// cannot reach quickly — those surface as diffs, not multi-second stalls.
func replayServer(manifestPath, datasets string, recs []store.WorkloadRecord, m, docNodes int, seed int64, shards int, tau float64) (*server.Server, error) {
	var man *store.Catalog
	baseDir := "."
	if manifestPath != "" {
		f, err := os.Open(manifestPath)
		if err != nil {
			return nil, err
		}
		man, err = store.LoadCatalog(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("workload: manifest %s: %w", manifestPath, err)
		}
		baseDir = manifestPath[:strings.LastIndexByte(manifestPath, '/')+1]
		if baseDir == "" {
			baseDir = "."
		}
	} else {
		names := datasets
		if names == "" {
			names = strings.Join(captureDatasets(recs), ",")
		}
		man = &store.Catalog{}
		for _, id := range strings.Split(names, ",") {
			if id = strings.TrimSpace(id); id == "" {
				continue
			}
			man.Entries = append(man.Entries, store.CatalogEntry{
				Name: id, Dataset: id, Mappings: m,
				DocNodes: docNodes, DocSeed: seed, Shards: shards, Tau: tau,
			})
		}
		if err := man.Validate(); err != nil {
			return nil, err
		}
	}
	loader := func() (*server.Catalog, error) {
		return server.BuildCatalogOpts(man, baseDir, engine.Options{}, server.CatalogOptions{})
	}
	return server.New(loader, server.Options{MinEpochWait: 100 * time.Millisecond})
}

// captureDatasets lists the distinct dataset names a capture references.
func captureDatasets(recs []store.WorkloadRecord) []string {
	seen := map[string]bool{}
	var names []string
	for _, r := range recs {
		if !seen[r.Dataset] {
			seen[r.Dataset] = true
			names = append(names, r.Dataset)
		}
	}
	sort.Strings(names)
	return names
}

func runWorkloadInfo(args []string) error {
	fs := flag.NewFlagSet("workload info", flag.ExitOnError)
	path := fs.String("f", "", "capture file written by xmatchd -capture (required)")
	fs.Parse(args)

	w, err := loadCapture(*path)
	if err != nil {
		return err
	}
	fps := map[uint64]int{}
	modes := map[string]int{}
	var latUs int64
	var maxEpoch uint64
	for _, r := range w.Records {
		fps[r.Fingerprint]++
		modes[r.Mode]++
		latUs += r.LatencyUs
		if r.Epoch > maxEpoch {
			maxEpoch = r.Epoch
		}
	}
	fmt.Printf("capture %s: %d record(s), 1-in-%d sampling, %d distinct fingerprint(s)\n",
		*path, len(w.Records), w.SampleN, len(fps))
	for _, ds := range captureDatasets(w.Records) {
		fmt.Printf("  dataset %s\n", ds)
	}
	var modeNames []string
	for mode := range modes {
		modeNames = append(modeNames, mode)
	}
	sort.Strings(modeNames)
	for _, mode := range modeNames {
		fmt.Printf("  mode %-8s %d record(s)\n", mode, modes[mode])
	}
	if len(w.Records) > 0 {
		fmt.Printf("  mean served latency %.3fms, max epoch %d\n",
			float64(latUs)/float64(len(w.Records))/1e3, maxEpoch)
	}
	if w.Torn {
		fmt.Printf("  torn tail after %d valid byte(s)\n", w.ValidSize)
	}
	return nil
}
