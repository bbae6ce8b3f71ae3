package server_test

// Chaos differential suite: the same scripted workload — mutation
// batches, mid-script checkpoints, a query transcript — runs once
// fault-free and once under seeded fault injection on the store's file
// I/O (clean append errors, torn writes, checkpoint write failures,
// injected latency). Failed operations are retried exactly as a client
// would retry a 500. The injector's MaxFaults budget guarantees the
// retries converge, and the assertion is the paper-grade one: every
// served byte and the final checkpoint blob must be identical to the
// fault-free run. Faults may cost retries; they may never change an
// answer or persist divergent state.

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xmatch/internal/delta"
	"xmatch/internal/engine"
	"xmatch/internal/replica"
	"xmatch/internal/server"
	"xmatch/internal/store"
)

// chaosResult is everything one run of the scripted workload produced.
type chaosResult struct {
	transcript []byte // concatenated query response bodies, in script order
	checkpoint []byte // final checkpoint blob, raw file bytes
	finalXML   string // document state after the script
	epoch      uint64 // final epoch
	retries    int    // operations that needed at least one retry
}

// runChaosScript serves one durable-log dataset out of dir and drives
// the scripted workload through the real HTTP mux, retrying any
// operation that answers non-200 (the fault-injected runs rely on this;
// the clean run never retries).
func runChaosScript(t *testing.T, dir string) chaosResult {
	t.Helper()
	man := &store.Catalog{Entries: []store.CatalogEntry{
		{Name: "chaos", Dataset: "D1", Mappings: 8, DocNodes: 300, DocSeed: 3, EditLogPath: "chaos.editlog"},
	}}
	loader := func() (*server.Catalog, error) {
		return server.BuildCatalog(man, dir, engine.Options{Workers: 2})
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv, err := server.New(loader, server.Options{Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}

	var res chaosResult
	do := func(path string, body any) []byte {
		t.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		for attempt := 0; ; attempt++ {
			if attempt >= 100 {
				t.Fatalf("%s did not converge after %d retries", path, attempt)
			}
			r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data))
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, r)
			if w.Code == http.StatusOK {
				if attempt > 0 {
					res.retries++
				}
				return w.Body.Bytes()
			}
		}
	}

	// The edit script targets stable preorder paths: the first few text
	// leaves get per-step rewrites, and every third step grows the root.
	doc := srv.Catalog().Get("chaos").Doc()
	var textPaths []string
	for _, p := range doc.Paths() {
		if ns := doc.NodesByPath(p); len(ns) > 0 && ns[0].Text != "" {
			textPaths = append(textPaths, p)
		}
	}
	if len(textPaths) < 2 {
		t.Fatal("fixture has too few text leaves")
	}
	rootPath := doc.Root.Path
	queries := leafPatterns(t, srv.Catalog().Get("chaos"), 3)

	steps := 12
	for step := 0; step < steps; step++ {
		edits := []delta.Edit{{
			Op:   delta.OpSetText,
			Path: textPaths[step%len(textPaths)],
			Text: "chaos-" + strings.Repeat("x", step+1),
		}}
		if step%3 == 2 {
			edits = append(edits, delta.Edit{
				Op: delta.OpInsert, Path: rootPath, Pos: 0,
				XML: "<Audit>step</Audit>",
			})
		}
		var mr server.MutateResponse
		if err := json.Unmarshal(do("/v1/admin/mutate", server.MutateRequest{Dataset: "chaos", Edits: edits}), &mr); err != nil {
			t.Fatal(err)
		}
		res.epoch = mr.Epoch
		// Mid-script checkpoint: compaction must be as fault-transparent
		// as appends.
		if step == steps/2 {
			do("/v1/admin/checkpoint", map[string]any{"dataset": "chaos"})
		}
		res.transcript = append(res.transcript, do("/v1/query", server.QueryRequest{
			Dataset:  "chaos",
			Pattern:  queries[step%len(queries)],
			MinEpoch: mr.Epoch,
		})...)
	}

	do("/v1/admin/checkpoint", map[string]any{"dataset": "chaos"})
	ckpt, err := os.ReadFile(replica.CheckpointPath(filepath.Join(dir, "chaos.editlog")))
	if err != nil {
		t.Fatal(err)
	}
	res.checkpoint = ckpt
	res.finalXML = srv.Catalog().Get("chaos").Doc().String()
	return res
}

// TestChaosDifferentialStoreFaults is the acceptance gate for the fault
// injection layer: under injected store faults plus forced retries, the
// served bytes and the checkpoint blob stay byte-identical to the
// fault-free run.
func TestChaosDifferentialStoreFaults(t *testing.T) {
	clean := runChaosScript(t, t.TempDir())
	if clean.retries != 0 {
		t.Fatalf("fault-free run retried %d operations", clean.retries)
	}

	inj := newInjector(1012)
	inj.Set("editlog.append", faultConfig{
		ErrorRate: 0.2, TornRate: 0.25,
		LatencyRate: 0.2, Latency: time.Millisecond,
		MaxFaults: 12,
	})
	inj.Set("store.write", faultConfig{ErrorRate: 0.5, MaxFaults: 3})
	store.SetHooks(&store.Hooks{
		AppendFrame: func(path string, frame []byte) (int, error) {
			if keep, torn := inj.Torn("editlog.append"); torn {
				return int(keep * float64(len(frame))), errInjected
			}
			if err := inj.Hit("editlog.append"); err != nil {
				return 0, err
			}
			return len(frame), nil
		},
		WriteFile: func(path string) error { return inj.Hit("store.write") },
	})
	defer store.SetHooks(nil)

	faulty := runChaosScript(t, t.TempDir())
	if faulty.retries == 0 || inj.TotalFaults() == 0 {
		t.Fatalf("chaos run injected nothing (retries=%d faults=%d): the hooks are not wired",
			faulty.retries, inj.TotalFaults())
	}
	t.Logf("injected %d faults across %d retried operations: %+v",
		inj.TotalFaults(), faulty.retries, inj.Counts())

	if faulty.epoch != clean.epoch {
		t.Fatalf("final epoch diverged: clean %d, faulty %d", clean.epoch, faulty.epoch)
	}
	if faulty.finalXML != clean.finalXML {
		t.Fatal("final document diverged under injected faults")
	}
	if !bytes.Equal(faulty.transcript, clean.transcript) {
		t.Fatalf("served bytes diverged under injected faults (clean %d bytes, faulty %d bytes)",
			len(clean.transcript), len(faulty.transcript))
	}
	if !bytes.Equal(faulty.checkpoint, clean.checkpoint) {
		t.Fatalf("checkpoint blob diverged under injected faults (clean %d bytes, faulty %d bytes)",
			len(clean.checkpoint), len(faulty.checkpoint))
	}
}

// TestFollowerChaosRetriesConverge injects a deterministic run of stream
// RPC failures into a follower's sync path: the per-shard breaker must
// open, back off, and probe its way back, and once the fault budget is
// spent the follower must converge to the primary's exact state — the
// retry machinery may delay replication, never fork it.
func TestFollowerChaosRetriesConverge(t *testing.T) {
	man := &store.Catalog{Entries: []store.CatalogEntry{
		{Name: "small", Dataset: "D1", Mappings: 8, DocNodes: 300, DocSeed: 3},
	}}
	loader := func() (*server.Catalog, error) {
		return server.BuildCatalog(man, ".", engine.Options{Workers: 2})
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	primary, err := server.New(loader, server.Options{
		Logger:   quiet,
		Manifest: func() (*store.Catalog, error) { return man, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(primary)
	defer ts.Close()

	// The injector starts with no configured points, so the follower's
	// initial sync is clean; the fault schedule arms afterwards.
	inj := newInjector(77)
	rep, f, err := server.NewFollower(ts.URL, server.FollowerOptions{
		Server: server.Options{Logger: quiet},
		Engine: engine.Options{Workers: 2},
		Fault:  func(op string) error { return inj.Hit("replica." + op) },
		Breaker: replica.BreakerConfig{
			Threshold: 2, BaseCooldown: time.Millisecond,
			MaxCooldown: 4 * time.Millisecond, Jitter: -1, Seed: 5,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const faults = 5
	inj.Set("replica.stream", faultConfig{ErrorRate: 1, MaxFaults: faults})

	doc := primary.Catalog().Get("small").Doc()
	var textPath string
	for _, p := range doc.Paths() {
		if ns := doc.NodesByPath(p); len(ns) > 0 && ns[0].Text != "" {
			textPath = p
			break
		}
	}
	for i := 0; i < 6; i++ {
		body, _ := json.Marshal(server.MutateRequest{Dataset: "small", Edits: []delta.Edit{
			{Op: delta.OpSetText, Path: textPath, Text: strings.Repeat("m", i+1)},
		}})
		r := httptest.NewRequest(http.MethodPost, "/v1/admin/mutate", bytes.NewReader(body))
		w := httptest.NewRecorder()
		primary.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("mutate %d: %d %s", i, w.Code, w.Body.String())
		}
	}

	wantEpoch := primary.Catalog().Get("small").Snapshot().Epoch
	deadline := time.Now().Add(10 * time.Second)
	for rep.Catalog().Get("small").Snapshot().Epoch < wantEpoch {
		_ = f.Sync("small") // failures surface as lag and breaker state
		if time.Now().After(deadline) {
			_, _, lag, _ := f.MaxLag()
			t.Fatalf("follower stuck at epoch %d, want %d: %+v",
				rep.Catalog().Get("small").Snapshot().Epoch, wantEpoch, lag)
		}
		time.Sleep(2 * time.Millisecond)
	}

	if got := inj.Counts()["replica.stream"].Errors; got != faults {
		t.Fatalf("injected %d stream faults, want %d", got, faults)
	}
	ds, shard, lag, ok := f.MaxLag()
	if !ok || ds != "small" || shard != 0 {
		t.Fatalf("lag row: %q shard %d (ok %v)", ds, shard, ok)
	}
	if lag.SyncErrors != faults {
		t.Fatalf("syncErrors %d, want %d", lag.SyncErrors, faults)
	}
	if lag.Breaker == nil || lag.Breaker.State != "closed" || lag.Breaker.Opens == 0 {
		t.Fatalf("breaker after recovery: %+v", lag.Breaker)
	}
	want := primary.Catalog().Get("small").Doc().String()
	if got := rep.Catalog().Get("small").Doc().String(); got != want {
		t.Fatal("follower document diverged from primary after fault recovery")
	}
}
