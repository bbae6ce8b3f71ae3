package server_test

// Replication integration tests: a primary and a follower built through
// the real HTTP substrate (manifest fetch, edit-log streaming, checkpoint
// bootstrap), with the differential guarantee extended across machines —
// after every acknowledged mutation, the follower's replayed state is
// byte-identical to the primary's, proven by comparing checkpoint
// serializations, raw query wire bytes, and /statsz epochs. Run under
// -race in CI.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xmatch/internal/delta"
	"xmatch/internal/engine"
	"xmatch/internal/obs"
	"xmatch/internal/replica"
	"xmatch/internal/server"
	"xmatch/internal/store"
	"xmatch/internal/xmltree"
)

// repManifest is the replication fixture catalog: a sharded collection
// and a classic single-document dataset.
func repManifest() *store.Catalog {
	return &store.Catalog{Entries: []store.CatalogEntry{
		{Name: "orders", Dataset: "D7", Mappings: 12, DocNodes: 900, DocSeed: 7, Shards: 3},
		{Name: "small", Dataset: "D1", Mappings: 8, DocNodes: 300, DocSeed: 3},
	}}
}

// newPrimary starts a primary serving repManifest with the replication
// endpoints wired.
func newPrimary(t *testing.T) (*httptest.Server, *server.Server) {
	t.Helper()
	loader := func() (*server.Catalog, error) {
		return server.BuildCatalog(repManifest(), ".", engine.Options{Workers: 4})
	}
	srv, err := server.New(loader, server.Options{
		Manifest: func() (*store.Catalog, error) { return repManifest(), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv
}

// newReplica builds a follower of the given primary and serves it.
func newReplica(t *testing.T, primary string, sopts server.Options) (*httptest.Server, *server.Server, *replica.Follower) {
	t.Helper()
	srv, f, err := server.NewFollower(primary, server.FollowerOptions{
		Server: sopts,
		Engine: engine.Options{Workers: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv, f
}

// randomBatch derives a valid 1..3-edit batch from the shard's current
// document: text rewrites on distinct non-root nodes, optionally followed
// by one structural edit (insert anywhere, delete or rename of a leaf).
// Targets are addressed by Start, taken from the live snapshot, so every
// batch resolves.
func randomBatch(rng *rand.Rand, doc *xmltree.Document, round int) []delta.Edit {
	nodes := doc.Nodes()
	pick := func() *xmltree.Node { return nodes[rng.Intn(len(nodes))] }
	used := map[int]bool{}
	var edits []delta.Edit
	for i, n := 0, rng.Intn(2); i <= n; i++ {
		t := pick()
		if t == doc.Root || used[t.Start] {
			continue
		}
		used[t.Start] = true
		edits = append(edits, delta.Edit{Op: delta.OpSetText, Start: t.Start, Text: fmt.Sprintf("r%d.%d", round, i)})
	}
	switch rng.Intn(4) {
	case 0: // insert under any node
		edits = append(edits, delta.Edit{
			Op: delta.OpInsert, Start: pick().Start, Pos: -1,
			XML: fmt.Sprintf("<Extra><V>e%d</V></Extra>", round),
		})
	case 1: // delete a leaf (keeps the document from collapsing)
		for tries := 0; tries < 10; tries++ {
			if t := pick(); t != doc.Root && len(t.Children) == 0 {
				edits = append(edits, delta.Edit{Op: delta.OpDelete, Start: t.Start})
				break
			}
		}
	case 2: // rename a leaf
		for tries := 0; tries < 10; tries++ {
			if t := pick(); t != doc.Root && len(t.Children) == 0 {
				edits = append(edits, delta.Edit{Op: delta.OpRename, Start: t.Start, Label: fmt.Sprintf("Rn%d", round)})
				break
			}
		}
	}
	if len(edits) == 0 {
		edits = append(edits, delta.Edit{
			Op: delta.OpInsert, Start: doc.Root.Start, Pos: -1,
			XML: fmt.Sprintf("<Extra><V>f%d</V></Extra>", round),
		})
	}
	return edits
}

// stateBytes serializes one shard's live state as a checkpoint blob — the
// canonical byte-identity witness (two saves of equal state are equal).
func stateBytes(t *testing.T, sh *server.Shard) []byte {
	t.Helper()
	snap := sh.Live.Snapshot()
	var buf bytes.Buffer
	if err := store.SaveCheckpoint(&buf, snap.Doc, snap.Epoch); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertStateIdentical compares every shard of every dataset between the
// two servers by checkpoint bytes.
func assertStateIdentical(t *testing.T, label string, p, f *server.Server) {
	t.Helper()
	for _, name := range []string{"orders", "small"} {
		pd, fd := p.Catalog().Get(name), f.Catalog().Get(name)
		if pd == nil || fd == nil {
			t.Fatalf("%s: dataset %s missing", label, name)
		}
		if pd.NumShards() != fd.NumShards() {
			t.Fatalf("%s: %s shard counts differ: %d vs %d", label, name, pd.NumShards(), fd.NumShards())
		}
		for i := range pd.Shards() {
			pb := stateBytes(t, pd.Shards()[i])
			fb := stateBytes(t, fd.Shards()[i])
			if !bytes.Equal(pb, fb) {
				pe := pd.Shards()[i].Live.Snapshot().Epoch
				fe := fd.Shards()[i].Live.Snapshot().Epoch
				t.Fatalf("%s: %s/%d state diverged (primary epoch %d, follower epoch %d)", label, name, i, pe, fe)
			}
		}
	}
}

// shardEpochs extracts per-dataset shard epochs from a /statsz response,
// keyed "dataset/shard".
func shardEpochs(t *testing.T, url string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, m := range scrapeStatsz(t, url) {
		if m.Name == "xmatch_delta_epoch" {
			out[fmt.Sprint(m.Labels)] = m.Value
		}
	}
	return out
}

// TestReplicaReplayEquivalence is the replication acceptance matrix: ~50
// randomized mutation rounds across a sharded and an unsharded dataset
// with periodic checkpoint compactions, and after every round the
// follower must be byte-identical to the primary on all four shards (200
// shard-state trials), with raw wire bytes and /statsz epochs agreeing at
// sampled epochs; finally a fresh follower must reach the same state
// purely through checkpoint bootstrap plus stream replay.
// bootstraps sums the checkpoint bootstraps a follower's /metricsz
// reports for the two replicated datasets.
func bootstraps(t *testing.T, follower string) float64 {
	t.Helper()
	ms := scrapeMetrics(t, follower)
	var sum float64
	for _, name := range []string{"orders", "small"} {
		n, _ := metricSum(ms, "xmatch_replica_bootstraps_total", dsLabel(name))
		sum += n
	}
	return sum
}

func TestReplicaReplayEquivalence(t *testing.T) {
	pts, psrv := newPrimary(t)
	fts, fsrv, f := newReplica(t, pts.URL, server.Options{})
	assertStateIdentical(t, "initial", psrv, fsrv)

	rng := rand.New(rand.NewSource(11))
	type target struct {
		dataset string
		shards  int
	}
	targets := []target{{"orders", 3}, {"small", 1}}
	queries := map[string][]string{
		"orders": leafPatterns(t, psrv.Catalog().Get("orders"), 3)[:2],
		"small":  leafPatterns(t, psrv.Catalog().Get("small"), 3)[:2],
	}

	const rounds = 50
	for round := 0; round < rounds; round++ {
		tg := targets[round%len(targets)]
		shard := rng.Intn(tg.shards)
		doc := psrv.Catalog().Get(tg.dataset).Shards()[shard].Live.Snapshot().Doc
		resp, body := postJSON(t, pts.URL+"/v1/admin/mutate", server.MutateRequest{
			Dataset: tg.dataset, Shard: shard, Edits: randomBatch(rng, doc, round),
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: mutate %s/%d: %d %s", round, tg.dataset, shard, resp.StatusCode, body)
		}

		// Every 10th round the primary compacts BEFORE the follower has
		// synced the round's record, forcing the stale-follower path: 409
		// on stream, bootstrap from checkpoint.
		if round%10 == 9 {
			resp, body := postJSON(t, pts.URL+"/v1/admin/checkpoint", server.CheckpointRequest{Dataset: tg.dataset})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("round %d: checkpoint: %d %s", round, resp.StatusCode, body)
			}
			var cr server.CheckpointResponse
			if err := json.Unmarshal(body, &cr); err != nil {
				t.Fatal(err)
			}
			if len(cr.Shards) != tg.shards {
				t.Fatalf("round %d: checkpoint covered %d shards, want %d", round, len(cr.Shards), tg.shards)
			}
		}

		if err := f.SyncAll(); err != nil {
			t.Fatalf("round %d: sync: %v", round, err)
		}
		assertStateIdentical(t, fmt.Sprintf("round %d", round), psrv, fsrv)

		// Sampled rounds also compare the wire: identical query and batch
		// request bytes must produce identical response bytes, and /statsz
		// must agree on every shard epoch.
		if round%5 == 4 {
			for _, tg := range targets {
				for _, pattern := range queries[tg.dataset] {
					for _, mk := range []struct {
						mode string
						k    int
					}{{"basic", 0}, {"compact", 0}, {"topk", 3}} {
						req := server.QueryRequest{Dataset: tg.dataset, Pattern: pattern, Mode: mk.mode, K: mk.k}
						presp, praw := postJSON(t, pts.URL+"/v1/query", req)
						fresp, fraw := postJSON(t, fts.URL+"/v1/query", req)
						if presp.StatusCode != http.StatusOK || fresp.StatusCode != http.StatusOK {
							t.Fatalf("round %d: %s %q %s: statuses %d/%d", round, tg.dataset, pattern, mk.mode, presp.StatusCode, fresp.StatusCode)
						}
						if !bytes.Equal(praw, fraw) {
							t.Fatalf("round %d: %s %q %s/%d: wire bytes diverged:\nprimary  %s\nfollower %s",
								round, tg.dataset, pattern, mk.mode, mk.k, praw, fraw)
						}
					}
				}
				breq := server.BatchRequest{Dataset: tg.dataset}
				for _, pattern := range queries[tg.dataset] {
					breq.Queries = append(breq.Queries, server.BatchQuery{Pattern: pattern}, server.BatchQuery{Pattern: pattern, K: 2})
				}
				presp, praw := postJSON(t, pts.URL+"/v1/batch", breq)
				fresp, fraw := postJSON(t, fts.URL+"/v1/batch", breq)
				if presp.StatusCode != http.StatusOK || fresp.StatusCode != http.StatusOK {
					t.Fatalf("round %d: %s batch statuses %d/%d", round, tg.dataset, presp.StatusCode, fresp.StatusCode)
				}
				if !bytes.Equal(praw, fraw) {
					t.Fatalf("round %d: %s batch wire bytes diverged", round, tg.dataset)
				}
			}
			pe, fe := shardEpochs(t, pts.URL), shardEpochs(t, fts.URL)
			if len(pe) != 4 || len(fe) != len(pe) {
				t.Fatalf("round %d: /statsz epochs for %d primary and %d follower shards, want 4", round, len(pe), len(fe))
			}
			for shard, e := range pe {
				if f, ok := fe[shard]; !ok || f != e {
					t.Fatalf("round %d: /statsz epoch %s: primary %v, follower %v", round, shard, e, f)
				}
			}
		}
	}

	// The forced compactions must actually have exercised the bootstrap
	// path, not just the streaming path.
	if bootstraps(t, fts.URL) == 0 {
		t.Fatal("no checkpoint bootstraps happened; the 409 path went unexercised")
	}

	// A fresh follower starts from the pristine manifest build, discovers
	// its history is compacted away, bootstraps from checkpoints, and
	// lands byte-identical too.
	f2ts, f2srv, _ := newReplica(t, pts.URL, server.Options{})
	assertStateIdentical(t, "fresh follower", psrv, f2srv)
	if bootstraps(t, f2ts.URL) == 0 {
		t.Fatal("fresh follower never bootstrapped despite compacted history")
	}
}

// TestMinEpochReadYourWrites: a write's epoch token handed to a follower
// query must come back with at-or-after state (the min_epoch wait nudges
// a sync), and an unreachable epoch must answer 412 within the bound.
func TestMinEpochReadYourWrites(t *testing.T) {
	pts, psrv := newPrimary(t)
	fts, _, _ := newReplica(t, pts.URL, server.Options{MinEpochWait: 300 * time.Millisecond})

	pattern := leafPatterns(t, psrv.Catalog().Get("small"), 2)[0]
	var epoch uint64
	for i := 0; i < 3; i++ {
		doc := psrv.Catalog().Get("small").Shards()[0].Live.Snapshot().Doc
		resp, body := postJSON(t, pts.URL+"/v1/admin/mutate", server.MutateRequest{
			Dataset: "small",
			Edits:   []delta.Edit{{Op: delta.OpInsert, Start: doc.Root.Start, Pos: -1, XML: fmt.Sprintf("<W>%d</W>", i)}},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mutate: %d %s", resp.StatusCode, body)
		}
		var mr server.MutateResponse
		if err := json.Unmarshal(body, &mr); err != nil {
			t.Fatal(err)
		}
		epoch = mr.Epoch
	}

	// The follower has not synced (no Run loop in this test); min_epoch
	// must pull it level inline and answer with the token satisfied.
	resp, raw := postJSON(t, fts.URL+"/v1/query", server.QueryRequest{
		Dataset: "small", Pattern: pattern, MinEpoch: epoch,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read-your-writes query: %d %s", resp.StatusCode, raw)
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Epoch < epoch {
		t.Fatalf("follower answered at epoch %d, token demanded %d", qr.Epoch, epoch)
	}

	// An epoch the primary has never produced cannot be awaited: 412.
	start := time.Now()
	resp, raw = postJSON(t, fts.URL+"/v1/query", server.QueryRequest{
		Dataset: "small", Pattern: pattern, MinEpoch: epoch + 1000,
	})
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("unreachable min_epoch: %d %s", resp.StatusCode, raw)
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("412 took %v; the wait bound is not enforced", waited)
	}
	if !strings.Contains(string(raw), "epoch") {
		t.Fatalf("412 body does not explain the token: %s", raw)
	}
}

// TestFollowerReadOnly: every state-changing endpoint answers 403 on a
// follower, and /statsz reports the follower role with replication series
// for every shard.
func TestFollowerReadOnly(t *testing.T) {
	pts, _ := newPrimary(t)
	fts, _, _ := newReplica(t, pts.URL, server.Options{})

	for _, ep := range []struct {
		path string
		body any
	}{
		{"/v1/admin/mutate", server.MutateRequest{Dataset: "small", Edits: []delta.Edit{{Op: delta.OpSetText, Path: "x", Text: "y"}}}},
		{"/v1/admin/reload", struct{}{}},
		{"/v1/admin/checkpoint", server.CheckpointRequest{Dataset: "small"}},
	} {
		resp, raw := postJSON(t, fts.URL+ep.path, ep.body)
		if resp.StatusCode != http.StatusForbidden {
			t.Errorf("%s on follower: %d %s", ep.path, resp.StatusCode, raw)
		}
		if !strings.Contains(string(raw), "read-only replica") {
			t.Errorf("%s rejection does not name the posture: %s", ep.path, raw)
		}
	}

	ms := scrapeStatsz(t, fts.URL)
	if v, ok := metricValue(ms, "xmatch_role", obs.Label{Name: "role", Value: "follower"}, obs.Label{Name: "primary", Value: pts.URL}); !ok || v != 1 {
		t.Fatalf("follower statsz lacks xmatch_role{role=follower,primary=%s}", pts.URL)
	}
	shards := 0
	for _, m := range ms {
		if m.Name != "xmatch_delta_epoch" {
			continue
		}
		shards++
		for _, family := range []string{"xmatch_replica_log_checkpoint_epoch", "xmatch_replica_primary_epoch", "xmatch_replica_pending_bytes"} {
			if _, ok := metricValue(ms, family, m.Labels...); !ok {
				t.Fatalf("follower statsz %v lacks %s", m.Labels, family)
			}
		}
	}
	if shards != 4 {
		t.Fatalf("follower statsz epochs for %d shards, want 4", shards)
	}

	// The primary reports its own role.
	if v, ok := metricValue(scrapeStatsz(t, pts.URL), "xmatch_role", obs.Label{Name: "role", Value: "primary"}, obs.Label{Name: "primary", Value: ""}); !ok || v != 1 {
		t.Fatal("primary statsz lacks xmatch_role{role=primary,primary=\"\"}")
	}
}

// TestCheckpointDurableRestart: on a durable dataset, /v1/admin/checkpoint
// persists a checkpoint blob and truncates the log file; a restart
// (reload) rebuilds the shard from checkpoint + surviving records and
// further mutations land on the rebased log.
func TestCheckpointDurableRestart(t *testing.T) {
	dir := t.TempDir()
	man := &store.Catalog{Entries: []store.CatalogEntry{
		{Name: "durable", Dataset: "D1", Mappings: 8, DocNodes: 200, DocSeed: 3, EditLogPath: "durable.editlog"},
	}}
	loader := func() (*server.Catalog, error) {
		return server.BuildCatalog(man, dir, engine.Options{Workers: 2})
	}
	srv, err := server.New(loader, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	mutate := func(i int) {
		t.Helper()
		doc := srv.Catalog().Get("durable").Shards()[0].Live.Snapshot().Doc
		resp, body := postJSON(t, ts.URL+"/v1/admin/mutate", server.MutateRequest{
			Dataset: "durable",
			Edits:   []delta.Edit{{Op: delta.OpInsert, Start: doc.Root.Start, Pos: -1, XML: fmt.Sprintf("<C>%d</C>", i)}},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mutate %d: %d %s", i, resp.StatusCode, body)
		}
	}
	for i := 0; i < 3; i++ {
		mutate(i)
	}
	resp, body := postJSON(t, ts.URL+"/v1/admin/checkpoint", server.CheckpointRequest{Dataset: "durable"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", resp.StatusCode, body)
	}
	var cr server.CheckpointResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if len(cr.Shards) != 1 || cr.Shards[0].Epoch != 3 || !cr.Shards[0].Durable || cr.Shards[0].FreedBytes <= 0 {
		t.Fatalf("checkpoint response %+v", cr)
	}
	// The log file is reset to base 3; the checkpoint blob exists at 3.
	lg, err := store.LoadEditLogFile(dir + "/durable.editlog")
	if err != nil || lg.Base != 3 || len(lg.Records) != 0 {
		t.Fatalf("post-checkpoint log: %v, %+v", err, lg)
	}
	ck, err := store.LoadCheckpointFile(replica.CheckpointPath(dir + "/durable.editlog"))
	if err != nil || ck == nil || ck.Epoch != 3 {
		t.Fatalf("checkpoint blob: %v, %+v", err, ck)
	}

	// Two more mutations append above the checkpoint.
	mutate(3)
	mutate(4)
	want := srv.Catalog().Get("durable").Doc().String()

	if _, err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	after := srv.Catalog().Get("durable")
	if after.Snapshot().Epoch != 5 {
		t.Fatalf("epoch %d after restart, want 5", after.Snapshot().Epoch)
	}
	if after.Doc().String() != want {
		t.Fatal("restart state diverged from pre-restart state")
	}
	// And the restarted shard keeps appending at the right epoch.
	mutate(5)
	if got := after.Snapshot().Epoch; got != 6 {
		t.Fatalf("post-restart mutate epoch %d, want 6", got)
	}
}

// TestEditLogHandlesDoNotLeak counts the process's open files. A durable
// shard log holds one handle to its edit-log file: a reload retires the
// outgoing generation's log, closing it, across 50 reloads; a checkpoint
// rewrites the file and the next append reopens the new one and lands in
// it; and Server.Close closes the handle.
func TestEditLogHandlesDoNotLeak(t *testing.T) {
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd to count open files in")
	}
	openFiles := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(fds)
	}
	dir := t.TempDir()
	man := &store.Catalog{Entries: []store.CatalogEntry{
		{Name: "durable", Dataset: "D1", Mappings: 8, DocNodes: 200, DocSeed: 3, EditLogPath: "durable.editlog"},
	}}
	srv, err := server.New(func() (*server.Catalog, error) {
		return server.BuildCatalog(man, dir, engine.Options{Workers: 2})
	}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	serve := func(path string, body any) []byte {
		t.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := serveRecorded(context.Background(), srv, path, data)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	mutate := func(i int) {
		t.Helper()
		root := srv.Catalog().Get("durable").Shards()[0].Live.Snapshot().Doc.Root
		serve("/v1/admin/mutate", server.MutateRequest{Dataset: "durable",
			Edits: []delta.Edit{{Op: delta.OpSetText, Start: root.Start, Text: fmt.Sprint(i)}}})
	}

	mutate(0) // the log's handle is open from its first append on
	base := openFiles()
	for i := 1; i <= 50; i++ {
		if _, err := srv.Reload(); err != nil {
			t.Fatal(err)
		}
		mutate(i)
	}
	if n := openFiles(); n > base {
		t.Fatalf("%d open files after 50 reloads, %d before", n, base)
	}

	serve("/v1/admin/checkpoint", server.CheckpointRequest{Dataset: "durable"})
	mutate(51)
	path := filepath.Join(dir, "durable.editlog")
	lg, err := store.LoadEditLogFile(path)
	if err != nil || lg.Base != 51 || len(lg.Records) != 1 || lg.Records[0].Epoch != 52 {
		t.Fatalf("the append after the checkpoint: %v, %+v", err, lg)
	}
	if n := openFiles(); n > base {
		t.Fatalf("%d open files after a checkpoint, %d before", n, base)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if n := openFiles(); n >= base {
		t.Fatalf("%d open files after Close, %d with the log open", n, base)
	}
}
