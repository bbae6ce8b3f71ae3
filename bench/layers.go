package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"xmatch/internal/core"
	"xmatch/internal/dataset"
	"xmatch/internal/delta"
	"xmatch/internal/index"
	"xmatch/internal/mapgen"
	"xmatch/internal/mapping"
	"xmatch/internal/store"
	"xmatch/internal/twig"
	"xmatch/internal/xmltree"
)

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// probe times fn between two reference slices and returns its duration at
// nominal speed.
func probe(ref *refKernel, fn func()) time.Duration {
	before := ref.run(setupSliceUnits / 2)
	start := time.Now()
	fn()
	d := time.Since(start)
	after := ref.run(setupSliceUnits / 2)
	return scale(d, ref.speed(setupSliceUnits, before+after))
}

// handlerStats is what a stretch of the traced run's handler pass
// measured; durations are at nominal speed.
type handlerStats struct {
	queries, mutations     int
	queryLat, mutateLat    time.Duration // latency sums
	tracedLat, untracedLat time.Duration // query latency sums of the two kinds of chunk
	tracedN, untracedN     int
	respBytes              int
	refUnits               int
	refTime                time.Duration
}

func (a *handlerStats) add(b handlerStats) {
	a.queries += b.queries
	a.mutations += b.mutations
	a.queryLat += b.queryLat
	a.mutateLat += b.mutateLat
	a.tracedLat += b.tracedLat
	a.untracedLat += b.untracedLat
	a.tracedN += b.tracedN
	a.untracedN += b.untracedN
	a.respBytes += b.respBytes
	a.refUnits += b.refUnits
	a.refTime += b.refTime
}

// handlerPass serves ops through the real handler. Every other chunk
// records a span per request, the others record nothing; the difference in
// handler latency between the two kinds is the tracing overhead.
func handlerPass(in *instance, inp *inputs, ops []op, expect []digest, ref *refKernel, tr *tracer, req *int) handlerStats {
	var hs handlerStats
	var traced bool
	var lats, mlats []time.Duration
	hs.refUnits, hs.refTime = eachChunk(ops, inp.spec.chunkOps, ref, func(c int, chunk []op) {
		traced = c%2 == 1
		lats, mlats = lats[:0], mlats[:0]
		for _, o := range chunk {
			var sp int
			if traced {
				*req++
				sp = tr.begin("server.handler", *req, 0)
			}
			d := in.serveOp(inp, o)
			if traced {
				tr.end(sp)
			}
			in.checkOp(o, expect)
			if o.mutate {
				mlats = append(mlats, d)
			} else {
				lats = append(lats, d)
				hs.respBytes += in.w.d.n
			}
		}
	}, func(f float64) {
		tr.setSpeed(f)
		var sum time.Duration
		for _, d := range lats {
			sum += scale(d, f)
		}
		hs.queryLat += sum
		hs.queries += len(lats)
		if traced {
			hs.tracedLat += sum
			hs.tracedN += len(lats)
		} else {
			hs.untracedLat += sum
			hs.untracedN += len(lats)
		}
		for _, d := range mlats {
			hs.mutateLat += scale(d, f)
		}
		hs.mutations += len(mlats)
	})
	return hs
}

// handlerParts is the number of equal parts the handler pass is cut into
// for bench.round_iqr_pct.
const handlerParts = 6

// The traced run generates tracedRounds rounds' worth of ops: the handler
// pass serves the first handlerRounds of them, the staged pass the rest.
const (
	tracedRounds  = 3
	handlerRounds = 2
)

// layerRun carries the traced run's state between its passes.
type layerRun struct {
	cfg  runConfig
	ref  *refKernel
	cnt  *counts
	out  map[string]metricValue
	diag map[string]float64
}

func (lr *layerRun) set(name, unit string, v float64) {
	lr.out[name] = metricValue{Value: v, Unit: unit, RawMedian: v, Q1: v, Q3: v, N: 1}
}

// runTraced is the traced run: a handler pass for the request-level
// figures and counters, a staged pass for the spans, a write-path pass on
// a collection with an edit log, standalone probes of the set-up and
// storage layers, and the wire pass against the real binary. Timings are
// at nominal machine speed.
func runTraced(cfg runConfig) (res *result, err error) {
	lr := &layerRun{cfg: cfg, ref: newRefKernel(cfg.spec.ref), cnt: &counts{}, out: make(map[string]metricValue), diag: make(map[string]float64)}
	lr.ref.run(setupSliceUnits)
	spec := cfg.spec

	docs, err := lr.setupProbes()
	if err != nil {
		return nil, err
	}
	p, err := lr.prepareTimed(docs)
	if err != nil {
		return nil, err
	}
	docs = nil
	inp := p.inp

	dir := ""
	if spec.mutateEvery > 0 {
		if dir, err = newRunDir(); err != nil {
			return nil, err
		}
	}
	in, err := build(spec, cfg.seed, dir, lr.cnt)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := in.close(); err == nil {
			err = cerr
		}
	}()
	warm(in, p)
	expect := p.expect
	if spec.mutateEvery > 0 {
		expect = nil
	}

	// Handler pass: two rounds' worth of ops, in handlerParts parts.
	tr := newTracer()
	hOps := inp.ops[:handlerRounds*inp.perRound]
	ds := in.srv.Catalog().Get(datasetName)
	ctr0, cache0 := index.GlobalCounters(), ds.Engine.CacheStats()
	var hs handlerStats
	var partMeans []float64
	req := 0
	for i := 0; i < handlerParts; i++ {
		lo, hi := i*len(hOps)/handlerParts, (i+1)*len(hOps)/handlerParts
		part := handlerPass(in, inp, hOps[lo:hi], expect, lr.ref, tr, &req)
		if part.queries > 0 {
			partMeans = append(partMeans, us(part.queryLat)/float64(part.queries))
		}
		hs.add(part)
	}
	ctr := index.GlobalCounters().Sub(ctr0)
	cache1 := ds.Engine.CacheStats()
	handlerUs := us(hs.queryLat) / float64(hs.queries)
	lr.set("server.handler_us", "us", handlerUs)
	lr.set("server.resp_bytes_per_op", "B", float64(hs.respBytes)/float64(hs.queries))
	lr.set("bench.round_iqr_pct", "%", spreadPct(partMeans))
	var overhead float64
	if hs.tracedN > 0 && hs.untracedN > 0 { // a smoke pass may be one chunk long
		traced, untraced := us(hs.tracedLat)/float64(hs.tracedN), us(hs.untracedLat)/float64(hs.untracedN)
		overhead = 100 * (traced - untraced) / untraced
	}
	lr.set("bench.trace_overhead_pct", "%", overhead)
	speed := lr.ref.speed(hs.refUnits, hs.refTime)
	lr.set("bench.machine_speed", "ratio", speed)
	lr.set("bench.ref_per_s", "1/s", speed*RefNominalPerS)
	lr.set("index.memo_hit_ratio", "ratio", ratio(ctr.MemoHits, ctr.Evals))
	lr.set("index.postings_decoded_per_op", "count", float64(ctr.DecodedPostings)/float64(len(hOps)))
	lr.set("engine.prepare_hit_ratio", "ratio", ratio(cache1.Hits-cache0.Hits, cache1.Hits-cache0.Hits+cache1.Misses-cache0.Misses))

	// Staged pass: the next round's worth of ops, stage by stage.
	sOps := inp.ops[handlerRounds*inp.perRound:]
	st := newStager(in, tr)
	st.req = req
	if err := stagedPass(st, inp, sOps, expect, lr.ref); err != nil {
		return nil, err
	}
	if spec.mutateEvery > 0 {
		// The edits were applied for real: the served state must still be
		// what sequential core computes over the final snapshots.
		if err := verifyFinal(in, inp.requests, shardEpochs(inp)); err != nil {
			return nil, err
		}
	}
	agg := aggregate(tr.spans)
	lr.stagedMetrics(agg, st, handlerUs)

	if err := lr.batchProbe(in, inp); err != nil {
		return nil, err
	}
	if err := lr.matchProbes(in, inp); err != nil {
		return nil, err
	}
	if err := lr.storeProbes(in); err != nil {
		return nil, err
	}

	// Write path: the workload's own mutations when it has them, else a
	// short pass of the same kind on a second instance with an edit log.
	wagg, wst, whs := agg, st, hs
	if spec.mutateEvery == 0 {
		if wagg, wst, whs, err = lr.writePass(); err != nil {
			return nil, err
		}
	}
	lr.writeMetrics(wagg, wst, whs)

	if err := lr.wirePass(); err != nil {
		return nil, err
	}
	if err := writeTrace(spec.name, tr.spans, req); err != nil {
		return nil, err
	}

	res = newResult(cfg, true)
	res.Rounds, res.OpsPerRound = tracedRounds, inp.perRound
	res.MachineSpeed = lr.out["bench.machine_speed"].Value
	res.Metrics, res.Diagnostics = lr.out, lr.diag
	res.Shares = shares(agg, hs)
	for name, v := range res.Shares {
		lr.set("share."+name+"_pct", "%", v)
	}
	res.setCounts(lr.cnt)
	return res, nil
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// mean is a span name's mean duration in µs, at nominal speed.
func mean(agg map[string]*layerTotals, name string) float64 {
	lt := agg[name]
	if lt == nil || lt.count == 0 {
		return 0
	}
	return us(lt.total) / float64(lt.count)
}

// perQuery is a span name's total duration per staged query, in µs.
func perQuery(agg map[string]*layerTotals, name string, queries int) float64 {
	lt := agg[name]
	if lt == nil || queries == 0 {
		return 0
	}
	return us(lt.total) / float64(queries)
}

// queryStages are the spans of a staged query that stand for work the
// handler does on every request.
var queryStages = []string{"server.decode", "engine.prepare", "engine.evaluate", "core.to_wire", "core.aggregate", "engine.fingerprint", "server.encode"}

// stagedMetrics derives the per-layer metrics the staged pass's spans give.
func (lr *layerRun) stagedMetrics(agg map[string]*layerTotals, st *stager, handlerUs float64) {
	q := st.queries
	lr.set("server.decode_us", "us", mean(agg, "server.decode"))
	lr.set("server.encode_us", "us", mean(agg, "server.encode"))
	lr.set("server.digest_us", "us", mean(agg, "server.digest"))
	lr.set("engine.prepare_hit_us", "us", mean(agg, "engine.prepare"))
	lr.set("engine.evaluate_us", "us", mean(agg, "engine.evaluate"))
	lr.set("engine.shard_evaluate_us", "us", perQuery(agg, "engine.shard_evaluate", q))
	// What evaluate spends outside every shard's evaluation: its self time
	// (scatter set-up, the gather and the merge).
	var scatter float64
	if lt := agg["engine.evaluate"]; lt != nil && lt.count > 0 {
		scatter = us(lt.self) / float64(lt.count)
	}
	lr.set("engine.scatter_overhead_us", "us", scatter)
	lr.set("engine.fingerprint_us", "us", mean(agg, "engine.fingerprint"))
	lr.set("core.to_wire_us", "us", mean(agg, "core.to_wire"))
	lr.set("core.aggregate_us", "us", mean(agg, "core.aggregate"))
	lr.set("core.results_per_op", "count", float64(st.results)/float64(q))
	var staged float64
	for _, name := range queryStages {
		staged += perQuery(agg, name, q)
	}
	lr.diag["staged_query_us"] = staged
	lr.set("server.unattributed_us", "us", handlerUs-staged)
}

// shares is the self-time share of each layer group in the handler time of
// the workload's ops, in percent. The staged spans give the parts; what
// the handler spends beyond them (admission, tracing, accounting) is the
// server's, with decode and encode.
func shares(agg map[string]*layerTotals, hs handlerStats) map[string]float64 {
	self := func(name string) float64 {
		if lt := agg[name]; lt != nil {
			return us(lt.self)
		}
		return 0
	}
	reqs := 0
	if lt := agg["request"]; lt != nil {
		reqs = lt.count
	}
	if reqs == 0 {
		return nil
	}
	// Per staged request, µs.
	evaluate := self("engine.shard_evaluate") / float64(reqs)
	scatter := self("engine.evaluate") / float64(reqs)
	wire := (self("core.to_wire") + self("core.aggregate")) / float64(reqs)
	prep := (self("engine.prepare") + self("engine.fingerprint")) / float64(reqs)
	write := (self("delta.apply") + self("store.editlog_append")) / float64(reqs)
	srv := (self("server.decode") + self("server.encode") + self("server.mutate_decode") + self("server.mutate_encode")) / float64(reqs)
	// The handler's mean time per op of the same mix, mutations included,
	// beyond what the stages account for.
	perOp := (us(hs.queryLat) + us(hs.mutateLat)) / float64(hs.queries+hs.mutations)
	srv += max(0, perOp-evaluate-scatter-wire-prep-write-srv)
	total := evaluate + scatter + wire + prep + write + srv
	pct := func(v float64) float64 { return 100 * v / total }
	return map[string]float64{
		"server":        pct(srv),
		"evaluate":      pct(evaluate),
		"scatter_merge": pct(scatter),
		"wire_build":    pct(wire),
		"prepare":       pct(prep),
		"write_path":    pct(write),
	}
}

// setupProbes times the layers a start-up goes through, one call each,
// and returns the pristine member documents it generated.
func (lr *layerRun) setupProbes() ([]*xmltree.Document, error) {
	spec, seed := lr.cfg.spec, lr.cfg.seed
	var d *dataset.Dataset
	var err error
	lr.set("dataset.load_ms", "ms", ms(probe(lr.ref, func() { d, err = dataset.Load(datasetName) })))
	if err != nil {
		return nil, err
	}
	var docs []*xmltree.Document
	lr.set("dataset.order_corpus_ms", "ms", ms(probe(lr.ref, func() {
		if spec.shards > 1 {
			docs = d.OrderCorpus(spec.shards, spec.docNodes, docSeed(seed))
		} else {
			docs = []*xmltree.Document{d.OrderDocument(spec.docNodes, docSeed(seed))}
		}
	})))
	var set *mapping.Set
	lr.set("mapgen.generate_ms", "ms", ms(probe(lr.ref, func() { set, err = mapgen.TopH(d.Matching, numMappings, mapgen.Partition) })))
	if err != nil {
		return nil, err
	}
	lr.set("core.build_blocktree_ms", "ms", ms(probe(lr.ref, func() { _, err = core.Build(set, core.Options{Tau: 0.2}) })))
	if err != nil {
		return nil, err
	}
	lr.set("index.build_ms", "ms", ms(probe(lr.ref, func() {
		for _, doc := range docs {
			index.Build(doc)
		}
	})))
	return docs, nil
}

// prepareTimed is prepare over already generated documents, timing the
// parser, the query preparation and the oracle's sequential evaluation on
// the way.
func (lr *layerRun) prepareTimed(docs []*xmltree.Document) (*prepared, error) {
	p, orc, err := prepareFrom(lr.cfg, tracedRounds, docs)
	if err != nil {
		return nil, err
	}
	inp := p.inp
	const reps = 20
	n := float64(reps * len(inp.requests))
	lr.set("twig.parse_us", "us", us(probe(lr.ref, func() {
		for i := 0; i < reps; i++ {
			for _, r := range inp.requests {
				_, err = twig.Parse(r.pattern)
			}
		}
	}))/n)
	if err != nil {
		return nil, err
	}
	lr.set("core.prepare_query_us", "us", us(probe(lr.ref, func() {
		for i := 0; i < reps; i++ {
			for _, r := range inp.requests {
				_, err = core.PrepareQuery(r.pattern, orc.set)
			}
		}
	}))/n)
	if err != nil {
		return nil, err
	}
	const evalReps = 3
	lr.set("core.evaluate_seq_us", "us", us(probe(lr.ref, func() {
		for i := 0; i < evalReps; i++ {
			for _, r := range inp.requests {
				_, _, err = orc.evaluate(r)
			}
		}
	}))/float64(evalReps*len(inp.requests)))
	if err != nil {
		return nil, err
	}
	return p, nil
}

// batchProbe times one /v1/batch of the whole request cycle.
func (lr *layerRun) batchProbe(in *instance, inp *inputs) error {
	body, err := batchBody(inp.requests)
	if err != nil {
		return err
	}
	const reps = 20
	var failed bool
	d := probe(lr.ref, func() {
		for i := 0; i < reps; i++ {
			in.serve(in.batchReq, body)
			if !in.check(nil) {
				failed = true
			}
		}
	})
	if failed {
		return fmt.Errorf("batch probe: /v1/batch answered %d", in.w.code)
	}
	lr.set("server.batch_handler_us_per_query", "us", us(d)/float64(reps*len(inp.requests)))
	return nil
}

// matchProbes time the index matcher alone on shard 0: the first request's
// pattern bound through the first mapping under which it has matches.
func (lr *layerRun) matchProbes(in *instance, inp *inputs) error {
	ds := in.srv.Catalog().Get(datasetName)
	snap := ds.Snapshots()[0]
	q, err := core.PrepareQuery(inp.requests[0].pattern, ds.Set)
	if err != nil {
		return err
	}
	emb := q.Embeddings[0]
	var binding twig.PathBinding
	for _, mi := range core.FilterMappings(ds.Set, emb) {
		if len(core.EvaluateBasicMapping(q, emb, mi, ds.Set, snap.Doc)) == 0 {
			continue
		}
		binding = make(twig.PathBinding)
		for _, qn := range q.Pattern.Nodes() {
			src, _ := ds.Set.Mappings[mi].SourceFor(emb[qn.Index])
			binding[qn] = ds.Set.Source.ByID(src).Path
		}
		break
	}
	if binding == nil {
		return fmt.Errorf("match probe: %s has no matches on shard 0", inp.requests[0].twig)
	}
	const reps = 200
	ix := snap.Index
	var purge time.Duration
	cold := probe(lr.ref, func() {
		for i := 0; i < reps; i++ {
			start := time.Now()
			ix.PurgeMemo()
			purge += time.Since(start)
			ix.MatchTwig(snap.Doc, q.Pattern.Root, binding)
		}
	})
	hot := probe(lr.ref, func() {
		for i := 0; i < reps; i++ {
			ix.MatchTwig(snap.Doc, q.Pattern.Root, binding)
		}
	})
	lr.set("index.match_cold_us", "us", us(cold-purge)/reps)
	lr.set("index.match_hot_us", "us", us(hot)/reps)
	var resident int
	for _, sn := range ds.Snapshots() {
		resident += sn.Index.Stats().ResidentBytes
	}
	lr.set("index.resident_kb", "KB", float64(resident)/1024)
	return nil
}

// storeProbes time the storage layer on shard 0's current state: a
// checkpoint save and load, and what an fsync adds to an edit-log append on
// this device (a diagnostic: the timed paths run with fsync off).
func (lr *layerRun) storeProbes(in *instance) error {
	dir, err := newRunDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	snap := in.srv.Catalog().Get(datasetName).Snapshots()[0]
	path := filepath.Join(dir, "probe.ckpt")
	lr.set("store.checkpoint_save_ms", "ms", ms(probe(lr.ref, func() {
		err = store.SaveCheckpointFile(path, snap.Doc, snap.Index, snap.Epoch)
	})))
	if err != nil {
		return fmt.Errorf("checkpoint probe: %w", err)
	}
	lr.set("store.checkpoint_load_ms", "ms", ms(probe(lr.ref, func() {
		_, err = store.LoadCheckpointFile(path)
	})))
	if err != nil {
		return fmt.Errorf("checkpoint probe: %w", err)
	}
	edit := delta.Edit{Op: delta.OpSetText, Path: "Order", Text: "probe"}
	const reps = 20
	appendAll := func(file string, sync bool) time.Duration {
		return probe(lr.ref, func() {
			for i := 1; i <= reps && err == nil; i++ {
				err = store.AppendEditRecordFile(filepath.Join(dir, file), store.EditRecord{Epoch: uint64(i), Edits: []delta.Edit{edit}}, sync)
			}
		})
	}
	plain := appendAll("plain.editlog", false)
	synced := appendAll("synced.editlog", true)
	if err != nil {
		return fmt.Errorf("edit-log probe: %w", err)
	}
	lr.set("store.editlog_fsync_us", "us", max(0, us(synced-plain)/reps))
	return nil
}

// writePass builds a second instance of the workload's collection with an
// edit log and runs a short mutating pass on it — through the handler,
// then staged — for the write-path metrics of a read-only workload.
func (lr *layerRun) writePass() (agg map[string]*layerTotals, st *stager, hs handlerStats, err error) {
	spec := lr.cfg.spec
	spec.mutateEvery = 5
	spec.opsPerRound = spec.chunkOps * 40 // 0.2 s of work at nominal speed
	docs, err := pristineDocs(spec, lr.cfg.seed)
	if err != nil {
		return nil, nil, hs, err
	}
	inp, err := generate(spec, lr.cfg.seed, refSeconds, 2, docs)
	if err != nil {
		return nil, nil, hs, err
	}
	docs = nil
	dir, err := newRunDir()
	if err != nil {
		return nil, nil, hs, err
	}
	in, err := build(spec, lr.cfg.seed, dir, lr.cnt)
	if err != nil {
		return nil, nil, hs, err
	}
	defer func() {
		if cerr := in.close(); err == nil {
			err = cerr
		}
	}()
	tr := newTracer()
	req := 0
	hs = handlerPass(in, inp, inp.ops[:inp.perRound], nil, lr.ref, tr, &req)
	st = newStager(in, tr)
	st.req = req
	if err := stagedPass(st, inp, inp.ops[inp.perRound:], nil, lr.ref); err != nil {
		return nil, nil, hs, err
	}
	if err := verifyFinal(in, inp.requests, shardEpochs(inp)); err != nil {
		return nil, nil, hs, err
	}
	return aggregate(tr.spans), st, hs, nil
}

// writeMetrics derives the write-path metrics from a mutating pass.
func (lr *layerRun) writeMetrics(agg map[string]*layerTotals, st *stager, hs handlerStats) {
	lr.set("server.mutate_handler_us", "us", us(hs.mutateLat)/float64(max(1, hs.mutations)))
	lr.set("delta.apply_us", "us", mean(agg, "delta.apply"))
	lr.set("delta.overlay_depth_max", "count", float64(st.overlayMax))
	lr.set("store.editlog_append_us", "us", mean(agg, "store.editlog_append"))
	lr.set("store.editlog_bytes_per_edit", "B", st.logBytesPerEdit())
}
