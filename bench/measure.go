package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// Op chunks of a fixed op count (about 5 ms of work at nominal speed, see
// workloadSpec.chunkOps) alternate with reference slices of sliceUnits
// units of the workload's mix (1.3 to 1.6 ms), so the machine's speed is
// sampled right beside the work it is used to correct. Both are counted,
// not timed, so the interleaving is the same on every run.
const sliceUnits = 1

// usage is a reading of the process's resource counters.
type usage struct {
	cpu   time.Duration // user + system CPU of the whole process
	alloc uint64        // bytes allocated on the heap since start
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	metrics.Read(allocSample)
	return usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: allocSample[0].Value.Uint64(),
	}
}

// round is what one round of a fixed op count measured. The corrected
// figures scale every chunk by its own speed factor, taken from the
// reference slices on both sides of it; the raw ones are as the clock read.
type round struct {
	ops, queries    int
	opTime, opTimeC time.Duration // wall time of the op chunks, raw and corrected
	cpu, cpuC       time.Duration // process CPU over the op chunks
	alloc           uint64        // bytes allocated over the op chunks
	speed           float64       // the round's overall speed factor, for the report
	// Handler latency percentiles of the round's queries, raw and
	// corrected, and the corrected median of its mutations (0 when it has
	// none). An error means the round has too few samples for that
	// percentile. The p99 is a diagnostic: see tailQuantile.
	p50, p50C, tail, tailC, p99C time.Duration
	p50Err, tailErr              error
	mutateP50C                   time.Duration
}

// tailQuantile is the tail percentile the benchmark reports and bounds,
// query_p95_ms. The p99 has the ten samples beyond it in every round, but
// on a shared host those samples are the host's: a vCPU descheduled for a
// millisecond or two lands on some request, and no speed factor takes it
// out again. Between ten runs of one commit the p99 of the corpus workloads
// spread by 15 to 42%, their p95 by 1 to 5% — the p95 still sits on the
// slowest kind of request of every cycle. The p99 is printed beside it.
const tailQuantile = 0.95

// addChunk accounts one op chunk that ran at speed factor f.
func (r *round) addChunk(elapsed, cpu time.Duration, alloc uint64, f float64) {
	r.opTime += elapsed
	r.opTimeC += scale(elapsed, f)
	r.cpu += cpu
	r.cpuC += scale(cpu, f)
	r.alloc += alloc
}

// eachChunk walks ops chunk by chunk with a reference slice on both sides
// of every chunk: serve handles chunk number c, then done receives the
// chunk's speed factor, taken from its two neighbouring slices. It returns
// the units and the time of all the slices, for the overall speed.
func eachChunk(ops []op, size int, ref *refKernel, serve func(c int, chunk []op), done func(f float64)) (units int, took time.Duration) {
	prev := ref.run(sliceUnits)
	units, took = sliceUnits, prev
	for i, c := 0, 0; i < len(ops); c++ {
		end := min(i+size, len(ops))
		serve(c, ops[i:end])
		i = end
		next := ref.run(sliceUnits)
		done(ref.speed(2*sliceUnits, prev+next))
		prev = next
		units += sliceUnits
		took += next
	}
	return units, took
}

// runRound serves ops in order, op chunks alternating with reference
// slices. Time spent in the reference kernel is counted in neither the op
// time nor the CPU and allocation deltas. expect is as for checkOp. lat is
// scratch space for the latencies, reused from round to round.
func runRound(in *instance, inp *inputs, ops []op, expect []digest, ref *refKernel, lat *latBuf) round {
	r := round{ops: len(ops)}
	lat.reset()
	var q0, m0 int // where the chunk's latencies start in lat
	var elapsed time.Duration
	var used usage
	refUnits, refTime := eachChunk(ops, inp.spec.chunkOps, ref, func(_ int, chunk []op) {
		q0, m0 = len(lat.query), len(lat.mutate)
		before := readUsage()
		start := time.Now()
		for _, o := range chunk {
			d := in.serveOp(inp, o)
			in.checkOp(o, expect)
			if o.mutate {
				lat.mutate = append(lat.mutate, d)
			} else {
				lat.query = append(lat.query, d)
			}
		}
		elapsed = time.Since(start)
		after := readUsage()
		used = usage{cpu: after.cpu - before.cpu, alloc: after.alloc - before.alloc}
	}, func(f float64) {
		r.addChunk(elapsed, used.cpu, used.alloc, f)
		for _, d := range lat.query[q0:] {
			lat.queryC = append(lat.queryC, scale(d, f))
		}
		for _, d := range lat.mutate[m0:] {
			lat.mutateC = append(lat.mutateC, scale(d, f))
		}
	})
	r.speed = ref.speed(refUnits, refTime)
	for _, s := range [][]time.Duration{lat.query, lat.queryC, lat.mutateC} {
		sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	}
	r.queries = len(lat.query)
	r.p50, r.p50Err = percentile(lat.query, 0.50)
	r.tail, r.tailErr = percentile(lat.query, tailQuantile)
	r.p50C, _ = percentile(lat.queryC, 0.50)
	r.tailC, _ = percentile(lat.queryC, tailQuantile)
	r.p99C, _ = percentile(lat.queryC, 0.99)
	if n := len(lat.mutateC); n > 0 {
		r.mutateP50C = lat.mutateC[(n-1)/2]
	}
	return r
}

// latBuf holds one round's handler latencies, raw and corrected.
type latBuf struct{ query, queryC, mutate, mutateC []time.Duration }

func newLatBuf(n int) *latBuf {
	return &latBuf{query: make([]time.Duration, 0, n), queryC: make([]time.Duration, 0, n)}
}

func (l *latBuf) reset() {
	l.query, l.queryC, l.mutate, l.mutateC = l.query[:0], l.queryC[:0], l.mutate[:0], l.mutateC[:0]
}

// liveHeapMB forces a collection and reads what is still reachable. Two
// cycles: the first moves sync.Pool contents to the victim cache, the
// second frees them, so pooled scratch buffers do not read as live data.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// series is one end-to-end metric's values across rounds (or builds), raw
// and corrected for machine speed.
type series struct {
	unit      string
	raw       []float64
	corrected []float64
}

func (s *series) add(raw, corrected float64) {
	s.raw = append(s.raw, raw)
	s.corrected = append(s.corrected, corrected)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// roundSeries folds the rounds into the per-round values of every
// end-to-end metric a round measures. Counts are not corrected. With
// strict off (the smoke configuration) a percentile the sample cannot
// support is left out.
func roundSeries(rounds []round, strict bool) (map[string]*series, error) {
	out := map[string]*series{
		"ops_per_s":       {unit: "1/s"},
		"query_p50_ms":    {unit: "ms"},
		"query_p95_ms":    {unit: "ms"},
		"cpu_ms_per_op":   {unit: "ms"},
		"alloc_kb_per_op": {unit: "KB"},
	}
	for i, r := range rounds {
		ops := float64(r.ops)
		out["ops_per_s"].add(ops/r.opTime.Seconds(), ops/r.opTimeC.Seconds())
		out["cpu_ms_per_op"].add(ms(r.cpu)/ops, ms(r.cpuC)/ops)
		kb := float64(r.alloc) / 1024 / ops
		out["alloc_kb_per_op"].add(kb, kb)
		for _, p := range []struct {
			name   string
			raw, c time.Duration
			err    error
		}{{"query_p50_ms", r.p50, r.p50C, r.p50Err}, {"query_p95_ms", r.tail, r.tailC, r.tailErr}} {
			switch {
			case p.err == nil:
				out[p.name].add(ms(p.raw), ms(p.c))
			case strict:
				return nil, fmt.Errorf("round %d: %s: %w", i, p.name, p.err)
			default:
				delete(out, p.name)
			}
		}
	}
	return out, nil
}
