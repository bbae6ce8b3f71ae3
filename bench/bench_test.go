package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"xmatch/internal/xmltree"
)

// TestMain runs the tests from the repository root, where the benchmark
// itself runs: BENCHMARK.json and bench/out are found relative to it.
func TestMain(m *testing.M) {
	root, err := repoRoot()
	if err == nil {
		err = os.Chdir(root)
	}
	if err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestPercentileRule(t *testing.T) {
	lat := make([]time.Duration, 1000)
	for i := range lat {
		lat[i] = time.Duration(i+1) * time.Microsecond
	}
	p99, err := percentile(lat, 0.99)
	if err != nil || p99 != 990*time.Microsecond {
		t.Fatalf("p99 of 1..1000 µs = %v, %v; want 990µs", p99, err)
	}
	p50, err := percentile(lat, 0.50)
	if err != nil || p50 != 500*time.Microsecond {
		t.Fatalf("p50 of 1..1000 µs = %v, %v; want 500µs", p50, err)
	}
	// 999 samples leave 9 beyond the p99: refused.
	if _, err := percentile(lat[:999], 0.99); err == nil {
		t.Fatal("p99 of 999 samples accepted with 9 samples beyond it")
	}
	if _, err := percentile(lat[:19], 0.50); err == nil {
		t.Fatal("p50 of 19 samples accepted with 9 samples beyond it")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples accepted")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4):
// the spread the benchmark reports about itself must be its driver's.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([4381, 3876, 4100, 4250, 3990, 4420, 4015, 4199, 4302, 3950], n=4)
	q1, q2, q3 := quartiles([]float64{4381, 3876, 4100, 4250, 3990, 4420, 4015, 4199, 4302, 3950})
	for _, c := range []struct{ got, want float64 }{{q1, 3980}, {q2, 4149.5}, {q3, 4321.75}} {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Fatalf("quartiles = %v %v %v, want 3980 4149.5 4321.75", q1, q2, q3)
		}
	}
}

// TestSpeedCorrection injects a 2x slowdown into half of the chunks of a
// synthetic round: the corrected figures must not move, the raw ones must.
func TestSpeedCorrection(t *testing.T) {
	ref := newRefKernel(refMix{encode: 3, hash: 4})
	sliceNominal := 2 * sliceUnits * ref.mix.nominal()
	synth := func(slowEvery int) round {
		var r round
		for c := 0; c < 100; c++ {
			slow := time.Duration(1)
			if slowEvery > 0 && c%slowEvery == 0 {
				slow = 2
			}
			// 5 ms of work and 3 ms of CPU at nominal speed; the chunk's
			// two neighbouring reference slices slow down with it.
			f := ref.speed(2*sliceUnits, slow*sliceNominal)
			r.addChunk(slow*5*time.Millisecond, slow*3*time.Millisecond, 1<<20, f)
			r.ops += 10
		}
		return r
	}
	quiet, noisy := synth(0), synth(2)
	if quiet.opTime == noisy.opTime || noisy.opTime != quiet.opTime*3/2 {
		t.Fatalf("raw op time: quiet %v, noisy %v; want noisy = 1.5x quiet", quiet.opTime, noisy.opTime)
	}
	near := func(a, b time.Duration) bool { return a-b < time.Microsecond && b-a < time.Microsecond }
	if !near(quiet.opTimeC, noisy.opTimeC) || !near(quiet.opTimeC, 500*time.Millisecond) {
		t.Fatalf("corrected op time: quiet %v, noisy %v; want both 500ms", quiet.opTimeC, noisy.opTimeC)
	}
	if !near(quiet.cpuC, noisy.cpuC) || quiet.alloc != noisy.alloc {
		t.Fatalf("corrected CPU %v vs %v, alloc %d vs %d", quiet.cpuC, noisy.cpuC, quiet.alloc, noisy.alloc)
	}
	if f := ref.speed(2*sliceUnits, 2*sliceNominal); math.Abs(f-0.5) > 1e-9 {
		t.Fatalf("speed factor of a slice taking twice the nominal time = %v, want 0.5", f)
	}
	// The nominal time of a unit is the sum of its parts' nominal times.
	encode, hash := RefNominalPerS, RefHashNominalPerS // variables: the sum is not a whole number of ns
	want := time.Duration((3/encode + 4/hash) * float64(time.Second))
	if got := ref.mix.nominal(); got != want {
		t.Fatalf("nominal time of 3 encode iterations and 4 hash passes = %v, want %v", got, want)
	}
	if got := scale(10*time.Millisecond, 0.5); got != 5*time.Millisecond {
		t.Fatalf("10ms at half speed corrects to %v, want 5ms", got)
	}
}

// TestFitEncodeShare builds blocks of a program that spends 70% of its time
// as encode does: a slow episode stretches encode 1.4x and hash not at all,
// a stolen core stretches everything 1.3x. The fit must find the 70%.
func TestFitEncodeShare(t *testing.T) {
	var blocks []calibObs
	for i := 0; i < 40; i++ {
		k, h := 1.0, 1.0
		switch {
		case i%4 == 1:
			k = 1.4
		case i%4 == 2:
			k, h = 1.3, 1.3
		}
		blocks = append(blocks, calibObs{encode: 600 * k, hash: 550 * h, chunk: 5000 * (0.7*k + 0.3*h)})
	}
	fit, err := fitEncodeShare(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.share-0.7) > 1e-9 || fit.slow != 20 || math.Abs(fit.biasFitted-1) > 1e-9 || fit.biasEncodeOnly > 0.97 {
		t.Fatalf("fit %+v, want share 0.7 over 20 slow blocks with no bias left", fit)
	}
	if _, err := fitEncodeShare(blocks[:4]); err == nil {
		t.Fatal("four blocks accepted")
	}
	if got := encodeShare(refMix{encode: 3, hash: 4}); math.Abs(got-0.617) > 0.001 {
		t.Fatalf("encode share of the corpus_rw mix = %v, want 0.617", got)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, spec := range workloads {
		docs := mustDocs(t, spec, 7)
		a, err := generate(spec, 7, 1, 3, docs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(spec, 7, 1, 3, docs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.ops, b.ops) || !reflect.DeepEqual(a.requests, b.requests) || !reflect.DeepEqual(a.mutations, b.mutations) {
			t.Fatalf("%s: the same seed generated different inputs", spec.name)
		}
		c, err := generate(spec, 8, 1, 3, mustDocs(t, spec, 8))
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.ops, c.ops) {
			t.Fatalf("%s: seeds 7 and 8 generated the same op order", spec.name)
		}
		if spec.mutateEvery > 0 && reflect.DeepEqual(a.mutations, c.mutations) {
			t.Fatalf("%s: seeds 7 and 8 generated the same edits", spec.name)
		}
		// Every round carries the same mix: whole cycles, whole periods.
		counts := func(ops []op) map[op]int {
			m := make(map[op]int)
			for _, o := range ops {
				if o.mutate {
					o.idx = 0
				}
				m[o]++
			}
			return m
		}
		first := counts(a.ops[:a.perRound])
		for r := 1; r < 3; r++ {
			if got := counts(a.ops[r*a.perRound : (r+1)*a.perRound]); !reflect.DeepEqual(got, first) {
				t.Fatalf("%s: round %d mix %v differs from round 0 mix %v", spec.name, r, got, first)
			}
		}
	}
}

func mustDocs(t *testing.T, spec workloadSpec, seed int64) []*xmltree.Document {
	t.Helper()
	if spec.mutateEvery == 0 {
		return nil
	}
	small := spec
	small.docNodes = 8000 // edits need targets, not the full corpus
	docs, err := pristineDocs(small, seed)
	if err != nil {
		t.Fatal(err)
	}
	return docs
}

// TestRefKernelChecksum pins the reference kernel: its output defines the
// unit of every corrected metric, so a change here rebases every number
// the benchmark has reported.
func TestRefKernelChecksum(t *testing.T) {
	const want uint64 = 15699568806011952172
	k := newRefKernel(refMix{encode: 3, hash: 2})
	if got := k.checksum(); got != want {
		t.Fatalf("reference kernel checksum = %d, want %d: the kernel or its input changed", got, want)
	}
	k.run(2) // whole units leave the output as one iteration does
	if got := k.checksum(); got != want {
		t.Fatalf("reference kernel is not repeatable: second checksum %d", got)
	}
	if RefNominalPerS != 3000 || RefHashNominalPerS != 6450 {
		t.Fatalf("nominal rates %v and %v, frozen at 3000 and 6450", RefNominalPerS, RefHashNominalPerS)
	}
	mixes := map[string]refMix{"t3_compact": {3, 2}, "t3_topk": {4, 0}, "corpus_point": {4, 0}, "corpus_rw": {3, 4}}
	for _, w := range workloads {
		if w.ref != mixes[w.name] {
			t.Fatalf("%s: reference mix %+v, frozen at %+v", w.name, w.ref, mixes[w.name])
		}
	}
}

func metricNames(decls []metricDecl) []string {
	names := make([]string, len(decls))
	for i, d := range decls {
		names[i] = d.Name
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs all four workloads in the smoke configuration: tiny op
// counts, every response checked against the oracle, and the metric names
// those BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	bf, err := loadBenchmarkFile(".")
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	var defined []string
	for _, w := range workloads {
		defined = append(defined, w.name)
	}
	if !reflect.DeepEqual(declared, defined) {
		t.Fatalf("BENCHMARK.json workloads %v, bench defines %v", declared, defined)
	}
	if bf.RunSeconds != refSeconds {
		t.Fatalf("BENCHMARK.json run_seconds %d, op counts are sized for %d", bf.RunSeconds, refSeconds)
	}
	for _, spec := range workloads {
		res, err := runEndToEnd(runConfig{spec: spec, seed: 3, seconds: smokeSeconds, smoke: true}, bf.bounds())
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%s: %d of %d ops failed", spec.name, res.Failed, res.Attempted)
		}
		// The smoke rounds are too short for percentiles with ten samples
		// beyond them; everything else is there.
		want := metricNames(bf.EndToEnd)
		got := sortedKeys(res.Metrics)
		for _, p := range []string{"query_p50_ms", "query_p95_ms"} {
			if _, ok := res.Metrics[p]; !ok {
				got = append(got, p)
			}
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: metrics %v, BENCHMARK.json declares %v", spec.name, got, want)
		}
		for name, m := range res.Metrics {
			if !(m.Value > 0) {
				t.Fatalf("%s: %s = %v, want > 0", spec.name, name, m.Value)
			}
		}
	}
}

// TestSmokeTraced runs the traced pass on the mutating workload (the one
// that exercises every stage) and checks the per-layer metric names.
func TestSmokeTraced(t *testing.T) {
	bf, err := loadBenchmarkFile(".")
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := findWorkload("corpus_rw")
	res, err := runTraced(runConfig{spec: spec, seed: 3, seconds: smokeSeconds, smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%d of %d ops failed", res.Failed, res.Attempted)
	}
	if got, want := sortedKeys(res.Metrics), metricNames(bf.PerLayer); !reflect.DeepEqual(got, want) {
		t.Fatalf("per-layer metrics\n got %v\nwant %v", got, want)
	}
	var total float64
	for _, v := range res.Shares {
		total += v
	}
	if math.Abs(total-100) > 1e-6 {
		t.Fatalf("layer shares add up to %v%%", total)
	}
}

// TestWrongAnswerFailsTheCommand flips one expected digest: the run must
// count failed ops, say "correct": false and exit non-zero.
func TestWrongAnswerFailsTheCommand(t *testing.T) {
	bf, err := loadBenchmarkFile(".")
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := findWorkload("t3_topk")
	cfg := runConfig{spec: spec, seed: 3, seconds: smokeSeconds, smoke: true}
	var stdout bytes.Buffer
	if code := execute(cfg, false, bf, "", &stdout, io.Discard); code != 0 {
		t.Fatalf("clean run exited %d", code)
	}
	var line contractLine
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Fatalf("clean run reported %+v", line)
	}

	cfg.corruptOracle = true
	stdout.Reset()
	if code := execute(cfg, false, bf, "", &stdout, io.Discard); code == 0 {
		t.Fatal("a run with a wrong expected digest exited 0")
	}
	lines = strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if line.Correct || line.Failed == 0 {
		t.Fatalf("corrupted run reported %+v", line)
	}
}

// TestCompareMetric checks the verdicts of -compare against a bound.
func TestCompareMetric(t *testing.T) {
	lower := metricDecl{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.08}
	higher := metricDecl{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.08}
	a := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98}
	shift := func(f float64) []float64 {
		out := make([]float64, len(a))
		for i, v := range a {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		m    metricDecl
		b    []float64
		want string
	}{
		{lower, shift(1.05), "agree"},
		{lower, shift(1.10), "WORSE"},
		{lower, shift(0.90), "BETTER"},
		{higher, shift(0.90), "WORSE"},
		{higher, shift(1.10), "BETTER"},
		{lower, []float64{0.8, 1.2, 0.9, 1.1, 1.0, 1.0}, "unresolved"},
	} {
		if got := compareMetric(c.m, a, c.b).verdict; got != c.want {
			t.Errorf("%s, b = %v: verdict %s, want %s", c.m.Name, c.b, got, c.want)
		}
	}
}
