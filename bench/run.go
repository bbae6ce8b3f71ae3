package main

import (
	"fmt"
	"runtime"

	"xmatch/internal/xmltree"
)

// runConfig is one invocation's settings.
type runConfig struct {
	spec    workloadSpec
	seed    int64
	seconds float64
	// smoke is the test configuration: tiny op counts, fewer rounds and
	// builds, percentiles the sample cannot support left out. Outputs are
	// checked exactly as in a real run.
	smoke bool
	// corruptOracle flips one expected digest, to prove that a wrong
	// answer fails the run (tests only).
	corruptOracle bool
}

// smokeSeconds is the run length of the smoke configuration: a few cycles
// per round.
const smokeSeconds = 0.2

func (c runConfig) rounds() int {
	if c.smoke {
		return 3
	}
	return numRounds
}

func (c runConfig) builds() int {
	if c.smoke {
		return 2
	}
	return c.spec.builds
}

// metricValue is one metric of a result document: the reported value (the
// median of the speed-corrected rounds) beside what produced it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// RawMedian is the median of the uncorrected per-round values; Q1 and
	// Q3 are the quartiles of the corrected ones and SpreadPct their
	// distance as a percentage of Value.
	RawMedian float64 `json:"raw_median"`
	Q1        float64 `json:"q1"`
	Q3        float64 `json:"q3"`
	SpreadPct float64 `json:"spread_pct"`
	// Noisy is set when the spread across rounds exceeds half the
	// metric's bound: the run itself says its number is shaky.
	Noisy bool `json:"noisy"`
	N     int  `json:"n"`
	// Raw and Corrected are the per-round (or per-build) values.
	Raw       []float64 `json:"raw,omitempty"`
	Corrected []float64 `json:"corrected,omitempty"`
}

// environment is recorded in every result: the numbers mean nothing
// without it.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func readEnvironment() environment {
	return environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// result is the document one run produces.
type result struct {
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Seconds     float64     `json:"seconds"`
	Trace       bool        `json:"trace"`
	Env         environment `json:"env"`
	Rounds      int         `json:"rounds"`
	OpsPerRound int         `json:"ops_per_round"`
	// RefNominalPerS is the reference rate that counts as speed 1.0;
	// MachineSpeed is the median speed factor of the rounds.
	RefNominalPerS float64 `json:"ref_nominal_per_s"`
	MachineSpeed   float64 `json:"machine_speed"`
	// RoundSpeeds are the rounds' own speed factors.
	RoundSpeeds  []float64 `json:"round_speeds,omitempty"`
	Attempted    int       `json:"attempted"`
	Failed       int       `json:"failed"`
	FailedOpsPct float64   `json:"failed_ops_pct"`
	// Metrics are the end-to-end metrics (trace off) or the per-layer
	// metrics (trace on), by name.
	Metrics map[string]metricValue `json:"metrics"`
	// Diagnostics are values printed beside the metrics that no bound
	// applies to.
	Diagnostics map[string]float64 `json:"diagnostics,omitempty"`
	// Shares is the traced run's self-time share of each layer group, in
	// percent of the handler time of the workload's ops.
	Shares map[string]float64 `json:"shares,omitempty"`
}

func newResult(cfg runConfig, trace bool) *result {
	return &result{
		Workload: cfg.spec.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: trace,
		Env: readEnvironment(), RefNominalPerS: RefNominalPerS,
		Metrics: make(map[string]metricValue), Diagnostics: make(map[string]float64),
	}
}

func (r *result) setCounts(c *counts) {
	r.Attempted, r.Failed = c.attempted, c.failed
	if c.attempted > 0 {
		r.FailedOpsPct = 100 * float64(c.failed) / float64(c.attempted)
	}
}

// summarize turns a series into its reported value. bound is the metric's
// regression bound as a fraction (0 when it has none).
func summarize(s *series, bound float64) metricValue {
	q1, q2, q3 := quartiles(s.corrected)
	mv := metricValue{
		Value: q2, Unit: s.unit, RawMedian: median(s.raw),
		Q1: q1, Q3: q3, SpreadPct: spreadPct(s.corrected), N: len(s.corrected),
		Raw: s.raw, Corrected: s.corrected,
	}
	mv.Noisy = bound > 0 && mv.SpreadPct > 100*bound/2
	return mv
}

// prepared is what both kinds of run start from: the generated inputs and
// the oracle's digest of every request of the cycle.
type prepared struct {
	inp    *inputs
	expect []digest
}

// prepare generates the inputs and computes the oracle's answers. The
// oracle's corpus is as large as the served one and is dropped on return:
// it must not sit in the heap while the program is measured.
func prepare(cfg runConfig) (*prepared, error) {
	docs, err := pristineDocs(cfg.spec, cfg.seed)
	if err != nil {
		return nil, err
	}
	p, _, err := prepareFrom(cfg, cfg.rounds(), docs)
	return p, err
}

// prepareFrom is prepare over already generated member documents, for the
// given number of rounds; it also hands out the oracle, which the traced
// run goes on to time.
func prepareFrom(cfg runConfig, rounds int, docs []*xmltree.Document) (*prepared, *oracle, error) {
	inp, err := generate(cfg.spec, cfg.seed, cfg.seconds, rounds, docs)
	if err != nil {
		return nil, nil, err
	}
	if inp.ops[0].mutate {
		return nil, nil, fmt.Errorf("workload %s starts with a mutation", cfg.spec.name)
	}
	orc, err := newOracle(docs)
	if err != nil {
		return nil, nil, err
	}
	expect, err := orc.expected(inp.requests, 0)
	if err != nil {
		return nil, nil, err
	}
	if cfg.corruptOracle {
		expect[len(expect)-1].crc ^= 1
	}
	return &prepared{inp: inp, expect: expect}, orc, nil
}

// warm lets caches fill before timing: two passes over the cycle prepare
// every pattern and warm every memo. Users do not pay this per request.
func warm(in *instance, p *prepared) {
	for pass := 0; pass < 2; pass++ {
		for i, r := range p.inp.requests {
			in.serve(in.queryReq, r.body)
			in.check(&p.expect[i])
		}
	}
}

// runEndToEnd is the untraced run: cold builds, then the rounds, with
// every response checked.
func runEndToEnd(cfg runConfig, bounds map[string]float64) (res *result, err error) {
	spec := cfg.spec
	p, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	inp := p.inp
	cnt := &counts{}
	ref := newRefKernel(spec.ref)
	ref.run(setupSliceUnits) // warm the kernel's own code paths
	first := inp.ops[0].idx
	setup, in, err := coldBuilds(spec, cfg.seed, cfg.builds(), inp.requests[first], &p.expect[first], ref, cnt)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := in.close(); err == nil {
			err = cerr
		}
	}()
	warm(in, p)

	timedExpect := p.expect
	if spec.mutateEvery > 0 {
		timedExpect = nil // bodies change under the edits; verified after the rounds
	}
	lat := newLatBuf(inp.perRound)
	rounds := make([]round, 0, cfg.rounds())
	for r := 0; r < cfg.rounds(); r++ {
		ops := inp.ops[r*inp.perRound : (r+1)*inp.perRound]
		rounds = append(rounds, runRound(in, inp, ops, timedExpect, ref, lat))
	}

	res = newResult(cfg, false)
	res.Rounds, res.OpsPerRound = len(rounds), inp.perRound
	all, err := roundSeries(rounds, !cfg.smoke)
	if err != nil {
		return nil, err
	}
	all["setup_s"] = setup

	// The harness's own buffers are dropped before the heap is read, so
	// the figure is the program's: dataset, index, caches, retained epochs.
	requests, epochs := inp.requests, shardEpochs(inp)
	inp, p, lat, ref = nil, nil, nil, nil
	heap := liveHeapMB()
	all["live_heap_mb"] = &series{unit: "MB", raw: []float64{heap}, corrected: []float64{heap}}

	if spec.mutateEvery > 0 {
		if err := verifyFinal(in, requests, epochs); err != nil {
			return nil, err
		}
	}

	for name, s := range all {
		res.Metrics[name] = summarize(s, bounds[name])
	}
	speeds := make([]float64, len(rounds))
	var mutate, p99 []float64
	for i, r := range rounds {
		speeds[i] = r.speed
		if r.mutateP50C > 0 {
			mutate = append(mutate, ms(r.mutateP50C))
		}
		if r.p99C > 0 {
			p99 = append(p99, ms(r.p99C))
		}
	}
	res.MachineSpeed, res.RoundSpeeds = median(speeds), speeds
	res.Diagnostics["ref_per_s"] = res.MachineSpeed * RefNominalPerS
	res.Diagnostics["queries_per_round"] = float64(rounds[0].queries)
	if len(mutate) > 0 {
		res.Diagnostics["mutate_p50_ms"] = median(mutate)
	}
	if len(p99) > 0 {
		res.Diagnostics["query_p99_ms"] = median(p99)
	}
	res.setCounts(cnt)
	return res, nil
}

// shardEpochs is the epoch every shard must have reached once all of the
// inputs' mutations are applied: one epoch per batch, counted from the
// generated op list, not read back from the program.
func shardEpochs(inp *inputs) []uint64 {
	epochs := make([]uint64, inp.spec.shards)
	for _, m := range inp.mutations {
		epochs[m.shard]++
	}
	return epochs
}

// verifyFinal checks a mutated collection after the rounds: every shard
// stands at the epoch the op list implies, and every request of the cycle
// is answered with the bytes sequential core computes over the
// concatenation of the final snapshots.
func verifyFinal(in *instance, reqs []request, wantEpochs []uint64) error {
	snaps := in.srv.Catalog().Get(datasetName).Snapshots()
	if len(snaps) != len(wantEpochs) {
		return fmt.Errorf("verify: %d shards served, %d generated", len(snaps), len(wantEpochs))
	}
	docs := make([]*xmltree.Document, len(snaps))
	var epoch uint64
	for i, sn := range snaps {
		in.attempted++
		if sn.Epoch != wantEpochs[i] {
			in.failed++
		}
		docs[i] = sn.Doc
		epoch = max(epoch, wantEpochs[i])
	}
	orc, err := newOracle(docs)
	if err != nil {
		return err
	}
	expect, err := orc.expected(reqs, epoch)
	if err != nil {
		return err
	}
	for i, r := range reqs {
		in.serve(in.queryReq, r.body)
		in.check(&expect[i])
	}
	return nil
}
