package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"xmatch/internal/dataset"
	"xmatch/internal/delta"
	"xmatch/internal/server"
	"xmatch/internal/xmltree"
)

// datasetName is the built-in Table II dataset every workload serves: D7
// (XCBL → Apertum), the one the paper's Table III twigs are posed against.
const datasetName = "D7"

// Paper defaults shared by every workload: |M| = 100 possible mappings,
// top-k with k = 5.
const (
	numMappings = 100
	topK        = 5
)

// workloadSpec is the fixed part of a workload: what is served and which
// requests are cycled. The seed decides the document's leaf values, the
// order of the requests and the edits.
type workloadSpec struct {
	name string
	// shards and docNodes size the served collection.
	shards   int
	docNodes int
	// twigs are Table III query IDs; modes are the evaluation modes each
	// is requested in. The request cycle is twigs × modes, a mode listed
	// twice being requested twice as often.
	twigs []string
	modes []string
	// mutateEvery > 0 makes every mutateEvery-th op a one-edit settext
	// /v1/admin/mutate, and gives the collection a durable edit log.
	mutateEvery int
	// opsPerRound is the op count of one round at the benchmark's
	// run_seconds (refSeconds); -seconds scales it linearly.
	opsPerRound int
	// chunkOps is the op count between two reference slices: about 5 ms
	// of work at nominal speed.
	chunkOps int
	// ref is the workload's mix of the reference kernel's two parts. The
	// encode share of its nominal time is the share of the workload's time
	// that the host's slow episodes stretch as they stretch encode, fitted
	// on calibration runs that included such episodes (README.md): 0.92 and
	// 0.95 for corpus_point and t3_topk, which therefore use encode alone,
	// 0.74 for t3_compact and 0.64 for corpus_rw.
	ref refMix
	// builds is the number of cold builds setup_s is the median of: more
	// where a build is short, so that set-up costs every workload about
	// the same two seconds.
	builds int
}

// refSeconds is the -seconds value the opsPerRound figures are sized for:
// the run_seconds of BENCHMARK.json.
const refSeconds = 16

// numRounds is fixed so that op counts repeat exactly from run to run.
const numRounds = 9

var allTwigs = []string{"Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9", "Q10"}

// selectiveTwigs are the Table III twigs whose answers stay small on a
// 200,000-node corpus. The others are left out on purpose: Q10 in compact
// mode returns 44 MB there, which measures the encoder's memory, not time.
var selectiveTwigs = []string{"Q1", "Q2", "Q3"}

// workloads are the benchmark's four workloads; BENCHMARK.json and
// README.md say why each was chosen. The corpus cycle weights compact 2:1
// over topk: with equal weights the median request falls in the gap
// between the two latency clusters and query_p50_ms swings on nothing.
var workloads = []workloadSpec{
	{
		name:   "t3_compact",
		shards: 1, docNodes: 3473, twigs: allTwigs, modes: []string{"compact"},
		opsPerRound: 1100, chunkOps: 5, ref: refMix{encode: 3, hash: 2}, builds: 15,
	},
	{
		name:   "t3_topk",
		shards: 1, docNodes: 3473, twigs: allTwigs, modes: []string{"topk"},
		opsPerRound: 12000, chunkOps: 50, ref: refMix{encode: 4}, builds: 15,
	},
	{
		name:   "corpus_point",
		shards: 4, docNodes: 200000, twigs: selectiveTwigs, modes: []string{"compact", "compact", "topk"},
		opsPerRound: 2610, chunkOps: 9, ref: refMix{encode: 4}, builds: 5,
	},
	{
		name:   "corpus_rw",
		shards: 4, docNodes: 200000, twigs: selectiveTwigs, modes: []string{"compact", "compact", "topk"},
		mutateEvery: 5,
		opsPerRound: 1845, chunkOps: 10, ref: refMix{encode: 3, hash: 4}, builds: 5,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// request is one distinct read-only request of a workload's cycle.
type request struct {
	twig    string
	pattern string
	mode    string
	k       int
	body    []byte
}

// op is one operation of the generated sequence: a query (index into the
// request cycle) or a mutation (index into the edit list).
type op struct {
	mutate bool
	idx    int32
}

// mutation is one generated /v1/admin/mutate request.
type mutation struct {
	shard int
	body  []byte
}

// inputs are everything a run feeds the program, generated from the seed.
type inputs struct {
	spec      workloadSpec
	seed      int64
	requests  []request
	ops       []op // numRounds × opsPerRound, round after round
	perRound  int
	mutations []mutation
}

// scaledOps scales a round's op count to the requested run length, keeping
// it a whole number of request cycles (and mutation periods) so every
// round carries the same mix.
func scaledOps(spec workloadSpec, seconds float64, cycle int) int {
	unit := cycle
	if spec.mutateEvery > 0 {
		// (mutateEvery-1) queries per mutation: one unit is a whole number
		// of both cycles and periods.
		unit = cycle * spec.mutateEvery
	}
	n := int(float64(spec.opsPerRound)*seconds/refSeconds) / unit * unit
	if n < unit {
		n = unit
	}
	return n
}

// cycleRequests builds the workload's distinct read-only requests.
func cycleRequests(spec workloadSpec) ([]request, error) {
	text := make(map[string]string)
	for _, q := range dataset.Queries() {
		text[q.ID] = q.Text
	}
	var reqs []request
	for _, mode := range spec.modes {
		for _, id := range spec.twigs {
			r := request{twig: id, pattern: text[id], mode: mode}
			if mode == "topk" {
				r.k = topK
			}
			body, err := json.Marshal(server.QueryRequest{Dataset: datasetName, Pattern: r.pattern, Mode: r.mode, K: r.k})
			if err != nil {
				return nil, fmt.Errorf("encoding request %s/%s: %w", id, mode, err)
			}
			r.body = body
			reqs = append(reqs, r)
		}
	}
	return reqs, nil
}

// generate builds a run's inputs. The same (spec, seed, seconds) gives the
// same request bytes in the same order; another seed gives another order
// and other edits. Mutation targets are chosen from docs, the pristine
// member documents of the collection (nil for read-only workloads).
func generate(spec workloadSpec, seed int64, seconds float64, rounds int, docs []*xmltree.Document) (*inputs, error) {
	reqs, err := cycleRequests(spec)
	if err != nil {
		return nil, err
	}
	in := &inputs{spec: spec, seed: seed, requests: reqs}
	in.perRound = scaledOps(spec, seconds, len(reqs))
	rng := rand.New(rand.NewSource(seed))
	total := rounds * in.perRound
	in.ops = make([]op, 0, total)
	perm := make([]int, len(reqs))
	pos := len(perm) // forces a fresh permutation on first use
	nextQuery := func() int32 {
		if pos == len(perm) {
			for i := range perm {
				perm[i] = i
			}
			rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
			pos = 0
		}
		pos++
		return int32(perm[pos-1])
	}
	for i := 0; i < total; i++ {
		if spec.mutateEvery > 0 && i%spec.mutateEvery == spec.mutateEvery-1 {
			in.ops = append(in.ops, op{mutate: true, idx: int32(len(in.mutations))})
			in.mutations = append(in.mutations, mutation{})
			continue
		}
		in.ops = append(in.ops, op{idx: nextQuery()})
	}
	if len(in.mutations) > 0 {
		if err := fillMutations(in, rng, docs); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// leafTarget addresses the text leaves of one path in one member document.
type leafTarget struct {
	path  string
	count int
}

// fillMutations generates one settext edit per mutation slot: mutation i
// goes to shard i mod shards, picks a text-leaf path of that member
// uniformly, then one of the path's nodes. Choosing the path first keeps
// the header leaves the selective twigs bind (e-mail, street, city) in
// play beside the far more numerous line-item leaves, so the served bytes
// do change under the edits.
func fillMutations(in *inputs, rng *rand.Rand, docs []*xmltree.Document) error {
	if len(docs) != in.spec.shards {
		return fmt.Errorf("mutation targets: have %d documents, want %d", len(docs), in.spec.shards)
	}
	targets := make([][]leafTarget, len(docs))
	for s, d := range docs {
		counts := make(map[string]int)
		for _, n := range d.Nodes() {
			if len(n.Children) == 0 && n.Text != "" {
				counts[n.Path]++
			}
		}
		for p, c := range counts {
			targets[s] = append(targets[s], leafTarget{path: p, count: c})
		}
		sort.Slice(targets[s], func(a, b int) bool { return targets[s][a].path < targets[s][b].path })
		if len(targets[s]) == 0 {
			return fmt.Errorf("mutation targets: shard %d has no text leaves", s)
		}
	}
	for i := range in.mutations {
		shard := i % len(docs)
		t := targets[shard][rng.Intn(len(targets[shard]))]
		edit := delta.Edit{
			Op:      delta.OpSetText,
			Path:    t.path,
			Ordinal: rng.Intn(t.count),
			Text:    fmt.Sprintf("s%d-%d", in.seed, i),
		}
		body, err := json.Marshal(server.MutateRequest{Dataset: datasetName, Shard: shard, Edits: []delta.Edit{edit}})
		if err != nil {
			return fmt.Errorf("encoding mutation %d: %w", i, err)
		}
		in.mutations[i] = mutation{shard: shard, body: body}
	}
	return nil
}
