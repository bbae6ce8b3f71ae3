package index

import (
	"sort"
	"sync"
)

// pathProfiles accumulates per-path observed selectivity: for every
// dotted path a twig evaluation bound, how many postings the initial
// candidate load admitted and how many survived each pruning pass. One
// instance is shared by a whole overlay chain (ApplyChanges propagates
// the pointer, like Counters), so an epoch's observations
// survive compaction and the numbers describe the shard's workload
// since its index was built.
//
// The hot path never touches the map: each evaluation records per-node
// deltas into the pooled twigState and flushes them here once, under a
// single lock acquisition (patterns cap at 64 nodes, typically ≤7).
type pathProfiles struct {
	mu sync.RWMutex
	m  map[string]*pathAccum
}

// pathAccum is one path's accumulated funnel; plain fields under the
// profiles lock.
type pathAccum struct {
	evals, candidates, useful, reach uint64
}

// pathDelta is one evaluation's funnel for one bound path, staged on the
// twigState.
type pathDelta struct {
	path                      string
	candidates, useful, reach uint64
}

// flush folds one evaluation's per-node deltas in. Nil-safe.
func (p *pathProfiles) flush(deltas []pathDelta) {
	if p == nil || len(deltas) == 0 {
		return
	}
	p.mu.Lock()
	if p.m == nil {
		p.m = make(map[string]*pathAccum)
	}
	for i := range deltas {
		d := &deltas[i]
		a := p.m[d.path]
		if a == nil {
			a = &pathAccum{}
			p.m[d.path] = a
		}
		a.evals++
		a.candidates += d.candidates
		a.useful += d.useful
		a.reach += d.reach
	}
	p.mu.Unlock()
}

// PathProfile is one path's observed-selectivity row: how the matcher's
// pruning funnel treated the path's candidates across every evaluation
// that bound it. Candidates -> UsefulSurvivors is the bottom-up
// usefulness pass, UsefulSurvivors -> ReachSurvivors the top-down
// reachability pass; passes that did not run (single-node fast path)
// count as dropping nothing. Selectivity is ReachSurvivors/Candidates —
// the observed fraction of loaded postings that participated in a
// match, exactly the quantity a cost-based planner must estimate.
type PathProfile struct {
	Path            string  `json:"path"`
	Evals           uint64  `json:"evals"`
	Candidates      uint64  `json:"candidates"`
	UsefulSurvivors uint64  `json:"usefulSurvivors"`
	ReachSurvivors  uint64  `json:"reachSurvivors"`
	Selectivity     float64 `json:"selectivity"`
}

// PathProfiles reports the observed selectivity of every path this
// index's overlay chain has evaluated, most-loaded (highest Candidates)
// first, ties by path. Paths the workload never touched do not appear.
func (ix *Index) PathProfiles() []PathProfile {
	p := ix.prof
	if p == nil {
		return nil
	}
	p.mu.RLock()
	out := make([]PathProfile, 0, len(p.m))
	for path, a := range p.m {
		pp := PathProfile{
			Path:            path,
			Evals:           a.evals,
			Candidates:      a.candidates,
			UsefulSurvivors: a.useful,
			ReachSurvivors:  a.reach,
		}
		if a.candidates > 0 {
			pp.Selectivity = float64(a.reach) / float64(a.candidates)
		}
		out = append(out, pp)
	}
	p.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Candidates != out[j].Candidates {
			return out[i].Candidates > out[j].Candidates
		}
		return out[i].Path < out[j].Path
	})
	return out
}
