package index

import (
	"sync/atomic"

	"xmatch/internal/obs"
)

// Counters are the matcher-internal evaluation counters — the raw
// selectivity and access-path data a cost-based planner (ROADMAP item 5)
// needs and EXPLAIN exposes. One Counters instance is shared by a whole
// overlay chain (ApplyChanges propagates the pointer), so an epoch's
// numbers survive compaction; a second, package-global instance
// aggregates every index in the process for /metricsz, where reload must
// not reset monotonic counters.
//
// The hot path does not touch these atomics directly: each evaluation
// accumulates into the pooled twigState's plain tally and flushes once
// at the end, so instrumentation adds a bounded constant per evaluation
// regardless of document size.
type Counters struct {
	evals           atomic.Uint64
	memoHits        atomic.Uint64
	memoMisses      atomic.Uint64
	fastPath        atomic.Uint64
	decodedLists    atomic.Uint64
	decodedPostings atomic.Uint64
	decodedBlocks   atomic.Uint64
	gallopMerges    atomic.Uint64
	linearMerges    atomic.Uint64
	candidates      atomic.Uint64
	usefulSurvivors atomic.Uint64
	reachSurvivors  atomic.Uint64
	emitted         atomic.Uint64
	memoCarried     atomic.Uint64
	memoDropped     atomic.Uint64
	unitHits        atomic.Uint64
	unitMisses      atomic.Uint64
}

// CountersSnapshot is a point-in-time copy of evaluation counters, the
// wire form EXPLAIN embeds.
type CountersSnapshot struct {
	// Evals counts MatchTwig evaluations; MemoHits of them were answered
	// from the result memo, MemoMisses ran the join, and FastPath of the
	// misses took the single-node postings-lookup shortcut.
	Evals      uint64 `json:"evals"`
	MemoHits   uint64 `json:"memoHits"`
	MemoMisses uint64 `json:"memoMisses"`
	FastPath   uint64 `json:"fastPath"`
	// DecodedLists/DecodedPostings count full list materializations
	// through the decode cache; DecodedBlocks counts individual
	// compressed-block decodes (galloped probes included).
	DecodedLists    uint64 `json:"decodedLists"`
	DecodedPostings uint64 `json:"decodedPostings"`
	DecodedBlocks   uint64 `json:"decodedBlocks"`
	// GallopMerges/LinearMerges count pruning passes by the access path
	// the skew heuristic chose.
	GallopMerges uint64 `json:"gallopMerges"`
	LinearMerges uint64 `json:"linearMerges"`
	// Candidates is the summed initial candidate-list length of joined
	// evaluations; UsefulSurvivors and ReachSurvivors are the totals
	// remaining after the bottom-up and top-down passes — per-pass
	// selectivity. Emitted counts returned matches (memo hits excluded).
	Candidates      uint64 `json:"candidates"`
	UsefulSurvivors uint64 `json:"usefulSurvivors"`
	ReachSurvivors  uint64 `json:"reachSurvivors"`
	Emitted         uint64 `json:"emitted"`
	// MemoCarried/MemoDropped count the memo entries a first use after a
	// write accepted, and those it refused (a write bound one of their
	// paths) or a compaction released.
	MemoCarried uint64 `json:"memoCarried"`
	MemoDropped uint64 `json:"memoDropped"`
	// UnitHits/UnitMisses count the evaluation plan's unit lookups
	// (LookupUnit); the matcher calls a miss needs count in Evals.
	UnitHits   uint64 `json:"unitHits"`
	UnitMisses uint64 `json:"unitMisses"`
}

// Sub returns the counter-wise difference c - prev, the per-request
// delta EXPLAIN reports. Deltas are best-effort under concurrency:
// evaluations of other requests landing between the two snapshots are
// included.
func (c CountersSnapshot) Sub(prev CountersSnapshot) CountersSnapshot {
	return CountersSnapshot{
		Evals:           c.Evals - prev.Evals,
		MemoHits:        c.MemoHits - prev.MemoHits,
		MemoMisses:      c.MemoMisses - prev.MemoMisses,
		FastPath:        c.FastPath - prev.FastPath,
		DecodedLists:    c.DecodedLists - prev.DecodedLists,
		DecodedPostings: c.DecodedPostings - prev.DecodedPostings,
		DecodedBlocks:   c.DecodedBlocks - prev.DecodedBlocks,
		GallopMerges:    c.GallopMerges - prev.GallopMerges,
		LinearMerges:    c.LinearMerges - prev.LinearMerges,
		Candidates:      c.Candidates - prev.Candidates,
		UsefulSurvivors: c.UsefulSurvivors - prev.UsefulSurvivors,
		ReachSurvivors:  c.ReachSurvivors - prev.ReachSurvivors,
		Emitted:         c.Emitted - prev.Emitted,
		MemoCarried:     c.MemoCarried - prev.MemoCarried,
		MemoDropped:     c.MemoDropped - prev.MemoDropped,
		UnitHits:        c.UnitHits - prev.UnitHits,
		UnitMisses:      c.UnitMisses - prev.UnitMisses,
	}
}

// Snapshot copies the current counter values.
func (c *Counters) Snapshot() CountersSnapshot {
	if c == nil {
		return CountersSnapshot{}
	}
	return CountersSnapshot{
		Evals:           c.evals.Load(),
		MemoHits:        c.memoHits.Load(),
		MemoMisses:      c.memoMisses.Load(),
		FastPath:        c.fastPath.Load(),
		DecodedLists:    c.decodedLists.Load(),
		DecodedPostings: c.decodedPostings.Load(),
		DecodedBlocks:   c.decodedBlocks.Load(),
		GallopMerges:    c.gallopMerges.Load(),
		LinearMerges:    c.linearMerges.Load(),
		Candidates:      c.candidates.Load(),
		UsefulSurvivors: c.usefulSurvivors.Load(),
		ReachSurvivors:  c.reachSurvivors.Load(),
		Emitted:         c.emitted.Load(),
		MemoCarried:     c.memoCarried.Load(),
		MemoDropped:     c.memoDropped.Load(),
		UnitHits:        c.unitHits.Load(),
		UnitMisses:      c.unitMisses.Load(),
	}
}

// tally is one evaluation's counter accumulator: plain fields on the
// pooled twigState, flushed to the atomic Counters once per evaluation.
type tally struct {
	memoMisses      uint64
	fastPath        uint64
	decodedLists    uint64
	decodedPostings uint64
	decodedBlocks   uint64
	gallopMerges    uint64
	linearMerges    uint64
	candidates      uint64
	usefulSurvivors uint64
	reachSurvivors  uint64
	emitted         uint64
}

// addEval flushes one completed uncached evaluation into c.
func (c *Counters) addEval(t *tally) {
	if c == nil {
		return
	}
	c.evals.Add(1)
	c.memoMisses.Add(t.memoMisses)
	c.fastPath.Add(t.fastPath)
	c.decodedLists.Add(t.decodedLists)
	c.decodedPostings.Add(t.decodedPostings)
	c.decodedBlocks.Add(t.decodedBlocks)
	c.gallopMerges.Add(t.gallopMerges)
	c.linearMerges.Add(t.linearMerges)
	c.candidates.Add(t.candidates)
	c.usefulSurvivors.Add(t.usefulSurvivors)
	c.reachSurvivors.Add(t.reachSurvivors)
	c.emitted.Add(t.emitted)
}

// addMemoHit flushes one memo-answered evaluation into c.
func (c *Counters) addMemoHit() {
	if c == nil {
		return
	}
	c.evals.Add(1)
	c.memoHits.Add(1)
}

// addMemoCarry records what first uses or a compaction did to the memo.
func (c *Counters) addMemoCarry(carried, dropped int) {
	if c == nil {
		return
	}
	c.memoCarried.Add(uint64(carried))
	c.memoDropped.Add(uint64(dropped))
}

// addUnitLookup records one plan-unit lookup in the result memo.
func (c *Counters) addUnitLookup(hit bool) {
	switch {
	case c == nil:
	case hit:
		c.unitHits.Add(1)
	default:
		c.unitMisses.Add(1)
	}
}

// globalCounters aggregates every index in the process. Unlike the
// per-chain counters it survives catalog reloads and replica bootstraps,
// which is what keeps /metricsz counters monotonic.
var globalCounters Counters

// GlobalCounters snapshots the process-wide evaluation counters.
func GlobalCounters() CountersSnapshot { return globalCounters.Snapshot() }

// Counters snapshots the evaluation counters of this index's overlay
// chain — the per-shard numbers EXPLAIN diffs around an evaluation.
func (ix *Index) Counters() CountersSnapshot { return ix.ctr.Snapshot() }

// CollectMetrics emits the process-wide matcher counters onto e — the
// index package's contribution to /metricsz.
func CollectMetrics(e *obs.Exporter) {
	s := GlobalCounters()
	emit := func(kind, help string, v uint64) {
		e.Counter("xmatch_index_"+kind+"_total", help, float64(v))
	}
	emit("evals", "Twig matcher evaluations.", s.Evals)
	emit("memo_hits", "Evaluations answered from the result memo.", s.MemoHits)
	emit("memo_misses", "Evaluations that ran the holistic join.", s.MemoMisses)
	emit("fast_path", "Single-node postings-lookup evaluations.", s.FastPath)
	emit("decoded_lists", "Full postings-list materializations.", s.DecodedLists)
	emit("decoded_postings", "Postings decoded by full materializations.", s.DecodedPostings)
	emit("decoded_blocks", "Compressed postings blocks decoded.", s.DecodedBlocks)
	emit("gallop_merges", "Pruning passes run as galloped merges.", s.GallopMerges)
	emit("linear_merges", "Pruning passes run as linear merges.", s.LinearMerges)
	emit("candidates", "Initial twig join candidates loaded.", s.Candidates)
	emit("useful_survivors", "Candidates surviving the bottom-up pass.", s.UsefulSurvivors)
	emit("reach_survivors", "Candidates surviving the top-down pass.", s.ReachSurvivors)
	emit("emitted_matches", "Matches emitted by uncached evaluations.", s.Emitted)
	emit("memo_carried", "Result-memo entries accepted at first use after a write.", s.MemoCarried)
	emit("memo_dropped", "Result-memo entries refused at first use after a write, or released by a compaction.", s.MemoDropped)
	emit("unit_hits", "Evaluation-plan units answered from the result memo.", s.UnitHits)
	emit("unit_misses", "Evaluation-plan units the result memo did not hold.", s.UnitMisses)
}
