package index

import (
	"hash/maphash"
	"strings"
	"sync"
	"sync/atomic"

	"xmatch/internal/twig"
	"xmatch/internal/xmltree"
)

// MatchTwig evaluates the rewritten pattern subtree rooted at qn over the
// indexed document, returning matches byte-identical in content and order
// to twig.MatchByPaths (the contract FuzzMatchTwig and the differential
// tests pin). The signature satisfies internal/core's Matcher seam.
//
// The evaluation is a holistic two-phase join in the TwigStack/TwigList
// family, specialized to the exact-path semantics of PTQ rewriting. Because
// every candidate list holds nodes of one dotted path, and two nodes with
// the same path can never nest (a descendant's path strictly extends its
// ancestor's), each list is a disjoint, start-sorted interval sequence —
// so every structural check is a merge over region encodings, no stacks
// needed:
//
//  1. postings lookup: per pattern node, the path's postings — or, for a
//     value predicate, the (path, text) value-index postings, making the
//     predicate a hash lookup instead of a candidate scan;
//  2. bottom-up usefulness: a candidate survives only if, for every
//     pattern child, some surviving child candidate lies strictly inside
//     its interval;
//  3. top-down reachability: a candidate survives only if it lies strictly
//     inside some surviving parent candidate.
//
// The merges adapt to list skew. Balanced lists run as linear two-pointer
// merges over decoded postings; when one pattern node's list is orders of
// magnitude longer than the other's, the pass iterates the short side and
// gallops over the long side's block-level skip pointers, so the long
// compressed list is neither fully decoded nor fully scanned. Lists a
// pass must scan linearly are decoded at most once per pooled evaluation
// state (the state's decode cache keys by list identity), so steady-state
// evaluation over a hot index scans decoded []Posting slices while the
// resident index stays compressed. Survivor lists materialize
// into pooled buffers only when a pass actually drops candidates; the
// common no-waste case (every candidate completes a match) shares the
// cached decode without copying.
//
// After the two passes, every remaining candidate participates in at least
// one complete match (usefulness gives a complete match below it,
// reachability a rooted partial match above it), so the enumeration phase
// materializes no intermediate result that the joined evaluator's output
// would discard — the intermediate-result blowup of per-subtree interval
// joins is gone. Enumeration then mirrors MatchByPaths' candidate order
// and mixed-radix product exactly, which is what makes the output order
// identical.
func (ix *Index) MatchTwig(doc *xmltree.Document, qn *twig.Node, paths twig.PathBinding) []twig.Match {
	if doc != ix.doc {
		// Defensive: an index answers only for its own document.
		return twig.MatchByPaths(doc, qn, paths)
	}
	st := getTwigState()
	defer putTwigState(st)
	st.tally = tally{}
	st.pathTallies = st.pathTallies[:0]
	// Evaluation is a pure function of (index, pattern, binding), so a
	// repeat is answered from the epoch's result memo, shared: the Matcher
	// contract forbids callers from mutating matcher output.
	kb := paths.AppendKey(st.keyBuf[:0], qn)
	st.keyBuf = kb
	hv := maphash.Bytes(memoSeed, kb)
	if res, hit := lookup(ix, qn, kb, hv); hit {
		ix.ctr.addMemoHit()
		globalCounters.addMemoHit()
		return res
	}
	st.tally.memoMisses = 1
	res := ix.matchTwig(st, qn, paths)
	st.tally.emitted = uint64(len(res))
	st.tally.decodedBlocks += st.prc.takeDecoded() + st.enc.takeDecoded()
	ix.ctr.addEval(&st.tally)
	globalCounters.addEval(&st.tally)
	ix.prof.flush(st.pathTallies)
	ix.store(qn, string(kb), hv, res)
	return res
}

// matchTwig is the uncached evaluation behind the result memo.
func (ix *Index) matchTwig(st *twigState, qn *twig.Node, paths twig.PathBinding) []twig.Match {
	// Fast path: a single-node pattern without an empty-string predicate
	// is a pure postings lookup emitted straight off the node array — no
	// pruning passes, no decode.
	if len(qn.Children) == 0 && !(qn.HasValue && qn.Value == "") {
		var pl *PostingList
		if qn.HasValue {
			pl = ix.values.Get(valueKey{paths[qn], qn.Value})
		} else {
			pl = ix.paths.Get(paths[qn])
		}
		st.tally.fastPath = 1
		st.tally.candidates = uint64(pl.Len())
		n := uint64(pl.Len())
		st.pathTallies = append(st.pathTallies, pathDelta{path: paths[qn], candidates: n, useful: n, reach: n})
		return emitList(qn, pl)
	}
	st.collect(qn)
	for i, n := range st.nodes {
		if !ix.loadCandidates(st, i, n, paths) {
			return nil
		}
	}
	for i := range st.nodes {
		c := uint64(st.clen(i))
		st.tally.candidates += c
		st.pathTallies = append(st.pathTallies, pathDelta{path: paths[st.nodes[i]], candidates: c})
	}
	if len(st.nodes) == 1 {
		// No pruning passes ran: nothing was dropped.
		st.pathTallies[0].useful = st.pathTallies[0].candidates
		st.pathTallies[0].reach = st.pathTallies[0].candidates
		return st.emitSingles(qn, 0)
	}

	// Bottom-up usefulness: reverse preorder visits children first.
	for i := len(st.nodes) - 1; i >= 0; i-- {
		for _, c := range st.nodes[i].Children {
			if !st.filterParentsByChild(i, st.ord(c)) {
				return nil
			}
		}
	}
	for i := range st.nodes {
		u := uint64(st.clen(i))
		st.tally.usefulSurvivors += u
		st.pathTallies[i].useful = u
	}
	// Top-down reachability: preorder visits parents first.
	for i, n := range st.nodes {
		for _, c := range n.Children {
			st.filterChildrenByParents(st.ord(c), i)
		}
	}
	for i := range st.nodes {
		r := uint64(st.clen(i))
		st.tally.reachSurvivors += r
		st.pathTallies[i].reach = r
	}
	return st.enumerate(qn)
}

// memoSeed keys the memo's shard hash; per-process, shared by all states.
var memoSeed = maphash.MakeSeed()

// loadCandidates resolves pattern node i's candidate list: the value
// index for value predicates, the path postings otherwise. The value index
// holds only non-empty texts (Build skips text-less nodes), so an
// empty-string predicate — which the joined evaluator satisfies with
// text-less nodes — filters the path postings into a pooled buffer.
// It reports false when the list is empty (the pattern cannot match).
func (ix *Index) loadCandidates(st *twigState, i int, n *twig.Node, paths twig.PathBinding) bool {
	if n.HasValue && n.Value == "" {
		pl := ix.paths.Get(paths[n])
		if pl.Len() == 0 {
			return false
		}
		buf := st.bufs[i][:0]
		for _, p := range st.materialize(pl) {
			if p.Node.Text == "" {
				buf = append(buf, p)
			}
		}
		st.lists[i], st.bufs[i] = pl, buf
		st.cand[i], st.owned[i] = buf, true
		return len(buf) > 0
	}
	var pl *PostingList
	if n.HasValue {
		pl = ix.values.Get(valueKey{paths[n], n.Value})
	} else {
		pl = ix.paths.Get(paths[n])
	}
	st.lists[i], st.cand[i], st.owned[i] = pl, nil, false
	return pl.Len() > 0
}

// gallopSkew is the length ratio from which a pass stops scanning the
// longer list linearly and instead iterates the shorter one, galloping
// over the longer list's skip pointers.
const gallopSkew = 16

// deckSize is the per-state decode-cache table size. Lists hash into it
// by their build-time id; a collision just evicts. It comfortably exceeds
// the 64-node pattern cap, so a single evaluation can rarely cycle a hot
// entry, and the pointer check keeps any collision correct.
const deckSize = 256

// decoded is one decode-cache entry: the identity of a compressed list
// and its decoded postings.
type decoded struct {
	pl *PostingList
	ps []Posting
}

// memoShards spreads the per-index result memo across locks so parallel
// engine workers rarely contend; memoShardCap bounds each shard's entries
// (reset on overflow — the memo is a cache, not a ledger).
const (
	memoShards   = 8
	memoShardCap = 4096
)

// resultMemo is an index lineage's evaluation cache: (pattern node,
// binding key) -> result, sharded by key under read-write locks, shared by
// every epoch until the next fold. A write touches no entry: a later epoch
// checks one against the writes since at first use (see lookup).
// MatchTwig and the evaluation plan's units (LookupUnit, StoreUnit) share
// it: an entry is keyed by a pattern node and the twig.PathBinding key of
// the paths its result depends on, whoever wrote it. One map per shard,
// not one per node: a cold request stores an entry per unit, and a map
// per node would cost it two allocations each.
type resultMemo struct {
	shards [memoShards]memoShard
}

type memoShard struct {
	mu sync.RWMutex
	m  map[memoKey]*memoEntry
}

type memoKey struct {
	qn  *twig.Node
	key string
}

// memoEntry is one result, valid from epoch lo to hi, which later readers
// raise; prev, read and written under the shard's lock, is the version it
// superseded, kept one level deep for readers pinned below lo.
type memoEntry struct {
	res  []twig.Match
	key  string
	lo   uint64
	hi   atomic.Uint64
	prev *memoEntry
}

// writeRecord is the write that produced an epoch and the paths it
// touched, linked to the record before it (never to an Index). The chain
// is cut at every multiple of maxWriteRecords, so a lookup walks, and a
// lineage holds, at most that many; an entry valid only below it misses.
type writeRecord struct {
	epoch   uint64
	touched []string
	prev    *writeRecord
}

const maxWriteRecords = 64

// clean reports whether r's chain reaches the write after hi unbound by key.
func (r *writeRecord) clean(key string, hi uint64) bool {
	for ; r != nil && r.epoch > hi && !bindsAny(key, r.touched); r = r.prev {
		if r.epoch == hi+1 {
			return true
		}
	}
	return false
}

// lookup returns the entry (qn, key) valid over ix's epoch; hv is the
// key's maphash under memoSeed. An entry known valid only below the epoch
// is carried — its range raised — when no write since touched its paths:
// a result depends only on the (Start, End, Level, Text) of the nodes on
// its bound paths, which an untouched path keeps, and the Matcher contract
// (internal/core) makes a node as good as the clone that replaced it.
func lookup[K string | []byte](ix *Index, qn *twig.Node, key K, hv uint64) ([]twig.Match, bool) {
	shard := &ix.memo.Load().shards[hv%memoShards]
	shard.mu.RLock()
	e := shard.m[memoKey{qn, string(key)}]
	if e != nil && ix.epoch < e.lo {
		e = e.prev
	}
	shard.mu.RUnlock()
	if e == nil || ix.epoch < e.lo {
		return nil, false
	}
	if hi := e.hi.Load(); ix.epoch > hi {
		if !ix.write.clean(e.key, hi) {
			ix.ctr.addMemoCarry(0, 1)
			globalCounters.addMemoCarry(0, 1)
			return nil, false
		}
		ix.ctr.addMemoCarry(1, 0)
		globalCounters.addMemoCarry(1, 0)
		e.hi.CompareAndSwap(hi, ix.epoch) // or another reader moved it first
	}
	return e.res, true
}

// store enters res as the entry (qn, key) over ix's epoch, keeping the
// version it supersedes, unless that one is known valid there or later.
// A shard past memoShardCap entries is reset rather than grown: a runaway
// population of distinct patterns or bindings makes the memo start over.
func (ix *Index) store(qn *twig.Node, key string, hv uint64, res []twig.Match) {
	shard := &ix.memo.Load().shards[hv%memoShards]
	shard.mu.Lock()
	if shard.m == nil || len(shard.m) >= memoShardCap {
		shard.m = make(map[memoKey]*memoEntry)
	}
	k := memoKey{qn, key}
	if old := shard.m[k]; old == nil || old.hi.Load() < ix.epoch {
		e := &memoEntry{res: res, key: key, lo: ix.epoch, prev: old}
		e.hi.Store(ix.epoch)
		if old != nil {
			old.prev = nil
		}
		shard.m[k] = e
	}
	shard.mu.Unlock()
}

// LookupUnit returns the memoised output of an evaluation-plan unit — the
// entry core's plan keyed by qn and key (see core.UnitMemo) — and counts
// the lookup.
func (ix *Index) LookupUnit(qn *twig.Node, key string) ([]twig.Match, bool) {
	res, ok := lookup(ix, qn, key, maphash.String(memoSeed, key))
	ix.ctr.addUnitLookup(ok)
	globalCounters.addUnitLookup(ok)
	return res, ok
}

// StoreUnit memoises a complete unit output under (qn, key) for every
// later request over this epoch, and for the epochs writes carry it to.
func (ix *Index) StoreUnit(qn *twig.Node, key string, res []twig.Match) {
	ix.store(qn, key, maphash.String(memoSeed, key), res)
}

// bindsAny reports whether a memo key — bound paths, each NUL-terminated —
// names any of the given paths.
func bindsAny(key string, paths []string) bool {
	for _, p := range paths {
		for rest := key; len(rest) > len(p); {
			i := strings.Index(rest, p)
			if i < 0 {
				break
			}
			if rest[i+len(p)] == 0 && (i == 0 || rest[i-1] == 0) {
				return true
			}
			rest = rest[i+1:]
		}
	}
	return false
}

// len counts the memo's entries.
func (m *resultMemo) len() int {
	n := 0
	for i := range m.shards {
		shard := &m.shards[i]
		shard.mu.RLock()
		n += len(shard.m)
		shard.mu.RUnlock()
	}
	return n
}

// PurgeMemo drops the cached evaluation results of this index. The server
// calls it on the outgoing catalog after an admin reload so a retired
// epoch's memo — which pins match slices over the old document — is
// released even while in-flight queries still hold the old snapshot. It
// swaps this epoch's memo for an empty one, so an older epoch a reader
// still pins keeps the memo it shared; it is safe to call concurrently
// with MatchTwig.
func (ix *Index) PurgeMemo() { ix.memo.Store(new(resultMemo)) }

// twigState is the per-evaluation working set: the pattern subtree in
// preorder, one candidate list per pattern node, the decode cache, and
// the pooled survivor buffers. States are recycled through a sync.Pool,
// so steady-state evaluation allocates only the emitted matches, and the
// decode cache survives across evaluations — the second query over the
// same postings lists pays no decode at all. Patterns are tiny (Parse
// caps them at 64 nodes, the paper's workload peaks at 7), so ordinals
// are found by pointer scan rather than a map.
type twigState struct {
	nodes []*twig.Node
	lists []*PostingList // initial candidate lists (shared with the index)
	cand  [][]Posting    // current survivors; nil means all of lists[i]
	owned []bool         // cand[i] is backed by bufs[i] (mutable in place)
	bufs  [][]Posting    // pooled survivor buffers

	deck [deckSize]decoded // decoded-list cache, slotted by list id

	keyBuf []byte // reusable memo-key scratch

	prc, enc cursor // probe / enumerate cursors for galloped access

	tally       tally       // this evaluation's counter accumulator
	pathTallies []pathDelta // this evaluation's per-path funnel, in node order

	// enumerate scratch, per pattern node ordinal.
	subs  [][][]twig.Match
	curss [][]int
	runss [][][]twig.Match
}

var twigStatePool = sync.Pool{New: func() any { return &twigState{} }}

func getTwigState() *twigState { return twigStatePool.Get().(*twigState) }

func putTwigState(st *twigState) {
	// No clearing: every per-node entry is overwritten before its next
	// read (collect resets the node list, loadCandidates the candidate
	// sets, enumerate its scratch). Stale references pin at most one
	// evaluation's intermediates until the pool entry is reused or
	// GC-dropped — the same lifetime the decode cache already has.
	st.nodes = st.nodes[:0]
	twigStatePool.Put(st)
}

// materialize returns the fully decoded form of pl through the state's
// decode cache: each distinct list decodes at most once per state
// lifetime. The returned slice is shared and must not be written.
func (st *twigState) materialize(pl *PostingList) []Posting {
	if pl == nil {
		return nil
	}
	slot := &st.deck[pl.id&(deckSize-1)]
	if slot.pl == pl {
		return slot.ps
	}
	if slot.pl != nil {
		// The evictee's buffer may still back a candidate slice shared
		// earlier in this evaluation, so abandon it rather than reuse it.
		slot.ps = nil
	}
	slot.pl = pl
	slot.ps = pl.appendAll(slot.ps[:0])
	st.tally.decodedLists++
	st.tally.decodedPostings += uint64(pl.Len())
	st.tally.decodedBlocks += uint64(pl.blocks())
	return slot.ps
}

// cachedSlice returns pl's decoded form only if it is already cached —
// the galloped paths use it to prefer slice access without forcing a
// decode.
func (st *twigState) cachedSlice(pl *PostingList) []Posting {
	if slot := &st.deck[pl.id&(deckSize-1)]; slot.pl == pl {
		return slot.ps
	}
	return nil
}

func (st *twigState) collect(n *twig.Node) {
	st.nodes = st.nodes[:0]
	st.push(n)
	for len(st.lists) < len(st.nodes) {
		st.lists = append(st.lists, nil)
		st.cand = append(st.cand, nil)
		st.owned = append(st.owned, false)
		st.bufs = append(st.bufs, nil)
		st.subs = append(st.subs, nil)
		st.curss = append(st.curss, nil)
		st.runss = append(st.runss, nil)
	}
}

func (st *twigState) push(n *twig.Node) {
	st.nodes = append(st.nodes, n)
	for _, c := range n.Children {
		st.push(c)
	}
}

func (st *twigState) ord(n *twig.Node) int {
	for i, m := range st.nodes {
		if m == n {
			return i
		}
	}
	return -1
}

func (st *twigState) clen(i int) int {
	if st.cand[i] != nil {
		return len(st.cand[i])
	}
	return st.lists[i].Len()
}

// slice returns the current candidate set of node i as a slice,
// materializing the full list through the decode cache when the set is
// still unfiltered — the scan passes' accessor.
func (st *twigState) slice(i int) []Posting {
	if st.cand[i] != nil {
		return st.cand[i]
	}
	return st.materialize(st.lists[i])
}

// probe is read-only random access into one candidate set: a slice when
// one is available without decoding, a galloping block cursor otherwise.
type probe struct {
	ps  []Posting
	cur *cursor
	n   int
}

func (st *twigState) probeOf(i int, cur *cursor) probe {
	if st.cand[i] != nil {
		return probe{ps: st.cand[i], n: len(st.cand[i])}
	}
	if ps := st.cachedSlice(st.lists[i]); ps != nil {
		return probe{ps: ps, n: len(ps)}
	}
	cur.reset(st.lists[i])
	return probe{cur: cur, n: st.lists[i].Len()}
}

func (p *probe) at(k int) Posting {
	if p.ps != nil {
		return p.ps[k]
	}
	return p.cur.at(k)
}

func (p *probe) startAt(k int) int32 {
	if p.ps != nil {
		return p.ps[k].Start
	}
	return p.cur.startAt(k)
}

func (p *probe) endAt(k int) int32 {
	if p.ps != nil {
		return p.ps[k].End
	}
	return p.cur.endAt(k)
}

func (p *probe) nodeAt(k int) *xmltree.Node {
	if p.ps != nil {
		return p.ps[k].Node
	}
	return p.cur.nodeAt(k)
}

// seekStartGT returns the smallest index ≥ from with Start > v.
func (p *probe) seekStartGT(v int32, from int) int {
	if p.ps == nil {
		return p.cur.seekStartGT(v, from)
	}
	return from + gallopSlice(p.ps[from:], func(q *Posting) bool { return q.Start > v })
}

// gallopSlice is gallop over a materialized slice.
func gallopSlice(ps []Posting, ok func(*Posting) bool) int {
	n := len(ps)
	if n == 0 || ok(&ps[0]) {
		return 0
	}
	lo, hi := 0, 1
	for hi < n && !ok(&ps[hi]) {
		lo = hi
		hi <<= 1
	}
	if hi > n {
		hi = n
	}
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if ok(&ps[mid]) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// filterParentsByChild retains the parents of set pi with at least one
// child posting of set ci strictly inside their interval — the bottom-up
// usefulness step. It reports whether any parent survived.
func (st *twigState) filterParentsByChild(pi, ci int) bool {
	plen, cl := st.clen(pi), st.clen(ci)
	if cl*gallopSkew < plen {
		st.tally.gallopMerges++
		st.filterParentsGallop(pi, ci)
	} else {
		st.tally.linearMerges++
		st.filterParentsScan(pi, ci)
	}
	return st.clen(pi) > 0
}

// filterParentsScan runs the balanced two-pointer merge: iterate the
// parents, advance a child pointer. Survivors are written copy-on-write —
// in place when the parent set is already an owned buffer, into the
// pooled buffer from the first dropped parent otherwise.
func (st *twigState) filterParentsScan(pi, ci int) {
	cs := st.slice(ci)
	j := 0
	if st.owned[pi] {
		ps := st.cand[pi]
		m := 0
		for k := range ps {
			for j < len(cs) && cs[j].Start <= ps[k].Start {
				j++
			}
			if j < len(cs) && cs[j].Start < ps[k].End {
				ps[m] = ps[k]
				m++
			}
		}
		st.cand[pi] = ps[:m]
		return
	}
	ps := st.slice(pi)
	for k := range ps {
		for j < len(cs) && cs[j].Start <= ps[k].Start {
			j++
		}
		if j < len(cs) && cs[j].Start < ps[k].End {
			continue
		}
		// First drop: materialize the kept prefix, then keep filtering.
		out := append(st.bufs[pi][:0], ps[:k]...)
		for k++; k < len(ps); k++ {
			for j < len(cs) && cs[j].Start <= ps[k].Start {
				j++
			}
			if j < len(cs) && cs[j].Start < ps[k].End {
				out = append(out, ps[k])
			}
		}
		st.bufs[pi] = out
		st.cand[pi], st.owned[pi] = out, true
		return
	}
	// Nothing dropped: share the scanned slice.
	st.cand[pi] = ps
}

// filterParentsGallop iterates the (much shorter) child set and gallops
// over the parents' skip pointers: each child start is contained by at
// most one parent (parents are disjoint), found by galloping to the last
// parent starting before it. The parents' list is decoded only where
// probes land.
func (st *twigState) filterParentsGallop(pi, ci int) {
	par := st.probeOf(pi, &st.prc)
	child := st.probeOf(ci, &st.enc)
	out := st.bufs[pi][:0]
	f, last := 0, -1
	for k := 0; k < child.n; k++ {
		qs := child.startAt(k)
		f = par.seekStartGT(qs-1, f)
		cand := f - 1
		if cand <= last {
			continue
		}
		last = cand
		if qs < par.endAt(cand) {
			out = append(out, par.at(cand))
		}
	}
	st.bufs[pi] = out
	st.cand[pi], st.owned[pi] = out, true
}

// filterChildrenByParents retains the children of set ci strictly inside
// some parent posting of set pi — the top-down reachability step.
func (st *twigState) filterChildrenByParents(ci, pi int) {
	plen, cl := st.clen(pi), st.clen(ci)
	if plen*gallopSkew < cl {
		st.tally.gallopMerges++
		st.filterChildrenGallop(ci, pi)
	} else {
		st.tally.linearMerges++
		st.filterChildrenScan(ci, pi)
	}
}

// filterChildrenScan runs the balanced merge: iterate the children,
// advance a parent pointer. A child whose start falls inside a parent's
// interval is a descendant of it, so the start alone decides.
func (st *twigState) filterChildrenScan(ci, pi int) {
	ps := st.slice(pi)
	j := 0
	if st.owned[ci] {
		cs := st.cand[ci]
		m := 0
		for k := range cs {
			for j < len(ps) && ps[j].End < cs[k].Start {
				j++
			}
			if j < len(ps) && ps[j].Start < cs[k].Start {
				cs[m] = cs[k]
				m++
			}
		}
		st.cand[ci] = cs[:m]
		return
	}
	cs := st.slice(ci)
	for k := range cs {
		for j < len(ps) && ps[j].End < cs[k].Start {
			j++
		}
		if j < len(ps) && ps[j].Start < cs[k].Start {
			continue
		}
		out := append(st.bufs[ci][:0], cs[:k]...)
		for k++; k < len(cs); k++ {
			for j < len(ps) && ps[j].End < cs[k].Start {
				j++
			}
			if j < len(ps) && ps[j].Start < cs[k].Start {
				out = append(out, cs[k])
			}
		}
		st.bufs[ci] = out
		st.cand[ci], st.owned[ci] = out, true
		return
	}
	st.cand[ci] = cs
}

// filterChildrenGallop iterates the (much shorter) parent set and emits
// each parent's contained children by a galloped range scan, decoding
// only the child blocks the ranges touch. Parent intervals are disjoint
// and sorted, so the emitted runs preserve child order with no overlap.
func (st *twigState) filterChildrenGallop(ci, pi int) {
	par := st.probeOf(pi, &st.enc)
	child := st.probeOf(ci, &st.prc)
	if par.n == 1 {
		// Single parent — the root-anchored common case. If it contains
		// the whole child set (first and last child decide: the set is
		// start-sorted), every child survives and the set is shared
		// without a copy; otherwise the survivors are one contiguous
		// galloped range.
		s, e := par.startAt(0), par.endAt(0)
		if child.startAt(0) > s && child.startAt(child.n-1) < e {
			return
		}
		lo := child.seekStartGT(s, 0)
		hi := child.seekStartGT(e-1, lo)
		if ps := child.ps; ps != nil {
			st.cand[ci], st.owned[ci] = ps[lo:hi], false
			return
		}
		if hi > lo {
			st.tally.decodedPostings += uint64(hi - lo)
			st.tally.decodedBlocks += uint64((hi-1)>>blockShift - lo>>blockShift + 1)
		}
		out := st.lists[ci].appendRange(st.bufs[ci][:0], lo, hi)
		st.bufs[ci] = out
		st.cand[ci], st.owned[ci] = out, true
		return
	}
	out := st.bufs[ci][:0]
	j := 0
	for k := 0; k < par.n; k++ {
		pStart, pEnd := par.startAt(k), par.endAt(k)
		j = child.seekStartGT(pStart, j)
		for j < child.n {
			if child.startAt(j) >= pEnd {
				break
			}
			out = append(out, child.at(j))
			j++
		}
	}
	st.bufs[ci] = out
	st.cand[ci], st.owned[ci] = out, true
}

// emitList materializes single-binding matches for a whole postings list
// straight off its node array — the state-free single-node fast path.
func emitList(qn *twig.Node, pl *PostingList) []twig.Match {
	n := pl.Len()
	if n == 0 {
		return nil
	}
	slab := make([]twig.Binding, n)
	out := make([]twig.Match, n)
	for k, nd := range pl.nodes {
		slab[k] = twig.Binding{Q: qn, D: nd}
		out[k] = slab[k : k+1 : k+1]
	}
	return out
}

// emitSingles materializes single-binding matches of pattern node ord in
// postings order. The bindings live in one slab, so the whole result is
// two allocations regardless of size.
func (st *twigState) emitSingles(qn *twig.Node, ord int) []twig.Match {
	n := st.clen(ord)
	if n == 0 {
		return nil
	}
	slab := make([]twig.Binding, n)
	out := make([]twig.Match, n)
	cands := st.probeOf(ord, &st.enc)
	for k := 0; k < n; k++ {
		slab[k] = twig.Binding{Q: qn, D: cands.nodeAt(k)}
		out[k] = slab[k : k+1 : k+1]
	}
	return out
}

// enumScratch returns pooled per-node scratch slices for enumerate.
func (st *twigState) enumScratch(ord, k int) ([][]twig.Match, []int, [][]twig.Match) {
	if cap(st.subs[ord]) < k {
		st.subs[ord] = make([][]twig.Match, k)
		st.curss[ord] = make([]int, k)
		st.runss[ord] = make([][]twig.Match, k)
	}
	return st.subs[ord][:k], st.curss[ord][:k], st.runss[ord][:k]
}

// enumerate materializes matches bottom-up from the pruned candidate
// lists, mirroring MatchByPaths' combination step: candidates in document
// order, one contiguous run of sub-matches per child, runs combined by a
// mixed-radix counter with the last child varying fastest. Sub-match lists
// are ordered by their root binding's start, so run boundaries advance
// monotonically with the parent candidates — per-child cursors replace the
// joined evaluator's binary searches.
func (st *twigState) enumerate(n *twig.Node) []twig.Match {
	ord := st.ord(n)
	if len(n.Children) == 0 {
		return st.emitSingles(n, ord)
	}
	sub, cursors, runs := st.enumScratch(ord, len(n.Children))
	for i, c := range n.Children {
		sub[i] = st.enumerate(c)
		cursors[i] = 0
	}
	var out []twig.Match
	cands := st.probeOf(ord, &st.enc)
	for ci := 0; ci < cands.n; ci++ {
		d := cands.at(ci)
		ok := true
		for i := range n.Children {
			lo := cursors[i]
			for lo < len(sub[i]) && int32(sub[i][lo][0].D.Start) <= d.Start {
				lo++
			}
			hi := lo
			for hi < len(sub[i]) && int32(sub[i][hi][0].D.Start) < d.End {
				hi++
			}
			cursors[i] = hi
			runs[i] = sub[i][lo:hi]
			if lo == hi {
				// Unreachable after the two pruning passes (every kept
				// parent has a kept child inside, and every kept child
				// roots a complete match); defensive only.
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		out = twig.AppendProduct(out, twig.Match{{Q: n, D: d.Node}}, runs)
	}
	return out
}
