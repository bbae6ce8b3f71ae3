package index

// Compressed postings. A PostingList is the resident form of one postings
// list — the region encodings of all document nodes sharing one dotted
// path (or one (path, text) value key). (start, end) pairs are
// delta-encoded as uvarints in blocks of 64 postings. Gap numbering
// (xmltree.Gap) multiplies raw start magnitudes 16x, which makes delta
// encoding *more* attractive, not less: consecutive same-path starts
// differ by small multiples of the stride, so most pairs fit in a few
// bytes where a plain []Posting spends twenty-four. Each block opens with
// an absolute pair (uvarint start, uvarint extent), so blocks decode
// independently; blockOff holds one byte offset per block beyond the
// first — the block-level skip pointers the holistic matcher gallops
// over. A probe into a long list reads only block-opening varints plus
// the one block it lands in, leaving the rest undecoded; a single-block
// list carries no skip structure at all. The level is not stored per
// posting — every node of one dotted path sits at the same depth, so one
// level per list suffices.
//
// Node pointers are kept in a parallel array (they cannot be compressed
// and are touched only at emission), so a list costs 8 bytes/posting of
// pointers plus a few bytes of deltas against a []Posting's postingBytes.
//
// Invariant: every list is sorted by Start with all starts distinct. Path
// and value lists are additionally *disjoint* interval sequences (two
// nodes with the same path can never nest), which keeps ends sorted like
// starts — what makes End-ordered probes gallopable.

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"xmatch/internal/xmltree"
)

// nextListID hands every compressed list a process-unique cache slot id.
var nextListID atomic.Uint32

const (
	// blockShift sets the compressed block size: 1<<blockShift postings
	// per block. 64 keeps the skip-pointer overhead at one uint32 per 64
	// postings while a probe decodes at most 64 pairs.
	blockShift = 6
	blockSize  = 1 << blockShift
	blockMask  = blockSize - 1
)

// PostingList is one immutable compressed postings list. The zero value
// is an empty list. Lists are built once (compressPostings) and never
// modified, so any number of goroutines may read one concurrently through
// their own cursors.
type PostingList struct {
	count int
	level int32
	// id slots the list into the matcher's per-state decode cache in O(1)
	// (cache entries verify the list pointer, so collisions only evict).
	id    uint32
	nodes []*xmltree.Node // one per posting, document order

	// blockOff[b-1] is the byte offset of block b's opening pair within
	// data; block 0 starts at offset 0. Nil for single-block lists.
	blockOff []uint32
	data     []byte
}

// compressPostings encodes ps into the block-compressed representation.
// ps must be sorted by Start with distinct starts and share one level (a
// per-path or per-value-key list always does). The input slice is not
// retained.
func compressPostings(ps []Posting) *PostingList {
	if len(ps) == 0 {
		return nil
	}
	nBlocks := (len(ps) + blockSize - 1) / blockSize
	pl := &PostingList{
		count: len(ps),
		level: ps[0].Level,
		id:    nextListID.Add(1),
		nodes: make([]*xmltree.Node, len(ps)),
	}
	if nBlocks > 1 {
		pl.blockOff = make([]uint32, 0, nBlocks-1)
	}
	var buf [2 * binary.MaxVarintLen32]byte
	data := make([]byte, 0, 4*len(ps))
	for i, p := range ps {
		pl.nodes[i] = p.Node
		var n int
		if i&blockMask == 0 {
			if i > 0 {
				pl.blockOff = append(pl.blockOff, uint32(len(data)))
			}
			n = binary.PutUvarint(buf[:], uint64(p.Start))
		} else {
			n = binary.PutUvarint(buf[:], uint64(p.Start-ps[i-1].Start))
		}
		n += binary.PutUvarint(buf[n:], uint64(p.End-p.Start))
		data = append(data, buf[:n]...)
	}
	// Re-slice to exact length so resident accounting reflects reality.
	pl.data = append(make([]byte, 0, len(data)), data...)
	return pl
}

// Len returns the number of postings.
func (pl *PostingList) Len() int {
	if pl == nil {
		return 0
	}
	return pl.count
}

// blocks returns the number of blocks of the list.
func (pl *PostingList) blocks() int { return len(pl.blockOff) + 1 }

// blockDataOff returns the byte offset of block b's opening pair.
func (pl *PostingList) blockDataOff(b int) int {
	if b == 0 {
		return 0
	}
	return int(pl.blockOff[b-1])
}

// blockFirstStart reads block b's first start without decoding the block
// — the skip-pointer probe of the galloping seeks.
func (pl *PostingList) blockFirstStart(b int) int32 {
	v, _ := uvarint(pl.data, pl.blockDataOff(b))
	return int32(v)
}

// decodeBlock decodes block b's region numbers into the starts/ends
// arrays and returns the number of postings decoded. Node pointers are
// deliberately not touched: decoding into plain int32 arrays keeps GC
// write barriers out of the merge hot loop, and emission fetches nodes
// straight from pl.nodes. The data is trusted (only compressPostings
// produces it), so the decode loop has no error paths.
func (pl *PostingList) decodeBlock(b int, starts, ends *[blockSize]int32) int {
	base := b << blockShift
	n := pl.count - base
	if n > blockSize {
		n = blockSize
	}
	data := pl.data
	off := pl.blockDataOff(b)
	ds, k := uvarint(data, off)
	off += k
	de, k := uvarint(data, off)
	off += k
	start := int32(ds)
	starts[0], ends[0] = start, start+int32(de)
	for i := 1; i < n; i++ {
		ds, k = uvarint(data, off)
		off += k
		de, k = uvarint(data, off)
		off += k
		start += int32(ds)
		starts[i], ends[i] = start, start+int32(de)
	}
	return n
}

// uvarint is binary.Uvarint specialized to resume at an offset without
// re-slicing (the decode hot loop).
func uvarint(data []byte, off int) (uint64, int) {
	var x uint64
	var s uint
	for i := off; i < len(data); i++ {
		b := data[i]
		if b < 0x80 {
			return x | uint64(b)<<s, i - off + 1
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, 0
}

// appendAll decodes the whole list onto buf and returns it.
func (pl *PostingList) appendAll(buf []Posting) []Posting {
	return pl.appendRange(buf, 0, pl.Len())
}

// appendRange decodes postings [lo, hi) onto buf and returns it.
func (pl *PostingList) appendRange(buf []Posting, lo, hi int) []Posting {
	if pl == nil || lo >= hi {
		return buf
	}
	var starts, ends [blockSize]int32
	for b := lo >> blockShift; b<<blockShift < hi; b++ {
		n := pl.decodeBlock(b, &starts, &ends)
		base := b << blockShift
		s, e := 0, n
		if base < lo {
			s = lo - base
		}
		if base+e > hi {
			e = hi - base
		}
		for i := s; i < e; i++ {
			buf = append(buf, Posting{Start: starts[i], End: ends[i], Level: pl.level, Node: pl.nodes[base+i]})
		}
	}
	return buf
}

// residentBytes is the list's actual in-memory footprint (postings data
// only; map-key strings are accounted by the caller).
func (pl *PostingList) residentBytes() int {
	if pl == nil {
		return 0
	}
	return len(pl.nodes)*8 + len(pl.data) + len(pl.blockOff)*4
}

// flatBytes is the hypothetical footprint of the same list as a plain
// []Posting — the denominator of the compression ratio.
func (pl *PostingList) flatBytes() int { return pl.Len() * postingBytes }

// cursor is a one-block decode window over a PostingList, the unit of
// lazy decoding: sequential scans decode each block exactly once, and
// galloping seeks decode only the block a probe lands in. The window
// holds region numbers only — pointer-free, so decoding is write-barrier
// free — and node pointers are read straight off the list at emission.
// Cursors are cheap to reset and live in pooled matcher state; they must
// not be shared between goroutines.
type cursor struct {
	pl      *PostingList
	blk     int    // decoded block index, -1 when none
	decoded uint64 // blocks decoded since takeDecoded, for the eval tally
	starts  [blockSize]int32
	ends    [blockSize]int32
}

func (c *cursor) reset(pl *PostingList) {
	c.pl = pl
	c.blk = -1
}

// takeDecoded returns and clears the decoded-block count — read once per
// evaluation when the tally flushes.
func (c *cursor) takeDecoded() uint64 {
	n := c.decoded
	c.decoded = 0
	return n
}

// ensure decodes posting i's block into the window.
func (c *cursor) ensure(i int) {
	if b := i >> blockShift; b != c.blk {
		c.pl.decodeBlock(b, &c.starts, &c.ends)
		c.blk = b
		c.decoded++
	}
}

// at returns posting i, node pointer included.
func (c *cursor) at(i int) Posting {
	c.ensure(i)
	return Posting{Start: c.starts[i&blockMask], End: c.ends[i&blockMask], Level: c.pl.level, Node: c.pl.nodes[i]}
}

// startAt and endAt return posting i's region numbers without touching
// the node array — the merge passes' accessors.
func (c *cursor) startAt(i int) int32 {
	c.ensure(i)
	return c.starts[i&blockMask]
}

func (c *cursor) endAt(i int) int32 {
	c.ensure(i)
	return c.ends[i&blockMask]
}

// nodeAt returns posting i's node without decoding any region block.
func (c *cursor) nodeAt(i int) *xmltree.Node { return c.pl.nodes[i] }

// seekStartGT returns the smallest index ≥ from whose posting has
// Start > v, galloping block-wise: an exponential probe over the
// block-opening skip pointers brackets the target, a binary search
// narrows it to one block, and only that block is decoded.
func (c *cursor) seekStartGT(v int32, from int) int {
	n := c.pl.Len()
	if from >= n {
		return n
	}
	nb := c.pl.blocks()
	b0 := from >> blockShift
	b := b0 + gallop(nb-b0, func(i int) bool { return c.pl.blockFirstStart(b0+i) > v })
	if b == b0 {
		// from's own block already opens past v, so from qualifies.
		return from
	}
	// The answer lives in block b-1 (every earlier block's postings stay
	// below block b-1's opening start ≤ v) or at block b's boundary.
	lo := (b - 1) << blockShift
	if from > lo {
		lo = from
	}
	hi := b << blockShift
	if hi > n {
		hi = n
	}
	for i := lo; i < hi; i++ {
		if c.startAt(i) > v {
			return i
		}
	}
	return hi
}

// gallop returns the smallest i in [0, n] with ok(i), assuming ok is
// monotone (false… then true). It probes exponentially from 0 — seeks in
// the merge passes are monotone, so the answer is usually near the cursor
// — then binary-searches the bracketed range.
func gallop(n int, ok func(int) bool) int {
	if n <= 0 || ok(0) {
		return 0
	}
	lo, hi := 0, 1
	for hi < n && !ok(hi) {
		lo = hi
		hi <<= 1
	}
	if hi > n {
		hi = n
	}
	// Invariant: !ok(lo), ok(hi) if hi < n.
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if ok(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// postingBufPool recycles posting scratch buffers across evaluations and
// index builds — the "pooled posting buffers" that take the indexed PTQ
// path's per-evaluation allocations out of the hot loop.
var postingBufPool = sync.Pool{
	New: func() any { b := make([]Posting, 0, 256); return &b },
}

func getPostingBuf() *[]Posting {
	return postingBufPool.Get().(*[]Posting)
}

func putPostingBuf(b *[]Posting) {
	*b = (*b)[:0]
	postingBufPool.Put(b)
}
