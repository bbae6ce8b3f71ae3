package core

import (
	"fmt"
	"math"
	"sort"

	"xmatch/internal/mapping"
	"xmatch/internal/schema"
)

// Options configure block-tree construction (Algorithm 1 / Algorithm 2).
type Options struct {
	// Tau is the confidence threshold τ: a c-block must be shared by at
	// least τ·|M| mappings. Defaults to 0.2.
	Tau float64
	// MaxB bounds the total number of c-blocks created (MAX_B).
	// Defaults to 500.
	MaxB int
	// MaxF bounds the number of failed block-making attempts per
	// non-leaf node (MAX_F). Defaults to 500.
	MaxF int

	// NoLemma2Pruning disables the short-circuit that skips a node whose
	// children produced no c-blocks (Lemma 2). For ablation benchmarks
	// only; results are identical, construction just wastes work.
	NoLemma2Pruning bool
	// NoIntersectionPruning disables abandoning a partial child-block
	// combination as soon as its mapping-set intersection falls below
	// ⌈τ·|M|⌉. For ablation benchmarks only; results are identical.
	NoIntersectionPruning bool
}

// DefaultOptions are the paper's experimental defaults (Section VI-A).
func DefaultOptions() Options {
	return Options{Tau: 0.2, MaxB: 500, MaxF: 500}
}

func (o *Options) normalize() error {
	if o.Tau == 0 {
		o.Tau = 0.2
	}
	if o.Tau < 0 || o.Tau > 1 {
		return fmt.Errorf("core: tau %v outside [0,1]", o.Tau)
	}
	if o.MaxB == 0 {
		o.MaxB = 500
	}
	if o.MaxF == 0 {
		o.MaxF = 500
	}
	if o.MaxB < 0 || o.MaxF < 0 {
		return fmt.Errorf("core: MaxB/MaxF must be positive")
	}
	return nil
}

// BlockTree is the compact representation X of a set of possible mappings:
// a tree with the structure of the target schema whose nodes carry linked
// lists of c-blocks anchored there, plus the hash table H from target paths
// to block-tree nodes (Definition 3).
type BlockTree struct {
	// Set is the mapping set the tree represents.
	Set *mapping.Set
	// Blocks holds, for each target element ID, the c-blocks anchored at
	// that element.
	Blocks [][]*Block
	// Hash is H: it maps the target path of every element owning at
	// least one c-block to that element's ID.
	Hash map[string]int
	// NumBlocks is the total number of c-blocks.
	NumBlocks int
	// Opts are the construction options actually used.
	Opts Options

	minShare int // τ·|M| rounded up: minimum |b.M| for a c-block
}

// Build constructs the block tree for a mapping set (Algorithm 1): a
// post-order traversal of the target schema creates c-blocks bottom-up,
// pruning subtrees whose children have no c-blocks (Lemma 2) and composing
// parent c-blocks from child c-blocks (Lemma 1).
func Build(set *mapping.Set, opts Options) (*BlockTree, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	bt := &BlockTree{
		Set:    set,
		Blocks: make([][]*Block, set.Target.Len()),
		Hash:   make(map[string]int),
		Opts:   opts,
	}
	bt.minShare = int(math.Ceil(opts.Tau * float64(set.Len())))
	if bt.minShare < 1 {
		bt.minShare = 1
	}
	if set.Len() > 0 {
		bt.constructCBlock(set.Target.Root)
	}
	return bt, nil
}

// constructCBlock generates the c-blocks for element t and its subtree,
// returning the number of blocks created at t (function construct_c_block).
func (bt *BlockTree) constructCBlock(t *schema.Element) int {
	if t.IsLeaf() {
		n := bt.initBlocks(t)
		if n > 0 {
			bt.Hash[t.Path] = t.ID
		}
		return n
	}
	childless := false
	for _, u := range t.Children {
		if bt.constructCBlock(u) == 0 {
			childless = true
		}
	}
	if childless && !bt.Opts.NoLemma2Pruning {
		return 0 // Lemma 2: a c-block at t needs c-blocks at every child
	}
	n := bt.genNonLeaf(t)
	if n > 0 {
		bt.Hash[t.Path] = t.ID
	}
	return n
}

// initBlocks groups the mappings by the source element they assign to t and
// creates a single-correspondence block for each group with at least
// ⌈τ·|M|⌉ members (function init_block). For a leaf t these blocks are its
// c-blocks; for a non-leaf they are the temporary list of Algorithm 2.
// The blocks are attached to t's list and their count returned.
func (bt *BlockTree) initBlocks(t *schema.Element) int {
	groups := make(map[int]*mapping.IDSet)
	var order []int
	for mi, m := range bt.Set.Mappings {
		s, ok := m.SourceFor(t.ID)
		if !ok {
			continue
		}
		set, exists := groups[s]
		if !exists {
			set = mapping.NewIDSet(bt.Set.Len())
			groups[s] = set
			order = append(order, s)
		}
		set.Add(mi)
	}
	sort.Ints(order) // deterministic block order
	created := 0
	for _, s := range order {
		set := groups[s]
		if set.Len() < bt.minShare {
			continue
		}
		if bt.NumBlocks >= bt.Opts.MaxB {
			break
		}
		bt.Blocks[t.ID] = append(bt.Blocks[t.ID], &Block{
			Anchor: t.ID,
			C:      []Corr{{S: s, T: t.ID}},
			M:      set,
		})
		bt.NumBlocks++
		created++
	}
	return created
}

// genNonLeaf creates the c-blocks of a non-leaf node t (Algorithm 2): it
// combines each block of t's own correspondences with one c-block per child
// (Lemma 1), intersecting mapping-ID sets incrementally and pruning any
// partial combination whose intersection already falls below ⌈τ·|M|⌉ — the
// pruning rule that makes exhaustive combination enumeration affordable.
// Enumeration also stops after MaxF failed attempts or when MaxB total
// blocks exist.
func (bt *BlockTree) genNonLeaf(t *schema.Element) int {
	own := bt.tempBlocks(t)
	if len(own) == 0 {
		return 0
	}
	children := t.Children
	chosen := make([]*Block, len(children))
	countNew := 0
	numTrial := 0
	limitHit := false

	var rec func(k int, acc *mapping.IDSet, b *Block)
	rec = func(k int, acc *mapping.IDSet, b *Block) {
		if limitHit {
			return
		}
		if k == len(children) {
			if acc.Len() < bt.minShare {
				// Reached only when intersection pruning is disabled;
				// the combination fails the Step 12 share check.
				numTrial++
				if numTrial >= bt.Opts.MaxF {
					limitHit = true
				}
				return
			}
			if bt.NumBlocks >= bt.Opts.MaxB {
				limitHit = true
				return
			}
			// Lemma 1: C = {(s,t)} ∪ union of child block Cs;
			// M = Mt ∩ intersection of child block Ms.
			size := 1
			for _, cb := range chosen {
				size += len(cb.C)
			}
			c := make([]Corr, 0, size)
			c = append(c, b.C...)
			for _, cb := range chosen {
				c = append(c, cb.C...)
			}
			sort.Slice(c, func(i, j int) bool { return c[i].T < c[j].T })
			bt.Blocks[t.ID] = append(bt.Blocks[t.ID], &Block{
				Anchor: t.ID,
				C:      c,
				M:      acc.Clone(),
			})
			bt.NumBlocks++
			countNew++
			return
		}
		for _, cb := range bt.Blocks[children[k].ID] {
			next := acc.Intersect(cb.M)
			if next.Len() < bt.minShare && !bt.Opts.NoIntersectionPruning {
				numTrial++
				if numTrial >= bt.Opts.MaxF {
					limitHit = true
					return
				}
				continue
			}
			chosen[k] = cb
			rec(k+1, next, b)
			if limitHit {
				return
			}
		}
	}
	for _, b := range own {
		rec(0, b.M, b)
		if limitHit {
			break
		}
	}
	return countNew
}

// tempBlocks computes the temporary block list list_t of Algorithm 2: the
// groups of mappings agreeing on t's own correspondence. The minimum-share
// requirement is already applied here because intersection with child sets
// only shrinks a group — a group below the threshold can never recover.
// Unlike initBlocks, these blocks are not attached to the tree and do not
// count toward MaxB.
func (bt *BlockTree) tempBlocks(t *schema.Element) []*Block {
	groups := make(map[int]*mapping.IDSet)
	var order []int
	for mi, m := range bt.Set.Mappings {
		s, ok := m.SourceFor(t.ID)
		if !ok {
			continue
		}
		set, exists := groups[s]
		if !exists {
			set = mapping.NewIDSet(bt.Set.Len())
			groups[s] = set
			order = append(order, s)
		}
		set.Add(mi)
	}
	sort.Ints(order)
	var out []*Block
	for _, s := range order {
		set := groups[s]
		if set.Len() < bt.minShare {
			continue
		}
		out = append(out, &Block{Anchor: t.ID, C: []Corr{{S: s, T: t.ID}}, M: set})
	}
	return out
}

// FindNode looks up a target path in the hash table H and returns the
// element ID of the block-tree node for that path, or -1 (find_node).
func (bt *BlockTree) FindNode(path string) int {
	if id, ok := bt.Hash[path]; ok {
		return id
	}
	return -1
}

// Stats summarizes the block tree for the paper's Figures 9(b) and 9(c).
type Stats struct {
	NumBlocks int
	// SizeHistogram counts c-blocks by |C| (number of correspondences).
	SizeHistogram map[int]int
	// AvgSize is the mean |C| over all c-blocks.
	AvgSize float64
	// MaxSize is the largest |C|.
	MaxSize int
	// MaxCoverage is MaxSize divided by the number of target elements.
	MaxCoverage float64
}

// Stats computes block statistics.
func (bt *BlockTree) Stats() Stats {
	st := Stats{NumBlocks: bt.NumBlocks, SizeHistogram: make(map[int]int)}
	total := 0
	for _, blocks := range bt.Blocks {
		for _, b := range blocks {
			st.SizeHistogram[len(b.C)]++
			total += len(b.C)
			if len(b.C) > st.MaxSize {
				st.MaxSize = len(b.C)
			}
		}
	}
	if bt.NumBlocks > 0 {
		st.AvgSize = float64(total) / float64(bt.NumBlocks)
	}
	if n := bt.Set.Target.Len(); n > 0 {
		st.MaxCoverage = float64(st.MaxSize) / float64(n)
	}
	return st
}

// Bytes returns the storage footprint of the block tree plus its hash table
// under the byte-size model: per-element list headers, per-block storage,
// and path-keyed hash entries.
func (bt *BlockTree) Bytes() int {
	total := 8 * len(bt.Blocks) // one list head pointer per tree node
	for _, blocks := range bt.Blocks {
		for _, b := range blocks {
			total += b.Bytes()
		}
	}
	for path := range bt.Hash {
		total += len(path) + 8
	}
	return total
}

// Validate checks every c-block invariant of Definition 2 against the
// mapping set and target schema; it is used by tests and available to
// callers as a defensive integrity check. It verifies that each block's
// correspondence set covers exactly the subtree of its anchor, that every
// mapping in b.M contains b.C, that no mapping outside b.M contains b.C
// (maximality), and that |b.M| meets the confidence threshold.
func (bt *BlockTree) Validate() error {
	tgt := bt.Set.Target
	for elemID, blocks := range bt.Blocks {
		for bi, b := range blocks {
			if b.Anchor != elemID {
				return fmt.Errorf("core: block %d at element %d has anchor %d", bi, elemID, b.Anchor)
			}
			subtree := tgt.SubtreeIDs(elemID)
			if len(b.C) != len(subtree) {
				return fmt.Errorf("core: block %s covers %d corrs, subtree has %d elements", b, len(b.C), len(subtree))
			}
			inSubtree := make(map[int]bool, len(subtree))
			for _, id := range subtree {
				inSubtree[id] = true
			}
			covered := make(map[int]bool, len(b.C))
			for _, c := range b.C {
				if !inSubtree[c.T] {
					return fmt.Errorf("core: block %s includes target %d outside anchor subtree", b, c.T)
				}
				if covered[c.T] {
					return fmt.Errorf("core: block %s covers target %d twice", b, c.T)
				}
				covered[c.T] = true
			}
			if b.M.Len() < bt.minShare {
				return fmt.Errorf("core: block %s shared by %d < %d mappings", b, b.M.Len(), bt.minShare)
			}
			for mi, m := range bt.Set.Mappings {
				contains := true
				for _, c := range b.C {
					s, ok := m.SourceFor(c.T)
					if !ok || s != c.S {
						contains = false
						break
					}
				}
				if contains != b.M.Has(mi) {
					return fmt.Errorf("core: block %s membership of mapping %d is %v but containment is %v",
						b, mi, b.M.Has(mi), contains)
				}
			}
		}
	}
	return nil
}
