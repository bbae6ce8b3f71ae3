package core

import (
	"fmt"

	"xmatch/internal/mapping"
)

// CompressedMapping is one mapping after remove_duplicate_corr (Algorithm 1
// Step 5): correspondences covered by a shared block are replaced with a
// pointer to the block, the rest remain inline.
type CompressedMapping struct {
	// BlockRefs are the shared blocks this mapping points into, in the
	// pre-order in which compression applied them.
	BlockRefs []*Block
	// Residual are the correspondences not covered by any applied block,
	// sorted by target element ID.
	Residual []Corr
}

// Compressed is a mapping set stored through the block tree: the tree, the
// hash table, and the per-mapping compressed forms.
type Compressed struct {
	Tree     *BlockTree
	Mappings []CompressedMapping
}

// Compress performs the mapping compression of Algorithm 1: a pre-order
// traversal of the block tree replaces, in every mapping of each c-block,
// the correspondences covered by the block with a pointer to the block. A
// block is applied to a mapping only if none of its correspondences was
// already claimed by an earlier (larger, ancestor-anchored) block, so each
// correspondence is stored exactly once per mapping.
func (bt *BlockTree) Compress() *Compressed {
	set := bt.Set
	nMap := set.Len()
	refs := make([][]*Block, nMap)
	// coveredTargets[mi] marks target element IDs already claimed.
	covered := make([]map[int]bool, nMap)
	for i := range covered {
		covered[i] = make(map[int]bool)
	}
	// Pre-order over the target schema = ascending element ID.
	for elemID := 0; elemID < len(bt.Blocks); elemID++ {
		for _, b := range bt.Blocks[elemID] {
			for _, mi := range b.M.IDs() {
				conflict := false
				for _, c := range b.C {
					if covered[mi][c.T] {
						conflict = true
						break
					}
				}
				if conflict {
					continue
				}
				for _, c := range b.C {
					covered[mi][c.T] = true
				}
				refs[mi] = append(refs[mi], b)
			}
		}
	}
	out := &Compressed{Tree: bt, Mappings: make([]CompressedMapping, nMap)}
	for mi, m := range set.Mappings {
		cm := &out.Mappings[mi]
		cm.BlockRefs = refs[mi]
		for _, p := range m.Pairs {
			if !covered[mi][p.T] {
				cm.Residual = append(cm.Residual, Corr{S: p.S, T: p.T})
			}
		}
	}
	return out
}

// Bytes returns B: the total bytes to store the block tree, the hash table
// and the mappings with shared correspondences removed — the numerator of
// the compression-ratio metric of Figure 9(a).
func (c *Compressed) Bytes() int {
	total := c.Tree.Bytes()
	for _, cm := range c.Mappings {
		total += mapping.MappingOverhead +
			mapping.BlockRefBytes*len(cm.BlockRefs) +
			mapping.CorrBytes*len(cm.Residual)
	}
	return total
}

// CompressionRatio returns 1 − B/raw, the fraction of space saved by
// representing the mapping set with the block tree rather than verbatim.
// It can be negative when blocks are too small or too rarely shared to
// amortize their own storage.
func (c *Compressed) CompressionRatio() float64 {
	raw := c.Tree.Set.RawBytes()
	if raw == 0 {
		return 0
	}
	return 1 - float64(c.Bytes())/float64(raw)
}

// String summarizes the compressed representation.
func (c *Compressed) String() string {
	return fmt.Sprintf("compressed{blocks=%d bytes=%d ratio=%.2f%%}",
		c.Tree.NumBlocks, c.Bytes(), 100*c.CompressionRatio())
}
