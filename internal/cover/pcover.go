package cover

import (
	"eulerfd/internal/fdset"
	"eulerfd/internal/pool"
)

// PCover is the positive cover: for every RHS attribute, the tree of
// minimal FD-candidate LHSs that are consistent with every non-FD inverted
// so far. It starts from the most general candidates ∅ → A and is refined
// by Invert (Algorithm 3).
type PCover struct {
	trees []*Tree
	ncols int
}

// NewPCover builds a positive cover over ncols attributes initialized with
// the most general candidate ∅ → A for every attribute A (Lines 1–2).
// rank orders split attributes as in NewTree (nil = natural order).
func NewPCover(ncols int, rank []int) *PCover {
	p := &PCover{trees: make([]*Tree, ncols), ncols: ncols}
	for i := range p.trees {
		p.trees[i] = NewTree(rank)
		p.trees[i].Add(fdset.EmptySet())
	}
	return p
}

// NumCols returns the number of attributes the cover spans.
func (p *PCover) NumCols() int { return p.ncols }

// Size returns the number of candidate FDs currently stored.
func (p *PCover) Size() int {
	n := 0
	for _, t := range p.trees {
		n += t.Size()
	}
	return n
}

// Invert removes every candidate invalidated by the non-FD (candidates
// whose LHS is a subset of the non-FD's LHS, by Lemma 1) and replaces each
// with its minimal specializations that escape the non-FD. It returns the
// number of candidates added, which feeds the GR_Pcover stopping criterion.
//
// This is Function invert of Algorithm 3 with the classical Fdep
// refinement: removed generalizations spawn only candidates
// general.lhs ∪ {attr} for attributes *outside* nonFD.lhs ∪ {rhs}.
// Algorithm 3 as printed also spawns attributes inside nonFD.lhs, whose
// offspring remain generalizations of the non-FD and are immediately
// re-found, removed, and re-expanded by the loop — converging to exactly
// the same cover (their eventual escapes are supersets of the direct
// escapes and fail the minimality check). Skipping them changes nothing
// in the output and removes the quadratic churn on FD-dense relations;
// BenchmarkAblationPaperInversion quantifies the gap.
func (p *PCover) Invert(nonFD fdset.FD) int {
	t := p.trees[nonFD.RHS]
	// All invalidated generalizations come out in one traversal. Because
	// every replacement candidate contains an attribute outside the
	// non-FD's LHS, none of them is itself a generalization of the
	// non-FD, so a single removal pass suffices.
	generals := t.RemoveSubsets(nonFD.LHS)
	added := 0
	// Any blocking subset of a candidate general ∪ {attr} must contain
	// attr: the tree is an antichain, so proper subsets of general are
	// not stored, and general itself was just removed. A blocker is
	// therefore S ∪ {attr} for some S ⊆ general. For small generals it is
	// far cheaper to enumerate those 2^|general| sets against the tree's
	// membership table than to search the tree.
	const enumLimit = 6
	var subsets []fdset.AttrSet
	for _, general := range generals {
		attrs := general.Attrs()
		subsets = subsets[:0]
		if len(attrs) <= enumLimit {
			for mask := 0; mask < 1<<len(attrs); mask++ {
				var sub fdset.AttrSet
				for b := 0; b < len(attrs); b++ {
					if mask&(1<<b) != 0 {
						sub.Add(attrs[b])
					}
				}
				subsets = append(subsets, sub)
			}
		}
		for attr := 0; attr < p.ncols; attr++ {
			if attr == nonFD.RHS || nonFD.LHS.Has(attr) {
				continue
			}
			candidate := general.With(attr)
			blocked := false
			if len(subsets) > 0 {
				for _, sub := range subsets {
					if t.Contains(sub.With(attr)) {
						blocked = true
						break
					}
				}
			} else {
				blocked = t.ContainsSubsetWithAttr(candidate, attr)
			}
			if blocked {
				continue
			}
			t.Add(candidate)
			added++
		}
	}
	return added
}

// InvertLiteral is Function invert of Algorithm 3 exactly as printed in
// the paper: removed generalizations spawn candidates for every attribute
// outside general.lhs ∪ {rhs}, including attributes still inside the
// non-FD's LHS (those offspring are re-found and removed by the loop).
// Kept for the inversion ablation; produces the same cover as Invert.
func (p *PCover) InvertLiteral(nonFD fdset.FD) int {
	t := p.trees[nonFD.RHS]
	added := 0
	for {
		general, ok := t.FindSubset(nonFD.LHS)
		if !ok {
			break
		}
		t.Remove(general)
		for attr := 0; attr < p.ncols; attr++ {
			if attr == nonFD.RHS || general.Has(attr) {
				continue
			}
			candidate := general.With(attr)
			if t.ContainsSubset(candidate) {
				continue
			}
			t.Add(candidate)
			added++
		}
	}
	return added
}

// InvertAll applies Invert over a batch of non-FDs and returns the total
// number of candidates added.
func (p *PCover) InvertAll(nonFDs []fdset.FD) int {
	added := 0
	for _, f := range nonFDs {
		added += p.Invert(f)
	}
	return added
}

// InvertAllPool is InvertAll sharded by RHS over a shared worker pool (nil
// pool = sequential). Every per-RHS tree is touched by exactly one
// worker, so no locking is needed, and the final cover is identical to
// the sequential result (the cover is determined by the set of inverted
// non-FDs, not their order). Per-shard added counts land in a private
// results slot, so no synchronization beyond the pool's own join is
// needed.
func (p *PCover) InvertAllPool(nonFDs []fdset.FD, pl *pool.Pool) int {
	if pl == nil {
		return p.InvertAll(nonFDs)
	}
	byRHS := make([][]fdset.FD, p.ncols)
	for _, f := range nonFDs {
		byRHS[f.RHS] = append(byRHS[f.RHS], f)
	}
	shards := byRHS[:0]
	for _, shard := range byRHS {
		if len(shard) > 0 {
			shards = append(shards, shard)
		}
	}
	results := make([]int, len(shards))
	pl.Do(len(shards), func(k int) {
		n := 0
		for _, f := range shards[k] {
			n += p.Invert(f)
		}
		results[k] = n
	})
	added := 0
	for _, n := range results {
		added += n
	}
	return added
}

// Rebuild re-derives the per-RHS candidate tree from scratch: reset to
// the most general candidate ∅ and invert every given non-FD LHS. It is
// the retirement patch of incremental maintenance — when deletes retire
// non-FDs, inversion cannot run backwards (candidates destroyed by the
// retired set must reappear), so the affected RHS re-inverts from the
// patched negative cover while every other RHS tree is untouched. The
// result is independent of the order of nonFDs (the cover is determined
// by the set of inverted non-FDs), and touching only trees[rhs] makes
// Rebuild safe to run for distinct RHS values concurrently.
func (p *PCover) Rebuild(rhs int, nonFDs []fdset.AttrSet) {
	t := NewTree(p.trees[rhs].rank)
	t.Add(fdset.EmptySet())
	p.trees[rhs] = t
	for _, lhs := range nonFDs {
		p.Invert(fdset.FD{LHS: lhs, RHS: rhs})
	}
}

// FDs returns the candidate set as minimal, non-trivial FDs, in a frozen
// set. Candidates whose LHS covers every other attribute are kept: a key
// is a valid LHS. Each tree holds distinct sets and the trees are
// disjoint by RHS, so the FDs go straight into the frozen slice without a
// dedupe map.
func (p *PCover) FDs() *fdset.Set {
	fds := make([]fdset.FD, 0, p.Size())
	for rhs, t := range p.trees {
		t.ForEach(func(lhs fdset.AttrSet) bool {
			fds = append(fds, fdset.FD{LHS: lhs, RHS: rhs})
			return true
		})
	}
	return fdset.NewFrozenSet(fds)
}

// Tree exposes the per-RHS candidate tree.
func (p *PCover) Tree(rhs int) *Tree { return p.trees[rhs] }
