// Package cover implements the negative and positive cover structures of
// EulerFD (Sections IV-D and IV-E): per-RHS extended binary set-tries that
// store LHS attribute sets and answer specialization (superset) and
// generalization (subset) queries quickly, plus the inversion operator of
// Algorithm 3.
//
// The tree follows the extended binary tree of Bleifuß et al. (AID-FD),
// which the paper adopts: internal nodes split on one attribute — LHSs
// containing the attribute live in the right subtree, the rest in the left
// — and every internal node caches the intersection and union of all
// descendant sets so that subset searches can be cut off early (when the
// intersection is not included in the probe) and superset searches likewise
// (when the probe is not included in the union).
package cover

import (
	"eulerfd/internal/fdset"
)

// Tree stores a family of attribute sets (LHSs for one fixed RHS) and
// supports subset/superset queries, removal, and enumeration. The zero
// value is not usable; call NewTree.
type Tree struct {
	root *node
	size int
	// rank orders attributes when choosing split attributes; lower rank
	// splits first. The paper sorts LHS attributes by ascending frequency
	// so that rare attributes discriminate near the root.
	rank []int
	// members mirrors the stored sets for O(1) exact-membership checks;
	// AttrSet is comparable, so it keys the map directly. The inversion
	// fast path (enumerating potential blockers of a candidate) depends
	// on this.
	members map[fdset.AttrSet]struct{}
}

// node is one set-trie node. A leaf holds exactly one stored set, which
// is its own intersection and union, so it lives in inter (= union) and
// needs no field of its own: that keeps a node at 120 bytes, inside the
// 128-byte allocation size class instead of the 176-byte one.
type node struct {
	attr        int // split attribute; -1 marks a leaf
	left, right *node
	inter       fdset.AttrSet // intersection of all descendant sets
	union       fdset.AttrSet // union of all descendant sets
}

func (n *node) isLeaf() bool { return n.attr < 0 }

// set returns the stored set of a leaf.
func (n *node) set() fdset.AttrSet { return n.inter }

func newLeaf(s fdset.AttrSet) *node {
	return &node{attr: -1, inter: s, union: s}
}

func (n *node) recompute() {
	switch {
	case n.left == nil:
		n.inter, n.union = n.right.inter, n.right.union
	case n.right == nil:
		n.inter, n.union = n.left.inter, n.left.union
	default:
		n.inter = n.left.inter.Intersect(n.right.inter)
		n.union = n.left.union.Union(n.right.union)
	}
}

// NewTree builds an empty tree. rank, when non-nil, maps attribute index to
// split priority (lower first); nil means natural attribute order.
func NewTree(rank []int) *Tree {
	return &Tree{rank: rank, members: make(map[fdset.AttrSet]struct{})}
}

// Size returns the number of stored sets.
func (t *Tree) Size() int { return t.size }

func (t *Tree) rankOf(a int) int {
	if t.rank != nil && a < len(t.rank) {
		return t.rank[a]
	}
	return a
}

// splitAttr picks the discriminating attribute between two distinct sets:
// the lowest-rank attribute of their symmetric difference.
func (t *Tree) splitAttr(a, b fdset.AttrSet) int {
	sym := a.Diff(b).Union(b.Diff(a))
	best, bestRank := -1, int(^uint(0)>>1)
	sym.ForEach(func(x int) bool {
		if r := t.rankOf(x); r < bestRank {
			best, bestRank = x, r
		}
		return true
	})
	return best
}

// Add inserts s, reporting whether it was not already present.
func (t *Tree) Add(s fdset.AttrSet) bool {
	if _, dup := t.members[s]; dup {
		return false
	}
	t.members[s] = struct{}{}
	t.size++
	if t.root == nil {
		t.root = newLeaf(s)
		return true
	}
	// Iterative descent. Adding a set can only shrink intersections and
	// grow unions along the path, so aggregates are updated on the way
	// down — no unwind needed. Near the root they rarely change, so each
	// is written only when s changes it, sparing the store.
	n := t.root
	var parent *node
	fromRight := false
	for !n.isLeaf() {
		if !n.inter.IsSubsetOf(s) {
			n.inter = n.inter.Intersect(s)
		}
		if !s.IsSubsetOf(n.union) {
			n.union = n.union.Union(s)
		}
		parent = n
		if s.Has(n.attr) {
			n, fromRight = n.right, true
		} else {
			n, fromRight = n.left, false
		}
	}
	// Split the leaf on an attribute that discriminates it from s.
	a := t.splitAttr(n.set(), s)
	in := &node{attr: a}
	if n.set().Has(a) {
		in.right, in.left = n, newLeaf(s)
	} else {
		in.left, in.right = n, newLeaf(s)
	}
	in.recompute()
	switch {
	case parent == nil:
		t.root = in
	case fromRight:
		parent.right = in
	default:
		parent.left = in
	}
	return true
}

// Contains reports whether s is stored exactly.
func (t *Tree) Contains(s fdset.AttrSet) bool {
	_, ok := t.members[s]
	return ok
}

// ContainsSuperset reports whether some stored set Z satisfies Z ⊇ s: the
// findSpecialization check of Algorithm 2.
func (t *Tree) ContainsSuperset(s fdset.AttrSet) bool {
	return containsSuperset(t.root, s)
}

func containsSuperset(n *node, s fdset.AttrSet) bool {
	if n == nil || !s.IsSubsetOf(n.union) {
		return false
	}
	if n.isLeaf() {
		return s.IsSubsetOf(n.set())
	}
	if s.Has(n.attr) {
		// Supersets of s must contain n.attr, so only the right subtree.
		return containsSuperset(n.right, s)
	}
	return containsSuperset(n.right, s) || containsSuperset(n.left, s)
}

// ContainsSubset reports whether some stored set Y satisfies Y ⊆ s: the
// findGeneralization check of Algorithm 3.
func (t *Tree) ContainsSubset(s fdset.AttrSet) bool {
	_, ok := findSubset(t.root, s)
	return ok
}

// FindSubset returns one stored set Y ⊆ s, if any.
func (t *Tree) FindSubset(s fdset.AttrSet) (fdset.AttrSet, bool) {
	return findSubset(t.root, s)
}

func findSubset(n *node, s fdset.AttrSet) (fdset.AttrSet, bool) {
	if n == nil || !n.inter.IsSubsetOf(s) {
		return fdset.AttrSet{}, false
	}
	// Positive shortcut: when every attribute stored below is in s, any
	// leaf is a subset — dense covers hit this constantly.
	if n.union.IsSubsetOf(s) {
		for !n.isLeaf() {
			if n.left != nil {
				n = n.left
			} else {
				n = n.right
			}
		}
		return n.set(), true
	}
	if n.isLeaf() {
		// A leaf's set is its union, which the shortcut found ⊄ s.
		return fdset.AttrSet{}, false
	}
	if !s.Has(n.attr) {
		// Subsets of s cannot contain n.attr, so only the left subtree.
		return findSubset(n.left, s)
	}
	if y, ok := findSubset(n.left, s); ok {
		return y, true
	}
	return findSubset(n.right, s)
}

// ContainsSubsetWithAttr reports whether some stored Y satisfies
// Y ⊆ s ∧ attr ∈ Y. The inversion operator uses it for candidate
// minimality checks: any stored subset of general ∪ {attr} must contain
// attr (the tree is an antichain and general itself was just removed),
// so subtrees whose union lacks attr are pruned wholesale.
func (t *Tree) ContainsSubsetWithAttr(s fdset.AttrSet, attr int) bool {
	return findSubsetWith(t.root, s, attr)
}

func findSubsetWith(n *node, s fdset.AttrSet, attr int) bool {
	if n == nil || !n.union.Has(attr) || !n.inter.IsSubsetOf(s) {
		return false
	}
	if n.isLeaf() {
		// A leaf's set is its union and its intersection, both checked.
		return true
	}
	if n.attr == attr {
		// Sets containing attr live only in the right subtree.
		return findSubsetWith(n.right, s, attr)
	}
	if !s.Has(n.attr) {
		return findSubsetWith(n.left, s, attr)
	}
	return findSubsetWith(n.left, s, attr) || findSubsetWith(n.right, s, attr)
}

// RemoveSubsets deletes every stored set Y ⊆ s and returns the removed
// sets. Ncover construction uses it to discard generalizations of a newly
// added non-FD.
func (t *Tree) RemoveSubsets(s fdset.AttrSet) []fdset.AttrSet {
	var removed []fdset.AttrSet
	var walk func(n *node) *node
	walk = func(n *node) *node {
		if n == nil || !n.inter.IsSubsetOf(s) {
			return n
		}
		if n.isLeaf() {
			// A leaf's set is its intersection, checked above.
			removed = append(removed, n.set())
			return nil
		}
		n.left = walk(n.left)
		if s.Has(n.attr) {
			n.right = walk(n.right)
		}
		if n.left == nil && n.right == nil {
			return nil
		}
		if n.left == nil {
			return n.right
		}
		if n.right == nil {
			return n.left
		}
		n.recompute()
		return n
	}
	t.root = walk(t.root)
	t.size -= len(removed)
	for _, s := range removed {
		delete(t.members, s)
	}
	return removed
}

// Remove deletes the exact set s, reporting whether it was present.
func (t *Tree) Remove(s fdset.AttrSet) bool {
	if _, ok := t.members[s]; !ok {
		return false
	}
	removed := false
	var walk func(n *node) *node
	walk = func(n *node) *node {
		if n == nil {
			return nil
		}
		if n.isLeaf() {
			if n.set() == s {
				removed = true
				return nil
			}
			return n
		}
		if s.Has(n.attr) {
			n.right = walk(n.right)
		} else {
			n.left = walk(n.left)
		}
		if n.left == nil && n.right == nil {
			return nil
		}
		if n.left == nil {
			return n.right
		}
		if n.right == nil {
			return n.left
		}
		n.recompute()
		return n
	}
	t.root = walk(t.root)
	if removed {
		t.size--
		delete(t.members, s)
	}
	return removed
}

// ForEach visits every stored set; it stops early when fn returns false.
func (t *Tree) ForEach(fn func(fdset.AttrSet) bool) {
	var walk func(n *node) bool
	walk = func(n *node) bool {
		if n == nil {
			return true
		}
		if n.isLeaf() {
			return fn(n.set())
		}
		return walk(n.left) && walk(n.right)
	}
	walk(t.root)
}

// Sets returns all stored sets in tree order.
func (t *Tree) Sets() []fdset.AttrSet {
	out := make([]fdset.AttrSet, 0, t.size)
	t.ForEach(func(s fdset.AttrSet) bool {
		out = append(out, s)
		return true
	})
	return out
}
