package fdset

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// FD is a functional dependency LHS → RHS where RHS is a single attribute
// index. FD is comparable and can key maps.
type FD struct {
	LHS AttrSet
	RHS int
}

// NewFD builds an FD from LHS attribute indices and an RHS attribute.
func NewFD(lhs []int, rhs int) FD {
	return FD{LHS: NewAttrSet(lhs...), RHS: rhs}
}

// IsTrivial reports whether the RHS appears in the LHS (Definition 4).
func (f FD) IsTrivial() bool { return f.LHS.Has(f.RHS) }

// Generalizes reports whether f generalizes g: same RHS and f.LHS ⊆ g.LHS
// (Definition 3; a set generalizes itself here).
func (f FD) Generalizes(g FD) bool { return f.RHS == g.RHS && f.LHS.IsSubsetOf(g.LHS) }

// Specializes reports whether f specializes g: same RHS and f.LHS ⊇ g.LHS.
func (f FD) Specializes(g FD) bool { return g.Generalizes(f) }

// String renders the FD with attribute indices, e.g. "{0,2} -> 4".
func (f FD) String() string { return fmt.Sprintf("%s -> %d", f.LHS, f.RHS) }

// Format renders the FD using attribute names, e.g. "[Gender Medicine] -> BloodPressure".
func (f FD) Format(names []string) string {
	rhs := fmt.Sprintf("#%d", f.RHS)
	if f.RHS >= 0 && f.RHS < len(names) {
		rhs = names[f.RHS]
	}
	return f.LHS.Names(names) + " -> " + rhs
}

// Set is a collection of FDs with set semantics. The zero value is empty
// and ready to use via Add.
//
// A Set has two forms. The frozen form holds the FDs as one canonical
// slice (sorted by Less, no duplicates) and no map; NewFrozenSet builds
// it, and discovered covers come back in it. Len, Contains, Slice,
// ForEach, Equal, Clone and MarshalJSON read the slice directly, Contains
// by binary search. The first Add, Remove of a member, or Minimize thaws
// the set into the map form, which serves writes. Reads never change the
// form and the frozen slice is never written, so any number of
// goroutines may read one set at once.
type Set struct {
	m      map[FD]struct{} // map form; nil while the set is frozen
	sorted []FD            // frozen form; unused once m is set
}

// NewSet returns a Set pre-populated with the given FDs.
func NewSet(fds ...FD) *Set {
	s := &Set{m: make(map[FD]struct{}, len(fds))}
	for _, f := range fds {
		s.m[f] = struct{}{}
	}
	return s
}

// NewFrozenSet returns the frozen set of fds. It sorts fds in place,
// drops duplicates, and keeps the slice, so the caller must not use fds
// afterwards.
func NewFrozenSet(fds []FD) *Set {
	SortFDs(fds)
	return &Set{sorted: slices.Compact(fds)}
}

// thaw converts a frozen set to the map form ahead of a write. It leaves
// the frozen slice untouched: clones may still share it.
func (s *Set) thaw() {
	if s.m != nil {
		return
	}
	s.m = make(map[FD]struct{}, len(s.sorted))
	for _, f := range s.sorted {
		s.m[f] = struct{}{}
	}
	s.sorted = nil
}

// Add inserts f. It reports whether f was not already present.
func (s *Set) Add(f FD) bool {
	s.thaw()
	if _, ok := s.m[f]; ok {
		return false
	}
	s.m[f] = struct{}{}
	return true
}

// Remove deletes f. It reports whether f was present.
func (s *Set) Remove(f FD) bool {
	if !s.Contains(f) {
		return false
	}
	s.thaw()
	delete(s.m, f)
	return true
}

// Contains reports whether f is in the set.
func (s *Set) Contains(f FD) bool {
	if s == nil {
		return false
	}
	if s.m == nil {
		_, ok := slices.BinarySearchFunc(s.sorted, f, compare)
		return ok
	}
	_, ok := s.m[f]
	return ok
}

// Len returns the number of FDs in the set.
func (s *Set) Len() int {
	switch {
	case s == nil:
		return 0
	case s.m == nil:
		return len(s.sorted)
	}
	return len(s.m)
}

// Slice returns the FDs in a deterministic order: ascending RHS, then by
// LHS cardinality, then by the ascending attribute list of the LHS. The
// slice is the caller's to change.
func (s *Set) Slice() []FD {
	if s == nil {
		return nil
	}
	if s.m == nil {
		// Non-nil even when empty, as the map form's is: encoding/json
		// writes a nil slice as null, not [].
		return append(make([]FD, 0, len(s.sorted)), s.sorted...)
	}
	out := make([]FD, 0, len(s.m))
	for f := range s.m {
		out = append(out, f)
	}
	SortFDs(out)
	return out
}

// ForEach calls fn for every FD in the deterministic order of Slice
// (ascending RHS, then LHS cardinality, then attribute list). Iterating
// the underlying map directly would leak Go's randomized map order into
// callers' output (determinism invariant I1).
func (s *Set) ForEach(fn func(FD)) {
	for _, f := range s.canonical() {
		fn(f)
	}
}

// canonical returns the FDs in Slice order: the frozen slice itself,
// which the caller must not write, or a sorted copy of the map.
func (s *Set) canonical() []FD {
	if s != nil && s.m == nil {
		return s.sorted
	}
	return s.Slice()
}

// Clone returns an independent copy of the set. The copy of a frozen set
// shares its slice, which neither set ever writes.
func (s *Set) Clone() *Set {
	switch {
	case s == nil:
		return &Set{}
	case s.m == nil:
		return &Set{sorted: s.sorted}
	}
	c := &Set{m: make(map[FD]struct{}, len(s.m))}
	for f := range s.m {
		c.m[f] = struct{}{}
	}
	return c
}

// Equal reports whether s and t contain exactly the same FDs.
func (s *Set) Equal(t *Set) bool {
	if s.Len() != t.Len() {
		return false
	}
	if s == nil || t == nil {
		return true
	}
	if s.m == nil {
		if t.m == nil {
			return slices.Equal(s.sorted, t.sorted)
		}
		s, t = t, s
	}
	for f := range s.m {
		if !t.Contains(f) {
			return false
		}
	}
	return true
}

// Minimize removes from the set every FD that is specialized by another FD
// with the same RHS (i.e. keeps only minimal FDs), and every trivial FD.
// It returns the receiver for chaining.
func (s *Set) Minimize() *Set {
	if s == nil {
		return s
	}
	s.thaw()
	byRHS := make(map[int][]FD)
	for f := range s.m {
		if f.IsTrivial() {
			delete(s.m, f)
			continue
		}
		byRHS[f.RHS] = append(byRHS[f.RHS], f)
	}
	// The final set is order-independent, but iterating byRHS in sorted key
	// order keeps the whole method a deterministic computation (and keeps
	// the maporder analyzer vacuously true here).
	rhss := make([]int, 0, len(byRHS))
	for rhs := range byRHS {
		rhss = append(rhss, rhs)
	}
	sort.Ints(rhss)
	for _, rhs := range rhss {
		fds := byRHS[rhs]
		// Sort by Less (LHS size ascending, then attribute order) so that
		// any generalization of f precedes f and the scan order does not
		// inherit map iteration order; a linear scan per FD is fine for
		// test-scale sets.
		SortFDs(fds)
		for i, f := range fds {
			for j := 0; j < i; j++ {
				g := fds[j]
				if !s.Contains(g) {
					continue
				}
				if g.LHS.IsProperSubsetOf(f.LHS) {
					delete(s.m, f)
					break
				}
			}
		}
	}
	return s
}

// Less orders FDs deterministically: ascending RHS, then LHS cardinality,
// then lexicographic attribute order of the LHS.
func Less(a, b FD) bool { return compare(a, b) < 0 }

// compare is the three-way form of Less.
func compare(a, b FD) int {
	if a.RHS != b.RHS {
		return cmp.Compare(a.RHS, b.RHS)
	}
	if c := cmp.Compare(a.LHS.Count(), b.LHS.Count()); c != 0 {
		return c
	}
	return compareSameCount(a.LHS, b.LHS)
}

// compareSameCount orders two sets of equal cardinality by their
// ascending attribute lists. The lists agree below the lowest attribute
// in which the sets differ, and there the set holding it has the smaller
// element, so that set sorts first.
func compareSameCount(a, b AttrSet) int {
	for i, aw := range a.w {
		if d := aw ^ b.w[i]; d != 0 {
			if aw&d&-d != 0 {
				return -1
			}
			return 1
		}
	}
	return 0
}

// SortFDs orders fds by Less.
func SortFDs(fds []FD) {
	if len(fds) < minBucketSort || !sortOneWord(fds) {
		slices.SortFunc(fds, compare)
	}
}

// minBucketSort is the input size below which SortFDs sorts by
// comparison: sortOneWord's set-up does not pay for itself there.
const minBucketSort = 256

// sortOneWord sorts fds by Less without a comparison that counts an LHS,
// when every LHS lies in the first word and every RHS in [0, MaxAttrs),
// and reports whether it did. One pass counts each LHS once, and a
// counting sort groups the FDs by (RHS, cardinality). Inside a group the
// set holding the lowest differing attribute sorts first, which is the
// ascending order of the complemented, bit-reversed word; a group sorts
// as those uint64 keys, and the FDs are rebuilt from them.
func sortOneWord(fds []FD) bool {
	// group[i] first holds the cardinality of fds[i]'s LHS, then its
	// group; start[g] is where group g begins in the sorted order.
	group := make([]int32, len(fds))
	maxRHS, maxCard := 0, 0
	for i, f := range fds {
		if f.RHS < 0 || f.RHS >= MaxAttrs || f.LHS != FromWord(f.LHS.w[0]) {
			return false
		}
		c := bits.OnesCount64(f.LHS.w[0])
		group[i] = int32(c)
		maxRHS, maxCard = max(maxRHS, f.RHS), max(maxCard, c)
	}
	groups := (maxRHS + 1) * (maxCard + 1)
	start := make([]int32, groups+1)
	for i, f := range fds {
		group[i] += int32(f.RHS * (maxCard + 1))
		start[group[i]+1]++
	}
	for g := 0; g < groups; g++ {
		start[g+1] += start[g]
	}
	next := slices.Clone(start[:groups])
	keys := make([]uint64, len(fds))
	for i, f := range fds {
		keys[next[group[i]]] = ^bits.Reverse64(f.LHS.w[0])
		next[group[i]]++
	}
	for g := 0; g < groups; g++ {
		lo, hi := start[g], start[g+1]
		slices.Sort(keys[lo:hi])
		rhs := g / (maxCard + 1)
		for i := lo; i < hi; i++ {
			fds[i] = FD{LHS: FromWord(bits.Reverse64(^keys[i])), RHS: rhs}
		}
	}
	return true
}

// FormatSet renders every FD in the set with attribute names, one per line.
func FormatSet(s *Set, names []string) string {
	var b strings.Builder
	s.ForEach(func(f FD) {
		b.WriteString(f.Format(names))
		b.WriteByte('\n')
	})
	return b.String()
}
