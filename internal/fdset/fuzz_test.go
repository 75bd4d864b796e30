package fdset

import (
	"encoding/binary"
	"testing"
)

// fuzzSet builds an AttrSet from up to 48 bytes of raw word data via the
// SetWord kernel interface, exercising the full 384-bit width.
func fuzzSet(data []byte) AttrSet {
	var s AttrSet
	for i := 0; i < NumWords; i++ {
		if len(data) < 8 {
			break
		}
		s.SetWord(i, binary.LittleEndian.Uint64(data[:8]))
		data = data[8:]
	}
	return s
}

// FuzzAttrSetOps checks the algebraic identities the covers and the
// agree-set kernels rely on, over arbitrary bit patterns.
func FuzzAttrSetOps(f *testing.F) {
	f.Add(make([]byte, 96), byte(0))
	f.Add(append(make([]byte, 95), 0xff), byte(200))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, byte(63))
	f.Fuzz(func(t *testing.T, data []byte, attrByte byte) {
		a := fuzzSet(data)
		var b AttrSet
		if len(data) >= 48 {
			b = fuzzSet(data[48:])
		}
		attr := int(attrByte) % (NumWords * 64)

		// Partition identity: a = (a∖b) ⊎ (a∩b), and the union of the
		// parts with b reassembles a∪b.
		inter := a.Intersect(b)
		diff := a.Diff(b)
		if diff.Intersects(inter) {
			t.Fatalf("a∖b and a∩b overlap: %v %v", diff, inter)
		}
		if got := diff.Union(inter); got != a {
			t.Fatalf("(a∖b)∪(a∩b) = %v, want %v", got, a)
		}
		if got := diff.Union(b); got != a.Union(b) {
			t.Fatalf("(a∖b)∪b = %v, want %v", got, a.Union(b))
		}

		// Inclusion–exclusion on counts.
		if a.Union(b).Count() != a.Count()+b.Count()-inter.Count() {
			t.Fatalf("|a∪b| = %d, want %d+%d-%d", a.Union(b).Count(), a.Count(), b.Count(), inter.Count())
		}

		// Subset laws.
		if !inter.IsSubsetOf(a) || !inter.IsSubsetOf(b) {
			t.Fatal("a∩b must be a subset of both operands")
		}
		if !a.IsSubsetOf(a.Union(b)) || !b.IsSupersetOf(inter) {
			t.Fatal("operands must sit between intersection and union")
		}
		if a.IsSubsetOf(b) != (a.Union(b) == b) {
			t.Fatalf("IsSubsetOf inconsistent with union: a=%v b=%v", a, b)
		}

		// With/Without are pure: the receiver is unchanged and the
		// round trip restores the original.
		before := a
		w := a.With(attr)
		if a != before {
			t.Fatal("With mutated its receiver")
		}
		if !w.Has(attr) || w.Without(attr).Has(attr) {
			t.Fatal("With/Without do not toggle the attribute")
		}
		if a.Has(attr) {
			if w != a {
				t.Fatal("With on a member must be a no-op")
			}
		} else if w.Without(attr) != a {
			t.Fatal("With then Without must restore the set")
		}

		// Enumeration agrees with membership and is strictly ascending.
		attrs := a.Attrs()
		if len(attrs) != a.Count() {
			t.Fatalf("len(Attrs) = %d, Count = %d", len(attrs), a.Count())
		}
		for i, x := range attrs {
			if !a.Has(x) {
				t.Fatalf("Attrs returned non-member %d", x)
			}
			if i > 0 && attrs[i-1] >= x {
				t.Fatalf("Attrs not strictly ascending: %v", attrs)
			}
		}
		if NewAttrSet(attrs...) != a {
			t.Fatal("NewAttrSet(Attrs()) does not round-trip")
		}

		// First/NextAfter walk the same sequence as Attrs.
		i, x := 0, a.First()
		for x >= 0 {
			if i >= len(attrs) || attrs[i] != x {
				t.Fatalf("First/NextAfter walk diverges from Attrs at step %d", i)
			}
			i++
			x = a.NextAfter(x)
		}
		if i != len(attrs) {
			t.Fatalf("First/NextAfter stopped after %d of %d members", i, len(attrs))
		}

		// Word/SetWord round-trip and Hash determinism.
		var rebuilt AttrSet
		for w := 0; w < NumWords; w++ {
			rebuilt.SetWord(w, a.Word(w))
		}
		if rebuilt != a {
			t.Fatal("Word/SetWord does not round-trip")
		}
		if a.Hash() != rebuilt.Hash() {
			t.Fatal("equal sets hash differently")
		}
	})
}

// FuzzSetJSON decodes arbitrary bytes as FDs, in both set forms, and
// checks the direct encoder: its output equals encoding/json over the
// fdWire shape, and encode → UnmarshalJSON → encode is a fixed point.
func FuzzSetJSON(f *testing.F) {
	f.Add([]byte{}, false)
	f.Add(make([]byte, 50), true)
	f.Add(append(make([]byte, 49), 0xff, 7, 0x80, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16), false)
	f.Fuzz(func(t *testing.T, data []byte, frozen bool) {
		// Each FD takes one RHS byte and up to 48 bytes of LHS words.
		var fds []FD
		for len(data) > 0 && len(fds) < 64 {
			rhs := int(data[0]) % MaxAttrs
			data = data[1:]
			n := min(len(data), 8*int(rhs%7))
			fds = append(fds, FD{LHS: fuzzSet(data[:n]), RHS: rhs})
			data = data[n:]
		}
		s := NewSet(fds...)
		if frozen {
			s = NewFrozenSet(fds)
		}
		got, err := s.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceJSON(t, s.Slice()); string(got) != string(want) {
			t.Fatalf("encoder wrote\n%s\nwant\n%s", got, want)
		}
		var back Set
		if err := back.UnmarshalJSON(got); err != nil {
			t.Fatal(err)
		}
		again, _ := back.MarshalJSON()
		if string(again) != string(got) || !back.Equal(s) {
			t.Fatalf("round trip changed the set:\n%s\n%s", got, again)
		}
	})
}
