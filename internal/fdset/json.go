package fdset

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"strconv"
)

// fdWire is the JSON shape of one FD: attribute indices, not names
// (resolve names against a schema at a higher layer, e.g. eulerfd.Docs).
// appendFD writes it directly; decoding goes through encoding/json.
type fdWire struct {
	LHS []int `json:"lhs"`
	RHS int   `json:"rhs"`
}

// MarshalJSON encodes the FD as {"lhs":[indices...],"rhs":index} with the
// LHS in ascending order (Attrs order), so equal FDs always serialize to
// equal bytes.
func (f FD) MarshalJSON() ([]byte, error) {
	return appendFD(make([]byte, 0, wireSize(f)), f), nil
}

// appendFD appends the wire form of f, byte for byte what encoding/json
// writes for its fdWire: {"lhs":[1,3],"rhs":5}, with no spaces.
func appendFD(b []byte, f FD) []byte {
	b = append(b, `{"lhs":[`...)
	for i, w := range f.LHS.w {
		for ; w != 0; w &= w - 1 {
			if b[len(b)-1] != '[' {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(i*64+bits.TrailingZeros64(w)), 10)
		}
	}
	b = append(b, `],"rhs":`...)
	b = strconv.AppendInt(b, int64(f.RHS), 10)
	return append(b, '}')
}

// wireSize bounds the length appendFD writes for f, plus a separating
// comma, when every index has at most three digits (MaxAttrs ≤ 1000): 18
// bytes of punctuation and keys, three RHS digits, and four bytes per LHS
// attribute. Larger indices only cost append a regrowth.
func wireSize(f FD) int { return 21 + 4*f.LHS.Count() }

// UnmarshalJSON decodes the wire shape written by MarshalJSON.
func (f *FD) UnmarshalJSON(data []byte) error {
	var w fdWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	for _, a := range w.LHS {
		if a < 0 || a >= MaxAttrs {
			return fmt.Errorf("fdset: LHS attribute index %d out of range [0,%d)", a, MaxAttrs)
		}
	}
	if w.RHS < 0 || w.RHS >= MaxAttrs {
		return fmt.Errorf("fdset: RHS attribute index %d out of range [0,%d)", w.RHS, MaxAttrs)
	}
	*f = NewFD(w.LHS, w.RHS)
	return nil
}

// MarshalJSON encodes the set as an array of FDs in Slice order (sorted,
// deterministic). An empty set encodes as []; note encoding/json renders
// a nil *Set struct field as null without consulting this method.
func (s *Set) MarshalJSON() ([]byte, error) {
	fds := s.canonical()
	n := 2
	for _, f := range fds {
		n += wireSize(f)
	}
	b := append(make([]byte, 0, n), '[')
	for i, f := range fds {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFD(b, f)
	}
	return append(b, ']'), nil
}

// UnmarshalJSON decodes an array of FDs into the set, replacing its
// contents; the set comes out frozen.
func (s *Set) UnmarshalJSON(data []byte) error {
	var fds []FD
	if err := json.Unmarshal(data, &fds); err != nil {
		return err
	}
	*s = *NewFrozenSet(fds)
	return nil
}
