package fdset

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// randomFDs draws n FDs whose attributes lie below width; about one LHS
// in eight is empty and about one FD in eight repeats an earlier one.
func randomFDs(r *rand.Rand, n, width int) []FD {
	fds := make([]FD, 0, n)
	for len(fds) < n {
		if len(fds) > 0 && r.Intn(8) == 0 {
			fds = append(fds, fds[r.Intn(len(fds))])
			continue
		}
		var lhs AttrSet
		if r.Intn(8) != 0 {
			for k := r.Intn(6); k >= 0; k-- {
				lhs.Add(r.Intn(width))
			}
		}
		fds = append(fds, FD{LHS: lhs, RHS: r.Intn(width)})
	}
	return fds
}

// referenceLess is Less written from its definition, over attribute
// lists, independent of the word tricks in compare and SortFDs.
func referenceLess(a, b FD) bool {
	if a.RHS != b.RHS {
		return a.RHS < b.RHS
	}
	la, lb := a.LHS.Attrs(), b.LHS.Attrs()
	if len(la) != len(lb) {
		return len(la) < len(lb)
	}
	for i := range la {
		if la[i] != lb[i] {
			return la[i] < lb[i]
		}
	}
	return false
}

// referenceJSON encodes fds the way the sets were encoded before the
// direct encoder: encoding/json over the fdWire shape.
func referenceJSON(t testing.TB, fds []FD) []byte {
	t.Helper()
	wire := make([]fdWire, len(fds))
	for i, f := range fds {
		wire[i] = fdWire{LHS: f.LHS.Attrs(), RHS: f.RHS}
	}
	b, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// widths spans the single-word fast path, the second word, and the
// upper words of an AttrSet.
var widths = []int{9, 63, 64, 100, 256, 300, MaxAttrs}

func TestSortFDsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, width := range widths {
		// Sizes on both sides of minBucketSort.
		for _, n := range []int{0, 1, 2, 17, minBucketSort - 1, minBucketSort, 3000} {
			fds := randomFDs(r, n, width)
			want := append([]FD(nil), fds...)
			sort.SliceStable(want, func(i, j int) bool { return referenceLess(want[i], want[j]) })
			SortFDs(fds)
			if !reflect.DeepEqual(fds, want) && !(len(fds) == 0 && len(want) == 0) {
				t.Fatalf("width %d, n %d: SortFDs differs from the reference order", width, n)
			}
			for i := 1; i < len(fds); i++ {
				if Less(fds[i], fds[i-1]) != referenceLess(fds[i], fds[i-1]) ||
					Less(fds[i-1], fds[i]) != referenceLess(fds[i-1], fds[i]) {
					t.Fatalf("Less disagrees with the reference on %v, %v", fds[i-1], fds[i])
				}
			}
		}
	}
	// An RHS outside [0, MaxAttrs) takes the comparison path.
	fds := randomFDs(r, 1000, 70)
	fds[0].RHS, fds[1].RHS = -3, MaxAttrs+5
	want := append([]FD(nil), fds...)
	sort.SliceStable(want, func(i, j int) bool { return referenceLess(want[i], want[j]) })
	SortFDs(fds)
	if !reflect.DeepEqual(fds, want) {
		t.Fatal("SortFDs with out-of-range RHS differs from the reference order")
	}
}

func TestSetJSONMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, width := range widths {
		for _, n := range []int{0, 1, 5, 400} {
			fds := randomFDs(r, n, width)
			frozen := NewFrozenSet(append([]FD(nil), fds...))
			mapped := NewSet(fds...)
			want := referenceJSON(t, mapped.Slice())
			for name, s := range map[string]*Set{"frozen": frozen, "map": mapped} {
				got, err := s.MarshalJSON()
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Fatalf("width %d, n %d, %s: encoder wrote\n%s\nwant\n%s", width, n, name, got, want)
				}
				// Through encoding/json, which compacts and checks it.
				if got, _ := json.Marshal(s); string(got) != string(want) {
					t.Fatalf("width %d, n %d, %s: json.Marshal differs", width, n, name)
				}
			}
			for _, f := range fds {
				got, _ := f.MarshalJSON()
				if want := referenceJSON(t, []FD{f}); string(got) != string(want[1:len(want)-1]) {
					t.Fatalf("FD %v encodes as %s, want %s", f, got, want[1:len(want)-1])
				}
			}
		}
	}
	for name, s := range map[string]*Set{"nil": nil, "zero": {}, "empty map": NewSet(), "empty frozen": NewFrozenSet(nil)} {
		if got, _ := s.MarshalJSON(); string(got) != "[]" {
			t.Errorf("%s set encodes as %s, want []", name, got)
		}
	}
	// Negative and large RHS values encode like encoding/json's ints.
	for _, f := range []FD{{RHS: -7}, {LHS: NewAttrSet(0, 383), RHS: 1 << 40}} {
		got, _ := f.MarshalJSON()
		if want := referenceJSON(t, []FD{f}); string(got) != string(want[1:len(want)-1]) {
			t.Errorf("FD %v encodes as %s, want %s", f, got, want[1:len(want)-1])
		}
	}
}

func TestFrozenSetMatchesMapSet(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, width := range widths {
		fds := randomFDs(r, 500, width)
		frozen := NewFrozenSet(append([]FD(nil), fds...))
		mapped := NewSet(fds...)
		if frozen.Len() != mapped.Len() || !reflect.DeepEqual(frozen.Slice(), mapped.Slice()) {
			t.Fatalf("width %d: frozen and map sets hold different FDs", width)
		}
		if !frozen.Equal(mapped) || !mapped.Equal(frozen) || !frozen.Equal(frozen.Clone()) {
			t.Fatalf("width %d: Equal across forms failed", width)
		}
		var visited []FD
		frozen.ForEach(func(f FD) { visited = append(visited, f) })
		if !reflect.DeepEqual(visited, mapped.Slice()) {
			t.Fatalf("width %d: ForEach order differs from Slice", width)
		}
		for _, f := range randomFDs(r, 500, width) {
			if frozen.Contains(f) != mapped.Contains(f) {
				t.Fatalf("width %d: Contains(%v) differs between forms", width, f)
			}
		}
		// Slice hands out a copy: writing it leaves the set alone.
		s := frozen.Slice()
		s[0] = FD{RHS: -1}
		if frozen.Contains(FD{RHS: -1}) || !frozen.Equal(mapped) {
			t.Fatalf("width %d: writing Slice's result changed the set", width)
		}
	}
}

func TestFrozenSetThawOnWrite(t *testing.T) {
	a, b, c := NewFD([]int{0}, 1), NewFD([]int{2}, 1), NewFD([]int{70, 300}, 2)
	frozen := NewFrozenSet([]FD{b, a, a})
	clone := frozen.Clone()

	// A Remove of a non-member is a read: the set stays frozen.
	if frozen.Remove(c) || frozen.m != nil {
		t.Fatal("Remove of a non-member must not thaw the set")
	}
	if !frozen.Add(c) || frozen.Add(c) || frozen.m == nil {
		t.Fatal("Add must thaw the set and then act as on a map set")
	}
	if !frozen.Remove(a) || frozen.Contains(a) || frozen.Len() != 2 {
		t.Fatal("Remove after thaw")
	}
	// The clone shared the frozen slice; the writes above did not reach it.
	if clone.m != nil || clone.Len() != 2 || !clone.Contains(a) || clone.Contains(c) {
		t.Fatalf("clone changed with its original: %v", clone.Slice())
	}
	if !clone.Remove(a) || clone.Len() != 1 || !clone.Contains(b) {
		t.Fatal("Remove of a member must thaw and delete it")
	}
	if !clone.Equal(NewSet(b)) || clone.Equal(frozen) {
		t.Fatal("Equal after thaw")
	}

	// Minimize thaws and minimizes.
	m := NewFrozenSet([]FD{NewFD([]int{0}, 2), NewFD([]int{0, 1}, 2), NewFD([]int{2}, 2), NewFD([]int{1}, 3)})
	want := NewSet(NewFD([]int{0}, 2), NewFD([]int{1}, 3))
	if !m.Minimize().Equal(want) || m.m == nil {
		t.Fatalf("Minimize on a frozen set = %v, want %v", m.Slice(), want.Slice())
	}

	// Unmarshal yields a frozen set that round-trips.
	var u Set
	if err := json.Unmarshal([]byte(`[{"lhs":[2],"rhs":1},{"lhs":[0],"rhs":1},{"lhs":[0],"rhs":1}]`), &u); err != nil {
		t.Fatal(err)
	}
	if u.m != nil || !u.Equal(NewSet(a, b)) {
		t.Fatalf("Unmarshal = %v (frozen %v)", u.Slice(), u.m == nil)
	}
}

func TestFrozenSetNilSafety(t *testing.T) {
	f := NewFD([]int{0}, 1)
	for name, s := range map[string]*Set{"zero": {}, "frozen from nil": NewFrozenSet(nil), "frozen empty": NewFrozenSet([]FD{})} {
		if s.Len() != 0 || s.Contains(f) || s.Remove(f) {
			t.Errorf("%s: reads on an empty frozen set", name)
		}
		if got := s.Slice(); got == nil || len(got) != 0 {
			t.Errorf("%s: Slice = %#v, want an empty non-nil slice", name, got)
		}
		s.ForEach(func(FD) { t.Errorf("%s: ForEach called fn", name) })
		if !s.Equal(nil) || !s.Equal(NewSet()) || !(*Set)(nil).Equal(s) {
			t.Errorf("%s: empty sets must be Equal", name)
		}
		if c := s.Clone(); c.Len() != 0 || !c.Add(f) || s.Contains(f) {
			t.Errorf("%s: Clone", name)
		}
		if s.Minimize().Len() != 0 {
			t.Errorf("%s: Minimize", name)
		}
		if !s.Add(f) || !s.Contains(f) || s.Len() != 1 {
			t.Errorf("%s: Add after thaw", name)
		}
	}
	var s *Set
	if c := s.Clone(); c == nil || c.Len() != 0 {
		t.Error("nil Clone must be an empty set")
	}
	if s.Minimize() != nil {
		t.Error("nil Minimize must return nil")
	}
	if !s.Equal(nil) || s.Equal(NewSet(f)) {
		t.Error("nil Equal")
	}
}

// TestFrozenSetConcurrentReads shares one frozen set between goroutines,
// as fdserve sessions do; run it under -race.
func TestFrozenSetConcurrentReads(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	fds := randomFDs(r, 2000, 100)
	probes := randomFDs(r, 200, 100)
	s := NewFrozenSet(fds)
	want, _ := s.MarshalJSON()
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				for _, p := range probes {
					s.Contains(p)
				}
				if len(s.Slice()) != s.Len() {
					errs <- "Slice length differs from Len"
					return
				}
				if got, _ := s.MarshalJSON(); string(got) != string(want) {
					errs <- "MarshalJSON differs between readers"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if s.m != nil {
		t.Error("reads thawed the set")
	}
}
