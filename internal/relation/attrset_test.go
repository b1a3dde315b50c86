package relation

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAttrSetBasics(t *testing.T) {
	s := NewAttrSet(0, 1, 3, MaxArity-1)
	if !s.Has(0) || !s.Has(1) || !s.Has(3) || !s.Has(63) || s.Has(2) || s.Has(64) || s.Has(-1) {
		t.Fatalf("membership wrong: %v", s.Positions())
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	s.Remove(3)
	if s.Has(3) || s.Len() != 3 {
		t.Fatalf("after Remove: %v", s.Positions())
	}
	s.Remove(999) // no-op, must not panic
	s.Remove(-1)

	var all AttrSet
	for p := range MaxArity {
		all.Add(p)
	}
	if all.Len() != MaxArity || len(all.Positions()) != MaxArity {
		t.Fatalf("full set Len = %d", all.Len())
	}

	for _, p := range []int{-1, MaxArity, 200} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%d) did not panic", p)
				}
			}()
			var s AttrSet
			s.Add(p)
		}()
	}
}

func TestAttrSetHasAllAnyContains(t *testing.T) {
	s := NewAttrSet(0, 2, 4)
	if !s.HasAll([]int{0, 4}) || s.HasAll([]int{0, 1}) {
		t.Error("HasAll wrong")
	}
	if !s.ContainsSet(NewAttrSet(0, 2)) || s.ContainsSet(NewAttrSet(0, 3)) {
		t.Error("ContainsSet wrong")
	}
	if !s.ContainsSet(NewAttrSet()) {
		t.Error("every set contains the empty set")
	}
	if !NewAttrSet().ContainsSet(NewAttrSet()) {
		t.Error("empty contains empty")
	}
}

func TestAttrSetUnionAndEqual(t *testing.T) {
	a := NewAttrSet(1, 63)
	b := NewAttrSet(2)
	u := a.Union(b)
	if !u.Equal(NewAttrSet(1, 2, 63)) {
		t.Fatalf("union = %v", u.Positions())
	}
	// union must not mutate operands
	if a.Len() != 2 || b.Len() != 1 {
		t.Fatal("Union mutated an operand")
	}
	var c AttrSet
	c.Add(40)
	c.Remove(40)
	if !c.Equal(NewAttrSet()) {
		t.Fatal("a set emptied by Remove should equal the empty set")
	}
	// Sets are map keys: == ignores insertion order and tells sets apart.
	if NewAttrSet(3, 1, 2) != NewAttrSet(2, 3, 1) || NewAttrSet(1, 2, 3) == NewAttrSet(1, 2) {
		t.Fatal("== on sets is not set equality")
	}
}

func TestAttrSetCloneIndependence(t *testing.T) {
	a := NewAttrSet(5)
	b, c := a, a
	b.Add(6)
	c.Remove(5)
	if a.Has(6) || !a.Has(5) {
		t.Fatal("a copy shares storage")
	}
}

func TestAttrSetPositionsSortedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s AttrSet
		want := map[int]bool{}
		for i := 0; i < 40; i++ {
			p := rng.Intn(MaxArity)
			s.Add(p)
			want[p] = true
		}
		ps := s.Positions()
		if len(ps) != len(want) {
			return false
		}
		for i, p := range ps {
			if !want[p] {
				return false
			}
			if i > 0 && ps[i-1] >= p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAttrSetNames(t *testing.T) {
	s := StringSchema("R", "zip", "AC", "city")
	set := NewAttrSet(0, 2)
	names := set.Names(s)
	if len(names) != 2 || names[0] != "city" || names[1] != "zip" {
		t.Fatalf("Names = %v", names)
	}
}
