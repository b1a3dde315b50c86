package relation

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAttrSetBasics(t *testing.T) {
	s := NewAttrSet(1, 3, 70)
	if !s.Has(1) || !s.Has(3) || !s.Has(70) || s.Has(2) || s.Has(64) {
		t.Fatalf("membership wrong: %v", s.Positions())
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	s.Remove(3)
	if s.Has(3) || s.Len() != 2 {
		t.Fatalf("after Remove: %v", s.Positions())
	}
	s.Remove(999) // no-op, must not panic
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
	a := NewAttrSet(1, 65)
	b := NewAttrSet(2)
	u := a.Union(b)
	if !u.Equal(NewAttrSet(1, 2, 65)) {
		t.Fatalf("union = %v", u.Positions())
	}
	// union must not mutate operands
	if a.Len() != 2 || b.Len() != 1 {
		t.Fatal("Union mutated an operand")
	}
	// equality ignores trailing zero words
	var c AttrSet
	c.Add(100)
	c.Remove(100)
	if !c.Equal(NewAttrSet()) {
		t.Fatal("set with trailing zero words should equal empty set")
	}
}

func TestAttrSetCloneIndependence(t *testing.T) {
	a := NewAttrSet(5)
	b := a.Clone()
	b.Add(6)
	if a.Has(6) {
		t.Fatal("Clone shares storage")
	}
}

func TestAttrSetPositionsSortedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s AttrSet
		want := map[int]bool{}
		for i := 0; i < 40; i++ {
			p := rng.Intn(200)
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

func TestAttrSetKeyCanonical(t *testing.T) {
	a := NewAttrSet(3, 1, 2)
	b := NewAttrSet(2, 3, 1)
	if a.Key() != b.Key() {
		t.Fatal("Key must be order-independent")
	}
	if a.Key() == NewAttrSet(1, 2).Key() {
		t.Fatal("different sets must have different keys")
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
