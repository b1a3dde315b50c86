package relation

import (
	"fmt"
	"testing"
)

func TestSymbolsDenseIDs(t *testing.T) {
	s := NewSymbols()
	a := s.Intern(String("a"))
	b := s.Intern(String("b"))
	n := s.Intern(Null)
	i := s.Intern(Int(7))
	if a != 0 || b != 1 || n != 2 || i != 3 {
		t.Fatalf("ids not dense first-seen: %d %d %d %d", a, b, n, i)
	}
	if got := s.Intern(String("a")); got != a {
		t.Fatalf("re-intern changed id: %d", got)
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	if id, ok := s.ID(String("b")); !ok || id != b {
		t.Fatalf("ID(b) = %d, %v", id, ok)
	}
	if _, ok := s.ID(String("missing")); ok {
		t.Fatal("ID must miss for uninterned value")
	}
}

func TestSymbolsDistinguishKinds(t *testing.T) {
	// String("1") and Int(1) are different values and must get distinct ids.
	s := NewSymbols()
	a := s.Intern(String("1"))
	b := s.Intern(Int(1))
	if a == b {
		t.Fatal("String(\"1\") and Int(1) interned to the same id")
	}
}

// internHash interns t's projection on positions and returns its
// ProbeTuple key — the index build's side of a probe.
func internHash(t *testing.T, s *Symbols, tup Tuple, positions []int) uint64 {
	t.Helper()
	for _, p := range positions {
		s.Intern(tup[p])
	}
	key, ok := s.ProbeTuple(tup, positions, nil)
	if !ok {
		t.Fatal("ProbeTuple misses a projection just interned")
	}
	return key
}

func TestHasherAgreesAcrossTupleAndValues(t *testing.T) {
	s := NewSymbols()
	tup := TupleOf(String("x"), Int(3), Null, String("y"))
	pos := []int{0, 1, 3}
	built := internHash(t, s, tup, pos)

	// The same projection carried at other positions hashes the same.
	vals, ok := s.ProbeTuple(TupleOf(String("x"), Int(3), String("y")), []int{0, 1, 2}, nil)
	if !ok || vals != built {
		t.Fatalf("ProbeTuple of the projection = %x, %v; want %x", vals, ok, built)
	}
	row := make([]uint32, len(tup))
	for _, p := range pos {
		row[p], _ = s.ID(tup[p])
	}
	if got := s.HashRow(row, pos); got != built {
		t.Fatalf("HashRow = %x; want %x", got, built)
	}
}

func TestHasherMissesUninterned(t *testing.T) {
	s := NewSymbols()
	internHash(t, s, TupleOf(String("a")), []int{0})
	if _, ok := s.ProbeTuple(TupleOf(String("zz")), []int{0}, nil); ok {
		t.Fatal("hash of uninterned value must report a miss")
	}
	if _, ok := s.ProbeTuple(TupleOf(String("a"), Int(42)), []int{0, 1}, nil); ok {
		t.Fatal("a projection with one uninterned value must report a miss")
	}
}

func TestHasherOrderAndKindSensitivity(t *testing.T) {
	s := NewSymbols()
	ab := TupleOf(String("a"), String("b"))
	ba := TupleOf(String("b"), String("a"))
	x := internHash(t, s, ab, []int{0, 1})
	y := internHash(t, s, ba, []int{0, 1})
	if x == y {
		t.Fatal("projection hash must be order-sensitive")
	}

	s1 := TupleOf(String("1"))
	i1 := TupleOf(Int(1))
	sv := internHash(t, s, s1, []int{0})
	iv := internHash(t, s, i1, []int{0})
	if sv == iv {
		t.Fatal("projection hash must be kind-sensitive")
	}
}

func TestHashTupleZeroAlloc(t *testing.T) {
	s := NewSymbols()
	tup := TupleOf(String("edinburgh"), String("EH7 4AH"), Int(44))
	pos := []int{0, 1, 2}
	internHash(t, s, tup, pos)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := s.ProbeTuple(tup, pos, nil); !ok {
			t.Fatal("must hit")
		}
	})
	if allocs != 0 {
		t.Fatalf("ProbeTuple allocates %.1f objects per probe; want 0", allocs)
	}
}

// TestSymbolsForkBranching: forks of one table intern independently — a
// value one child interned is unknown to its sibling and to the parent,
// ids every table already had never change, each table's ids stay dense and
// resolve back through Value — for interned and imported roots alike, across
// chains of forks.
func TestSymbolsForkBranching(t *testing.T) {
	seedVals := []Value{String("a"), Int(1), Null, String("b")}
	flat, err := SymbolsFromValues(seedVals)
	if err != nil {
		t.Fatal(err)
	}
	built := NewSymbols()
	for _, v := range seedVals {
		built.Intern(v)
	}
	for name, root := range map[string]*Symbols{"imported": flat, "interned": built} {
		left, right := root.Fork(), root.Fork()
		for i := 0; i < 300; i++ {
			if got := left.Intern(Int(int64(1000 + i))); int(got) != len(seedVals)+i {
				t.Fatalf("%s: left id %d for its value %d", name, got, i)
			}
			if got := right.Intern(String(fmt.Sprint("r", i))); int(got) != len(seedVals)+i {
				t.Fatalf("%s: right id %d for its value %d", name, got, i)
			}
		}
		grand := left.Fork()
		grand.Intern(String("only-grand"))
		for i, v := range seedVals {
			for tname, tab := range map[string]*Symbols{"root": root, "left": left, "right": right, "grand": grand} {
				if id, ok := tab.ID(v); !ok || int(id) != i {
					t.Fatalf("%s: %s resolves seed value %v to (%d, %v)", name, tname, v, id, ok)
				}
			}
		}
		if _, ok := right.ID(Int(1000)); ok {
			t.Fatalf("%s: right sees a value only left interned", name)
		}
		if _, ok := left.ID(String("r0")); ok {
			t.Fatalf("%s: left sees a value only right interned", name)
		}
		if _, ok := left.ID(String("only-grand")); ok || left.Len() != len(seedVals)+300 {
			t.Fatalf("%s: a grandchild's intern reached its parent (len %d)", name, left.Len())
		}
		if id, ok := grand.ID(Int(1299)); !ok || int(id) != len(seedVals)+299 || grand.Len() != len(seedVals)+301 {
			t.Fatalf("%s: grandchild lost an inherited id: (%d, %v), len %d", name, id, ok, grand.Len())
		}
		if root.Len() != len(seedVals) {
			t.Fatalf("%s: root grew to %d", name, root.Len())
		}
		for id, v := range grand.Export() {
			if got, ok := grand.ID(v); !ok || int(got) != id || grand.Value(got) != v {
				t.Fatalf("%s: Export()[%d] = %v resolves to (%d, %v) and back to %v", name, id, v, got, ok, grand.Value(got))
			}
		}
	}
}

// TestSymbolsHashCollision plants another value on the trie key a value
// hashes to — what a 64-bit HashValue collision would leave there — and
// checks both stay resolvable: lookups verify the stored value and walk on.
func TestSymbolsHashCollision(t *testing.T) {
	s := NewSymbols().Fork()
	v := String("victim")
	h := HashValue(fnvOffset64, v)
	for i, squatter := range []Value{String("squatter"), String("second squatter")} {
		s.over = s.over.Set(h+uint64(i), uint32(i))
		s.overVals.Append(squatter)
	}
	if _, ok := s.ID(v); ok {
		t.Fatal("a value resolved to another value's entry")
	}
	if id := s.Intern(v); id != 2 {
		t.Fatalf("victim interned as %d", id)
	}
	if id, ok := s.ID(v); !ok || id != 2 {
		t.Fatalf("victim resolves to (%d, %v)", id, ok)
	}
	if id, ok := s.ID(String("never seen")); ok {
		t.Fatalf("unknown value resolved to %d", id)
	}
}
