package master

// rowVec is checked against a [][]uint32 oracle under random edit programs
// that branch, as persist's Vec is: each new version is cloned from a
// random earlier one and edited, and after every step every version in the
// pool is compared with its own oracle, so a write that leaked into a
// sibling or back into a parent shows up on a version the step never
// touched.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

type rowsVersion struct {
	r      rowVec
	oracle [][]uint32
}

func checkRows(t *testing.T, ctx string, ver *rowsVersion) {
	t.Helper()
	if ver.r.Len() != len(ver.oracle) {
		t.Fatalf("%s: Len %d, oracle %d", ctx, ver.r.Len(), len(ver.oracle))
	}
	for i, want := range ver.oracle {
		if got := ver.r.At(i); !slices.Equal(got, want) {
			t.Fatalf("%s: At(%d) = %v, oracle %v", ctx, i, got, want)
		}
	}
	i := 0
	for j, got := range ver.r.All() {
		if j != i || !slices.Equal(got, ver.oracle[i]) {
			t.Fatalf("%s: All yields (%d, %v) at position %d, oracle %v", ctx, j, got, i, ver.oracle[i])
		}
		i++
	}
	if i != len(ver.oracle) {
		t.Fatalf("%s: All yields %d rows, oracle %d", ctx, i, len(ver.oracle))
	}
}

func randomRow(rng *rand.Rand, arity int) []uint32 {
	row := make([]uint32, arity)
	for c := range row {
		row[c] = rng.Uint32()
	}
	return row
}

func TestRowVecAgainstOracleWithBranching(t *testing.T) {
	const arity = 3
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Roots: grown like a Builder's, and viewed in place like a loaded
		// image's (whole blocks, a partial last block, empty, and past one
		// chunk of 64 block pointers), so every origin of a shared block is in
		// the pool. The viewed cells stand in for a read-only mapping: no
		// handle may ever write them.
		var pool []*rowsVersion
		var views, pristine [][]uint32
		for _, n := range []int{0, 1, blockRows, 3*blockRows + 5, 65 * blockRows} {
			built := &rowsVersion{r: rowVec{arity: arity}}
			cells := make([]uint32, 0, n*arity)
			for range n {
				row := randomRow(rng, arity)
				copy(built.r.grow(), row)
				built.oracle = append(built.oracle, row)
				cells = append(cells, row...)
			}
			views, pristine = append(views, cells), append(pristine, slices.Clone(cells))
			pool = append(pool, built, &rowsVersion{viewRows(cells, n, arity), slices.Clone(built.oracle)})
		}
		for step := 0; step < 150; step++ {
			parent := pool[rng.Intn(len(pool))]
			child := &rowsVersion{parent.r.Clone(), slices.Clone(parent.oracle)}
			for e := rng.Intn(12); e >= 0; e-- {
				switch op := rng.Intn(10); {
				case op < 4 && len(child.oracle) > 0:
					i, row := rng.Intn(len(child.oracle)), randomRow(rng, arity)
					child.r.Set(i, row)
					child.oracle[i] = row
				case op < 8:
					for k := rng.Intn(2 * blockRows); k >= 0; k-- {
						row := randomRow(rng, arity)
						copy(child.r.grow(), row)
						child.oracle = append(child.oracle, row)
					}
				default:
					n := rng.Intn(len(child.oracle) + 1)
					child.r.Truncate(n)
					child.oracle = child.oracle[:n]
				}
			}
			pool = append(pool, child)
			if len(pool) > 24 {
				pool = slices.Delete(pool, 0, 1+rng.Intn(4))
			}
			for i, ver := range pool {
				checkRows(t, fmt.Sprintf("seed %d step %d version %d", seed, step, i), ver)
			}
			for i := range views {
				if !slices.Equal(views[i], pristine[i]) {
					t.Fatalf("seed %d step %d: an edit wrote through to viewed cells %d", seed, step, i)
				}
			}
		}
	}
}

// TestRowVecCopiesSharedBlockOnce: a handle that owns no block — a viewed
// image, or a clone of any snapshot — copies a block on its first write to
// it and writes the copy in place after that, so a second write in the same
// block allocates nothing.
func TestRowVecCopiesSharedBlockOnce(t *testing.T) {
	const arity = 4
	n := 5 * blockRows
	cells := make([]uint32, n*arity)
	for i := range cells {
		cells[i] = uint32(i)
	}
	built := rowVec{arity: arity}
	for i := range n {
		copy(built.grow(), cells[i*arity:])
	}
	row := []uint32{7, 7, 7, 7}
	writes := func(k int, handle func() rowVec) float64 {
		return testing.AllocsPerRun(20, func() {
			r := handle()
			for i := range k {
				r.Set(2*blockRows+i, row)
			}
		})
	}
	for name, handle := range map[string]func() rowVec{
		"view":  func() rowVec { return viewRows(cells, n, arity) },
		"clone": func() rowVec { v := viewRows(cells, n, arity); return v.Clone() },
		"built": built.Clone,
	} {
		if one, two := writes(1, handle), writes(2, handle); two != one {
			t.Errorf("%s: one write in a block allocates %v, two allocate %v", name, one, two)
		}
	}
}
