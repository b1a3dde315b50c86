package master

// Cells are interned ids: these tests hold what a snapshot materializes —
// Tuple, Cell, All, Relation — to a relation kept independently as plain
// tuples, at every epoch of branching delta programs, and hold the values
// that occur only in columns no structure indexes to the probe answers a
// scan over that relation gives.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/relation"
	"repro/internal/rule"
)

// checkCells holds every way a snapshot materializes its tuples to want.
func checkCells(t testing.TB, ctx string, d *Data, want []relation.Tuple) {
	t.Helper()
	if d.Len() != len(want) {
		t.Fatalf("%s: %d tuples, want %d", ctx, d.Len(), len(want))
	}
	rel := d.Relation()
	if rel.Len() != len(want) || !rel.Schema().Equal(d.Schema()) {
		t.Fatalf("%s: Relation() has %d tuples over %s", ctx, rel.Len(), rel.Schema().Name())
	}
	seen := 0
	for i, tm := range d.All() {
		if i != seen || !tm.Equal(want[i]) {
			t.Fatalf("%s: All() yields (%d, %v) at position %d, want %v", ctx, i, tm, seen, want[i])
		}
		seen++
	}
	if seen != len(want) {
		t.Fatalf("%s: All() yielded %d tuples, want %d", ctx, seen, len(want))
	}
	for i, w := range want {
		if got := d.Tuple(i); !got.Equal(w) {
			t.Fatalf("%s: Tuple(%d) = %v, want %v", ctx, i, got, w)
		}
		if got := rel.Tuple(i); !got.Equal(w) {
			t.Fatalf("%s: Relation().Tuple(%d) = %v, want %v", ctx, i, got, w)
		}
		for c := range w {
			if got := d.Cell(i, c); got != w[c] {
				t.Fatalf("%s: Cell(%d, %d) = %v, want %v", ctx, i, c, got, w[c])
			}
		}
	}
}

// checkAbsentFromColumn probes every rule with each value of the relation
// on each lhs attribute in turn and requires the answers a scan over tuples
// gives. Where a value occurs in the master but not in that Xm column —
// what only a non-indexed column holds, above all — the probe must be a
// clean miss and the partial-lhs compatibility test must find the value
// absent from the column.
func checkAbsentFromColumn(t testing.TB, ctx string, d *Data, sigma *rule.Set, tuples []relation.Tuple) {
	t.Helper()
	values := map[relation.Value]bool{}
	for _, tm := range tuples {
		for _, v := range tm {
			values[v] = true
		}
	}
	probe := make(relation.Tuple, sigma.Schema().Arity())
	for _, ru := range sigma.Rules() {
		x, xm := ru.LHS(), ru.LHSM()
		for v := range values {
			for k := range x {
				// A probe that agrees with some master tuple everywhere but
				// on x[k], which carries v.
				for _, base := range tuples {
					for i := range probe {
						probe[i] = relation.Null
					}
					for i, p := range x {
						probe[p] = base[xm[i]]
					}
					probe[x[k]] = v
					var wantIDs []int
					inColumn := false
					for id, tm := range tuples {
						inColumn = inColumn || tm[xm[k]] == v
						if probe.ProjectMatches(x, tm, xm) {
							wantIDs = append(wantIDs, id)
						}
					}
					if got := d.MatchIDs(ru, probe); !eqInts(got, wantIDs) {
						t.Fatalf("%s: rule %s MatchIDs(%v) = %v, scan %v", ctx, ru.Name(), probe, got, wantIDs)
					}
					if _, witness := d.AppendRHSValues(nil, ru, probe); ru.MatchesPattern(probe) &&
						(witness >= 0) != (len(wantIDs) > 0) || witness >= 0 && witness != wantIDs[0] {
						t.Fatalf("%s: rule %s witness of %v = %d, scan %v", ctx, ru.Name(), probe, witness, wantIDs)
					}
					if !inColumn && len(rhsValues(d, ru, probe)) != 0 {
						t.Fatalf("%s: rule %s AppendRHSValues(%v) answers for a value absent from column %d", ctx, ru.Name(), probe, xm[k])
					}
					// Only x[k] validated: compatible iff the column holds v
					// in a pattern-compatible tuple.
					zSet := relation.NewAttrSet(x[k])
					want := false
					for _, tm := range tuples {
						ok := tm[xm[k]] == v
						for i := range x {
							if cell, has := ru.Pattern().CellFor(x[i]); has && !cell.Matches(tm[xm[i]]) {
								ok = false
							}
						}
						want = want || ok
					}
					if got := d.CompatibleExists(ru, probe, zSet); got != want || !inColumn && got {
						t.Fatalf("%s: rule %s CompatibleExists(%v, z=%v) = %v, scan %v (value in column: %v)",
							ctx, ru.Name(), probe, zSet.Positions(), got, want, inColumn)
					}
				}
			}
		}
	}
}

// TestCellsMatchRelation runs branching delta programs — every parent
// derives two children with deltas of their own — over random masters whose
// non-indexed columns draw from a pool no indexed column uses and whose
// every column holds Nulls, and at every epoch of every branch holds the
// materialized cells to the shadow relation and the probes of absent values
// to a scan over it. A parent is checked again after its children exist.
func TestCellsMatchRelation(t *testing.T) {
	for seed := 0; seed < 60; seed++ {
		rng := rand.New(rand.NewSource(int64(81_000_000 + seed)))
		_, sigma, rm, vals := randomDeltaInstance(rng)
		indexed := map[int]bool{}
		for _, ru := range sigma.Rules() {
			for _, c := range ru.LHSM() {
				indexed[c] = true
			}
		}
		draw := func() relation.Tuple {
			tm := make(relation.Tuple, rm.Arity())
			for c := range tm {
				switch {
				case rng.Intn(6) == 0: // Null
				case indexed[c] || rng.Intn(4) == 0:
					tm[c] = relation.String(vals[rng.Intn(len(vals))])
				default:
					tm[c] = relation.String(fmt.Sprintf("ext%d", rng.Intn(5)))
				}
			}
			return tm
		}
		rel := relation.NewRelation(rm)
		for i, n := 0, 2+rng.Intn(10); i < n; i++ {
			rel.MustAppend(draw())
		}
		root := MustNewForRules(rel, sigma, WithShards(1+rng.Intn(3)))

		type node struct {
			d      *Data
			shadow []relation.Tuple
		}
		level := []node{{root, tuplesOf(rel)}}
		for depth := 0; depth < 4; depth++ {
			var next []node
			for b, parent := range level {
				ctx := fmt.Sprintf("seed %d depth %d branch %d", seed, depth, b)
				checkCells(t, ctx, parent.d, parent.shadow)
				checkAbsentFromColumn(t, ctx, parent.d, sigma, parent.shadow)
				for child := 0; child < 2; child++ {
					var adds []relation.Tuple
					for i, n := 0, rng.Intn(4); i < n; i++ {
						adds = append(adds, draw())
					}
					deletes := rng.Perm(parent.d.Len())[:min(rng.Intn(4), parent.d.Len())]
					d, err := parent.d.ApplyDelta(adds, deletes)
					if err != nil {
						t.Fatalf("%s child %d: %v", ctx, child, err)
					}
					next = append(next, node{d, shadowApply(parent.shadow, adds, deletes)})
				}
				checkCells(t, ctx+" after its children", parent.d, parent.shadow)
			}
			level = next
		}
		for b, leaf := range level {
			ctx := fmt.Sprintf("seed %d leaf %d", seed, b)
			checkCells(t, ctx, leaf.d, leaf.shadow)
			checkAbsentFromColumn(t, ctx, leaf.d, sigma, leaf.shadow)
			checkEquiv(t, ctx, leaf.d, sigma)
		}
	}
}
