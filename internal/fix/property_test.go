package fix_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/fix"
	"repro/internal/master"
	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/rule"
)

// randomFixInstance builds a small random (Σ, Dm, t, Z) quadruple over a
// tiny domain, mirroring the analysis package's generator.
func randomFixInstance(rng *rand.Rand) (*rule.Set, *master.Data, relation.Tuple, relation.AttrSet) {
	nR := 4 + rng.Intn(3)
	nM := 4 + rng.Intn(3)
	rNames := make([]string, nR)
	for i := range rNames {
		rNames[i] = fmt.Sprintf("A%d", i)
	}
	mNames := make([]string, nM)
	for i := range mNames {
		mNames[i] = fmt.Sprintf("M%d", i)
	}
	r := relation.StringSchema("R", rNames...)
	rm := relation.StringSchema("Rm", mNames...)

	vals := []string{"a", "b"}
	rel := relation.NewRelation(rm)
	for i, n := 0, 2+rng.Intn(3); i < n; i++ {
		tup := make(relation.Tuple, nM)
		for j := range tup {
			tup[j] = relation.String(vals[rng.Intn(len(vals))])
		}
		rel.MustAppend(tup)
	}

	sigma := rule.MustNewSet(r, rm)
	for i, n := 0, 2+rng.Intn(5); i < n; i++ {
		xLen := 1 + rng.Intn(2)
		perm := rng.Perm(nR)
		x := perm[:xLen]
		b := perm[xLen]
		xm := make([]int, xLen)
		for j := range xm {
			xm[j] = rng.Intn(nM)
		}
		var pPos []int
		var pCells []pattern.Cell
		for _, p := range rng.Perm(nR)[:rng.Intn(2)] {
			pPos = append(pPos, p)
			v := relation.String(vals[rng.Intn(len(vals))])
			if rng.Intn(2) == 0 {
				pCells = append(pCells, pattern.Eq(v))
			} else {
				pCells = append(pCells, pattern.Neq(v))
			}
		}
		tp := pattern.MustTuple(pPos, pCells)
		ru, err := rule.New(fmt.Sprintf("r%d", i), r, rm, x, xm, b, rng.Intn(nM), tp)
		if err != nil {
			continue
		}
		sigma.Add(ru)
	}

	t := make(relation.Tuple, nR)
	for i := range t {
		t[i] = relation.String(vals[rng.Intn(len(vals))])
	}
	zSet := relation.NewAttrSet(rng.Perm(nR)[:1+rng.Intn(nR-1)]...)
	return sigma, master.MustNewForRules(rel, sigma), t, zSet
}

// TestTransFixMatchesExploreProperty: whenever the oracle says the fix is
// unique, TransFix reaches exactly that terminal state; when TransFix
// reports a conflict, the oracle must see multiple fixes.
func TestTransFixMatchesExploreProperty(t *testing.T) {
	iterations := 500
	if testing.Short() {
		iterations = 80
	}
	for seed := 0; seed < iterations; seed++ {
		rng := rand.New(rand.NewSource(int64(9_000_000 + seed)))
		sigma, dm, tup, zSet := randomFixInstance(rng)
		g := rule.NewDepGraph(sigma)

		res := fix.Explore(sigma, dm, tup, zSet, 0)
		if res.Truncated {
			continue
		}
		tf := tup.Clone()
		zf := zSet.Clone()
		_, err := fix.TransFix(g, dm, tf, &zf)

		if err != nil {
			if res.Unique() {
				t.Fatalf("seed %d: TransFix conflict but oracle says unique\nΣ:\n%s", seed, sigma)
			}
			continue
		}
		if res.Unique() {
			o := res.Outcomes[0]
			if !tf.Equal(o.Tuple) {
				t.Fatalf("seed %d: TransFix %v != oracle %v\nΣ:\n%s", seed, tf, o.Tuple, sigma)
			}
			if !zf.Equal(o.Covered) {
				t.Fatalf("seed %d: covered %v != oracle %v\nΣ:\n%s",
					seed, zf.Positions(), o.Covered.Positions(), sigma)
			}
		} else {
			// Non-unique: TransFix must still have produced ONE of the
			// reachable outcomes.
			found := false
			for _, o := range res.Outcomes {
				if tf.Equal(o.Tuple) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("seed %d: TransFix result %v is not a reachable outcome\nΣ:\n%s", seed, tf, sigma)
			}
		}
	}
}

// TestNaiveFixMatchesTransFixProperty: the ablation baseline agrees with
// TransFix on random instances.
func TestNaiveFixMatchesTransFixProperty(t *testing.T) {
	iterations := 500
	if testing.Short() {
		iterations = 80
	}
	for seed := 0; seed < iterations; seed++ {
		rng := rand.New(rand.NewSource(int64(5_000_000 + seed)))
		sigma, dm, tup, zSet := randomFixInstance(rng)
		g := rule.NewDepGraph(sigma)

		ta, za := tup.Clone(), zSet.Clone()
		tb, zb := tup.Clone(), zSet.Clone()
		_, errA := fix.TransFix(g, dm, ta, &za)
		_, errB := fix.NaiveFix(sigma, dm, tb, &zb)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("seed %d: error mismatch %v vs %v\nΣ:\n%s", seed, errA, errB, sigma)
		}
		if errA == nil && (!ta.Equal(tb) || !za.Equal(zb)) {
			t.Fatalf("seed %d: divergence\n transfix %v %v\n naive    %v %v\nΣ:\n%s",
				seed, ta, za.Positions(), tb, zb.Positions(), sigma)
		}
	}
}

// TestExploreTerminalStatesAreFixpoints: no applicable pair remains at
// any reported outcome.
func TestExploreTerminalStatesAreFixpoints(t *testing.T) {
	for seed := 0; seed < 200; seed++ {
		rng := rand.New(rand.NewSource(int64(7_000_000 + seed)))
		sigma, dm, tup, zSet := randomFixInstance(rng)
		res := fix.Explore(sigma, dm, tup, zSet, 0)
		if res.Truncated {
			continue
		}
		for _, o := range res.Outcomes {
			if pairs := fix.ApplicablePairs(sigma, dm, o.Tuple, o.Covered); len(pairs) != 0 {
				t.Fatalf("seed %d: outcome %v still has %d applicable pairs", seed, o.Tuple, len(pairs))
			}
			// The base Z values are protected throughout.
			for _, p := range zSet.Positions() {
				if !o.Tuple[p].Equal(tup[p]) {
					t.Fatalf("seed %d: base attribute %d changed", seed, p)
				}
			}
		}
	}
}

// pairsAssignments is ApplicableAssignments the way it was first written:
// enumerate every applicable (rule, master tuple) pair and group the
// values. It is the oracle the probe-per-rule implementation is held to.
func pairsAssignments(sigma *rule.Set, dm *master.Data, t relation.Tuple, zSet relation.AttrSet) map[int][]relation.Value {
	out := map[int][]relation.Value{}
	for _, p := range fix.ApplicablePairs(sigma, dm, t, zSet) {
		b := p.Rule.RHS()
		v := dm.Tuple(p.MasterID)[p.Rule.RHSM()]
		dup := false
		for _, w := range out[b] {
			dup = dup || w.Equal(v)
		}
		if !dup {
			out[b] = append(out[b], v)
		}
	}
	return out
}

func checkAssignments(t *testing.T, ctx string, sigma *rule.Set, dm *master.Data, tup relation.Tuple, zSet relation.AttrSet) {
	t.Helper()
	got, want := fix.ApplicableAssignments(sigma, dm, tup, zSet), pairsAssignments(sigma, dm, tup, zSet)
	if len(got) != len(want) {
		t.Fatalf("%s: ApplicableAssignments = %v, pairs oracle %v", ctx, got, want)
	}
	for b, ws := range want {
		if gs := got[b]; !relation.Tuple(gs).Equal(ws) {
			t.Fatalf("%s: attribute %d: ApplicableAssignments = %v, pairs oracle %v (order matters)", ctx, b, gs, ws)
		}
	}
}

// TestApplicableAssignmentsMatchesPairsOracle: on random instances — tiny
// domains, so same-key/different-rhs buckets are the norm — advanced
// through random deltas, the assignments equal the pair enumeration's,
// value order included.
func TestApplicableAssignmentsMatchesPairsOracle(t *testing.T) {
	for seed := 0; seed < 300; seed++ {
		rng := rand.New(rand.NewSource(int64(11_000_000 + seed)))
		sigma, dm, tup, zSet := randomFixInstance(rng)
		for epoch := 0; epoch < 4; epoch++ {
			checkAssignments(t, fmt.Sprintf("seed %d epoch %d", seed, epoch), sigma, dm, tup, zSet)
			add := dm.Tuple(rng.Intn(dm.Len())).Clone()
			add[rng.Intn(len(add))] = relation.String([]string{"a", "b"}[rng.Intn(2)])
			var err error
			if dm, err = dm.ApplyDelta([]relation.Tuple{add}, []int{rng.Intn(dm.Len())}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestFixOverStormMatchesOracles drives HOSP through datagen.UpdateStorm —
// corrupted clones of master rows, the dirt that lists buckets in the
// exception tables — and at every epoch holds ApplicableAssignments to the
// pairs oracle on each input's closure states, and every TransFixTrace
// witness to the smallest matching master id of the rule that fired.
func TestFixOverStormMatchesOracles(t *testing.T) {
	ds, err := datagen.Hosp(datagen.Config{Seed: 3, MasterSize: 400, Tuples: 40, DupRate: 0.5, NoiseRate: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	g := rule.NewDepGraph(ds.Sigma)
	dm := ds.Master
	storm := datagen.UpdateStorm(ds, 5, 12, 6, 2)
	listed := 0
	for epoch := 0; ; epoch++ {
		for i, truth := range ds.Truths {
			ctx := fmt.Sprintf("epoch %d input %d", epoch, i)
			tup := ds.Inputs[i].Clone()
			var zSet relation.AttrSet
			for _, name := range []string{"id", "mCode"} {
				p, _ := ds.Sigma.Schema().Pos(name)
				tup[p] = truth[p]
				zSet.Add(p)
			}
			checkAssignments(t, ctx, ds.Sigma, dm, tup, zSet)
			var trace []fix.Witness
			_, err := fix.TransFixTrace(g, dm, tup, &zSet, &trace)
			var ce *fix.ConflictError
			if err != nil && !errors.As(err, &ce) {
				t.Fatalf("%s: %v", ctx, err)
			}
			for _, w := range trace {
				ru := ruleNamed(ds.Sigma, w.Rule)
				if ids := dm.MatchIDs(ru, tup); len(ids) == 0 || ids[0] != w.MasterID {
					t.Fatalf("%s: witness of %s is master %d, smallest match of %v", ctx, w.Rule, w.MasterID, ids)
				}
			}
			checkAssignments(t, ctx+" after TransFix", ds.Sigma, dm, tup, zSet)
		}
		listed += dm.MemStats().NonUniformBuckets
		if epoch == len(storm) {
			break
		}
		if dm, err = dm.ApplyDelta(storm[epoch].Adds, storm[epoch].Deletes); err != nil {
			t.Fatal(err)
		}
	}
	if listed == 0 {
		t.Fatal("the storm listed no bucket: the slow path went untested")
	}
}

func ruleNamed(sigma *rule.Set, name string) *rule.Rule {
	for _, ru := range sigma.Rules() {
		if ru.Name() == name {
			return ru
		}
	}
	panic("no rule " + name)
}
