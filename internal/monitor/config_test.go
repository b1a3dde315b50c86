package monitor_test

import (
	"context"
	"testing"

	"repro/internal/master"
	"repro/internal/monitor"
	"repro/internal/paperex"
	"repro/internal/relation"
	"repro/internal/rule"
)

// reasserter keeps asserting attribute 0 at its current value, whatever
// the session suggests: from the second round on it validates nothing new.
type reasserter struct{}

func (reasserter) Assert(t relation.Tuple, _ []int) ([]int, []relation.Value) {
	return []int{0}, []relation.Value{t[0]}
}

// TestMaxRoundsCap: the round cap is arity + 1 on every monitor, so a
// user who validates nothing new ends the callback driver's session
// incomplete after exactly that many rounds rather than looping — with
// or without the Suggest+ cache.
func TestMaxRoundsCap(t *testing.T) {
	input := paperex.InputT4()
	want := len(input) + 1
	for _, useBDD := range []bool{false, true} {
		m := newMonitor(t, monitor.Config{UseBDD: useBDD})
		res, err := m.Fix(context.Background(), input, reasserter{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != want {
			t.Fatalf("useBDD=%v: rounds = %d, want %d", useBDD, res.Rounds, want)
		}
		if res.Completed {
			t.Fatalf("useBDD=%v: capped run must not report completion", useBDD)
		}
	}
}

// TestMonitorDegeneratesWithoutRules: with an empty Σ the only certain
// region is the whole schema — the framework soundly degenerates to
// fully manual validation rather than inventing fixes.
func TestMonitorDegeneratesWithoutRules(t *testing.T) {
	r := relation.StringSchema("R", "A", "B")
	rm := relation.StringSchema("Rm", "Am", "Bm")
	sigma := rule.MustNewSet(r, rm) // empty Σ
	rel := relation.NewRelation(rm)
	rel.MustAppend(relation.StringTuple("x", "y"))
	dm := master.MustNewForRules(rel, sigma)
	m, err := monitor.New(sigma, dm, monitor.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m.Regions()[0].Z); got != r.Arity() {
		t.Fatalf("degenerate region |Z| = %d, want the full arity %d", got, r.Arity())
	}
	truth := relation.StringTuple("p", "q")
	res, err := m.Fix(context.Background(), relation.StringTuple("bad", "bad"), monitor.SimulatedUser{Truth: truth})
	if err != nil || !res.Completed || !res.Tuple.Equal(truth) {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if res.Rounds != 1 || res.AutoFixed.Len() != 0 {
		t.Fatalf("manual fix should take 1 round with no rule fixes: %+v", res)
	}
}

// TestMonitorRegionsRanked: the candidate list is sorted by quality and
// the greedy region (when distinct) ranks below the best.
func TestMonitorRegionsRanked(t *testing.T) {
	sigma := paperex.Sigma0()
	dm := master.MustNewForRules(paperex.MasterRelation(), sigma)
	m, err := monitor.New(sigma, dm, monitor.Config{})
	if err != nil {
		t.Fatal(err)
	}
	regions := m.Regions()
	for i := 1; i < len(regions); i++ {
		if regions[i].Quality > regions[i-1].Quality {
			t.Fatal("regions must be sorted by quality descending")
		}
	}
}

// TestUserAssertsOutsideSuggestion: the users may validate attributes the
// framework did not ask about; the extra assertions count and cascade.
func TestUserAssertsOutsideSuggestion(t *testing.T) {
	m := newMonitor(t, monitor.Config{})
	r := m.Deriver().Sigma().Schema()
	truth := truthT1()
	user := overAssertingUser{truth: truth, extra: r.MustPosList("FN", "LN")}
	res, err := m.Fix(context.Background(), paperex.InputT1(), user)
	if err != nil || !res.Completed {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if !res.UserValidated.Has(r.MustPos("FN")) {
		t.Fatal("extra user assertions must be recorded")
	}
	if !res.Tuple.Equal(truth) {
		t.Fatalf("tuple = %v", res.Tuple)
	}
}

// TestMonitorHandlesRegionWithPatternRows: a monitor built over Σ0 still
// fixes tuples that match derived per-master pattern rows (smoke test for
// the intensional-tableau path through ConsistentRow).
func TestMonitorHandlesRegionWithPatternRows(t *testing.T) {
	sigma := paperex.Sigma0()
	dm := master.MustNewForRules(paperex.MasterRelation(), sigma)
	m, err := monitor.New(sigma, dm, monitor.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the deriver's CertainRow agrees with an explicitly built
	// Example-9 row for the best region's Z when it is zip+phn+type+item.
	r := sigma.Schema()
	best := m.Regions()[0]
	want := relation.NewAttrSet(r.MustPosList("zip", "phn", "type", "item")...)
	if !best.ZSet.Equal(want) {
		t.Skipf("best region is %v; pattern-row check targets the Example 9 region", best.ZSet.Names(r))
	}
	// Values aligned with best.Z's own attribute order.
	byName := map[string]relation.Value{
		"zip":  relation.String("EH7 4AH"),
		"phn":  relation.String("079172485"),
		"type": relation.String("2"),
		"item": relation.String("CD"),
	}
	vals := make([]relation.Value, len(best.Z))
	for i, p := range best.Z {
		vals[i] = byName[r.Attr(p).Name]
	}
	if !m.Deriver().CertainRow(best.Z, vals) {
		t.Fatal("Example 9 values must be a certain row of the best region")
	}
}
