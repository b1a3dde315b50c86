package monitor_test

import (
	"context"
	"testing"

	"repro/internal/master"
	"repro/internal/monitor"
	"repro/internal/paperex"
	"repro/internal/relation"
)

// truthT1 is the ground truth for t1: every attribute as the master data
// and the narrative of Examples 2/4 imply.
func truthT1() relation.Tuple {
	return relation.StringTuple(
		"Robert", "Brady", "131", "079172485", "2",
		"51 Elm Row", "Edi", "EH7 4AH", "CD")
}

func newMonitor(t *testing.T, cfg monitor.Config) *monitor.Monitor {
	t.Helper()
	sigma := paperex.Sigma0()
	dm := master.MustNewForRules(paperex.MasterRelation(), sigma)
	m, err := monitor.New(sigma, dm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCertainFixT1OneRound: t1's truth matches master tuple s1, so after
// the users validate the initial region (phn, type, item, zip) every
// other attribute is fixed automatically in a single round.
func TestCertainFixT1OneRound(t *testing.T) {
	m := newMonitor(t, monitor.Config{})
	res, err := m.Fix(context.Background(), paperex.InputT1(), monitor.SimulatedUser{Truth: truthT1()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("fix must complete")
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1 (t1 matches master)", res.Rounds)
	}
	if !res.Tuple.Equal(truthT1()) {
		t.Fatalf("fixed tuple %v != truth %v", res.Tuple, truthT1())
	}
	r := m.Deriver().Sigma().Schema()
	// Rules fixed FN, LN, AC, str, city (5 attrs); users validated 4.
	if res.AutoFixed.Len() != 5 {
		t.Fatalf("auto-fixed %v, want 5 attrs", res.AutoFixed.Names(r))
	}
	if res.UserValidated.Len() != 4 {
		t.Fatalf("user-validated %v, want 4 attrs", res.UserValidated.Names(r))
	}
}

// TestCertainFixNonMasterTuple: a tuple with no master counterpart cannot
// be auto-fixed; the framework walks the users through validating
// everything, never inventing values.
func TestCertainFixNonMasterTuple(t *testing.T) {
	m := newMonitor(t, monitor.Config{})
	truth := paperex.InputT4() // t4: nothing applies
	res, err := m.Fix(context.Background(), paperex.InputT4(), monitor.SimulatedUser{Truth: truth})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("fix must complete via user validation")
	}
	if !res.Tuple.Equal(truth) {
		t.Fatalf("tuple changed: %v", res.Tuple)
	}
	if res.AutoFixed.Len() != 0 {
		t.Fatalf("no attribute should be auto-fixed, got %v", res.AutoFixed.Positions())
	}
	if res.Rounds < 2 {
		t.Fatalf("rounds = %d; t4 needs extra rounds to validate the rest", res.Rounds)
	}
}

// TestCertainFixDirtyValuesCorrected: t1 with extra injected errors in
// rule-covered attributes is still fully corrected.
func TestCertainFixDirtyValuesCorrected(t *testing.T) {
	m := newMonitor(t, monitor.Config{})
	r := m.Deriver().Sigma().Schema()
	dirty := paperex.InputT1()
	dirty[r.MustPos("city")] = relation.String("Glasgow") // extra error
	dirty[r.MustPos("LN")] = relation.String("Bradey")    // typo
	res, err := m.Fix(context.Background(), dirty, monitor.SimulatedUser{Truth: truthT1()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || !res.Tuple.Equal(truthT1()) {
		t.Fatalf("completed=%v tuple=%v", res.Completed, res.Tuple)
	}
}

// TestCertainFixPlusMatchesCertainFix: the BDD-cached variant returns the
// same results, and the cache actually hits on a stream of tuples.
func TestCertainFixPlusMatchesCertainFix(t *testing.T) {
	plain := newMonitor(t, monitor.Config{})
	plus := newMonitor(t, monitor.Config{UseBDD: true})

	// t4 needs multiple rounds, so repeated t4s exercise the cache.
	inputs := []relation.Tuple{paperex.InputT1(), paperex.InputT4(), paperex.InputT4(), paperex.InputT4()}
	truths := []relation.Tuple{truthT1(), paperex.InputT4(), paperex.InputT4(), paperex.InputT4()}

	for i := range inputs {
		a, err := plain.Fix(context.Background(), inputs[i], monitor.SimulatedUser{Truth: truths[i]})
		if err != nil {
			t.Fatal(err)
		}
		b, err := plus.Fix(context.Background(), inputs[i], monitor.SimulatedUser{Truth: truths[i]})
		if err != nil {
			t.Fatal(err)
		}
		if !a.Tuple.Equal(b.Tuple) {
			t.Fatalf("tuple %d: CertainFix %v != CertainFix+ %v", i, a.Tuple, b.Tuple)
		}
		if a.Rounds != b.Rounds {
			t.Fatalf("tuple %d: rounds %d != %d", i, a.Rounds, b.Rounds)
		}
	}
	hits, misses := plus.CacheStats()
	if hits == 0 {
		t.Fatalf("BDD cache never hit (hits=%d misses=%d)", hits, misses)
	}
	if h, ms := plain.CacheStats(); h != 0 || ms != 0 {
		t.Fatal("plain monitor must not use a cache")
	}
}

// overAssertingUser validates the suggestion plus extra attributes, the
// "S may not be sug" case of §5.
type overAssertingUser struct {
	truth relation.Tuple
	extra []int
}

func (u overAssertingUser) Assert(_ relation.Tuple, suggested []int) ([]int, []relation.Value) {
	s := append(append([]int(nil), suggested...), u.extra...)
	values := make([]relation.Value, len(s))
	for i, p := range s {
		values[i] = u.truth[p]
	}
	return s, values
}

// TestConflictRoutedToUser: when the users additionally assert t3's AC,
// the validated region becomes (Z_AHZ)-like — zip points at s1 while
// (AC, phn) points at s2, so ϕ2/ϕ3 and ϕ6/ϕ7 disagree on str and city
// (Example 10). The framework must route the disputed attributes to the
// users instead of guessing, and the user-asserted values must survive.
func TestConflictRoutedToUser(t *testing.T) {
	m := newMonitor(t, monitor.Config{})
	r := m.Deriver().Sigma().Schema()
	truth := paperex.InputT3() // declare t3's current values the truth
	user := overAssertingUser{truth: truth, extra: []int{r.MustPos("AC")}}
	res, err := m.Fix(context.Background(), paperex.InputT3(), user)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("fix must complete")
	}
	if !res.Tuple.Equal(truth) {
		t.Fatalf("conflicting rules must not overwrite user truth:\n got  %v\n want %v", res.Tuple, truth)
	}
	if res.Rounds < 2 {
		t.Fatalf("rounds = %d; the conflict needs at least one extra round", res.Rounds)
	}
}

// TestMonitorResultSnapshots: per-round stats are recorded monotonically.
func TestMonitorResultSnapshots(t *testing.T) {
	m := newMonitor(t, monitor.Config{})
	res, err := m.Fix(context.Background(), paperex.InputT4(), monitor.SimulatedUser{Truth: paperex.InputT4()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerRound) != res.Rounds {
		t.Fatalf("per-round stats %d != rounds %d", len(res.PerRound), res.Rounds)
	}
	for i := 1; i < len(res.PerRound); i++ {
		prev, cur := res.PerRound[i-1], res.PerRound[i]
		if !cur.UserValidated.ContainsSet(prev.UserValidated) {
			t.Fatal("user-validated set must grow monotonically")
		}
		if !cur.AutoFixed.ContainsSet(prev.AutoFixed) {
			t.Fatal("auto-fixed set must grow monotonically")
		}
	}
}

// TestMonitorArityCheck: wrong arity is rejected.
func TestMonitorArityCheck(t *testing.T) {
	m := newMonitor(t, monitor.Config{})
	if _, err := m.Fix(context.Background(), relation.StringTuple("too", "short"), monitor.SimulatedUser{Truth: truthT1()}); err == nil {
		t.Fatal("want arity error")
	}
}

// TestInitialRegionIndexClamped: an out-of-range region index — too
// large or negative — clamps instead of panicking at the first session.
func TestInitialRegionIndexClamped(t *testing.T) {
	for _, idx := range []int{99, -1} {
		m := newMonitor(t, monitor.Config{InitialRegion: idx})
		res, err := m.Fix(context.Background(), paperex.InputT1(), monitor.SimulatedUser{Truth: truthT1()})
		if err != nil || !res.Completed {
			t.Fatalf("InitialRegion=%d: res=%v err=%v", idx, res, err)
		}
	}
}
