package monitor_test

import (
	"context"
	"testing"

	"repro/internal/monitor"
	"repro/internal/paperex"
	"repro/internal/relation"
)

// TestSessionStepwiseMatchesFix: driving a Session manually produces the
// same outcome as the callback-based Fix.
func TestSessionStepwiseMatchesFix(t *testing.T) {
	m := newMonitor(t, monitor.Config{})
	truth := truthT1()

	viaFix, err := m.Fix(context.Background(), paperex.InputT1(), monitor.SimulatedUser{Truth: truth})
	if err != nil {
		t.Fatal(err)
	}

	sess, err := m.NewSession(paperex.InputT1())
	if err != nil {
		t.Fatal(err)
	}
	for !sess.Done() {
		attrs := sess.Suggested()
		values := make([]relation.Value, len(attrs))
		for i, p := range attrs {
			values[i] = truth[p]
		}
		if err := sess.Provide(attrs, values); err != nil {
			t.Fatal(err)
		}
	}
	viaSession := sess.Result()
	if !viaSession.Tuple.Equal(viaFix.Tuple) {
		t.Fatalf("session %v != fix %v", viaSession.Tuple, viaFix.Tuple)
	}
	if viaSession.Rounds != viaFix.Rounds || viaSession.Completed != viaFix.Completed {
		t.Fatalf("rounds/completed mismatch: %+v vs %+v", viaSession, viaFix)
	}
}

// TestSessionValidation: bad inputs are rejected with errors.
func TestSessionValidation(t *testing.T) {
	m := newMonitor(t, monitor.Config{})
	if _, err := m.NewSession(relation.StringTuple("short")); err == nil {
		t.Fatal("arity mismatch must error")
	}
	sess, err := m.NewSession(paperex.InputT1())
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Provide([]int{0, 1}, []relation.Value{relation.Null}); err == nil {
		t.Fatal("length mismatch must error")
	}
	if err := sess.Provide([]int{99}, []relation.Value{relation.Null}); err == nil {
		t.Fatal("out-of-range attribute must error")
	}
}

// TestSessionDecline: providing no attributes ends the session
// incomplete.
func TestSessionDecline(t *testing.T) {
	m := newMonitor(t, monitor.Config{})
	sess, err := m.NewSession(paperex.InputT1())
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Provide(nil, nil); err != nil {
		t.Fatal(err)
	}
	if !sess.Done() {
		t.Fatal("declined session must be done")
	}
	if sess.Result().Completed {
		t.Fatal("declined session must not report completion")
	}
	if err := sess.Provide([]int{0}, []relation.Value{relation.Null}); err == nil {
		t.Fatal("providing after done must error")
	}
	if sess.Suggested() != nil {
		t.Fatal("done session suggests nothing")
	}
}

// TestSessionProgressAccessors: intermediate state is observable.
func TestSessionProgressAccessors(t *testing.T) {
	m := newMonitor(t, monitor.Config{})
	r := m.Deriver().Sigma().Schema()
	truth := truthT1()
	sess, err := m.NewSession(paperex.InputT1())
	if err != nil {
		t.Fatal(err)
	}
	attrs := sess.Suggested()
	if len(attrs) == 0 {
		t.Fatal("fresh session must suggest the initial region")
	}
	values := make([]relation.Value, len(attrs))
	for i, p := range attrs {
		values[i] = truth[p]
	}
	if err := sess.Provide(attrs, values); err != nil {
		t.Fatal(err)
	}
	if sess.Rounds() != 1 {
		t.Fatalf("rounds = %d", sess.Rounds())
	}
	if got := sess.Tuple()[r.MustPos("AC")].Str(); got != "131" {
		t.Fatalf("AC after round 1 = %q (TransFix should have fired)", got)
	}
	if !sess.Validated().Has(r.MustPos("AC")) {
		t.Fatal("AC must be validated after the cascade")
	}
	// Tuple() returns a copy.
	sess.Tuple()[0] = relation.Null
	if sess.Tuple()[0].IsNull() {
		t.Fatal("Tuple() must return a copy")
	}
}
