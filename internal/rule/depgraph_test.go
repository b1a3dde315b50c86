package rule_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/paperex"
	"repro/internal/rule"
)

// TestDepGraphFig4 checks the dependency graph of Σ0 against Fig. 4 of the
// paper: applying ϕ1 (fixing AC) enables ϕ6–ϕ9 (which read AC), and
// applying ϕ8 (fixing zip) enables ϕ1–ϕ3 (which read zip). No other rule
// enables anything.
func TestDepGraphFig4(t *testing.T) {
	sigma := paperex.Sigma0()
	g := rule.NewDepGraph(sigma)
	if sigma.Len() != 9 {
		t.Fatalf("Σ0 has %d rules", sigma.Len())
	}
	wantEdges := map[string][]string{
		"phi1": {"phi6", "phi7", "phi8", "phi9"}, // AC feeds ϕ6–ϕ9
		"phi8": {"phi1", "phi2", "phi3"},         // zip feeds ϕ1–ϕ3
	}
	for u := 0; u < sigma.Len(); u++ {
		name := sigma.Rule(u).Name()
		var got []string
		for _, v := range g.Successors(u) {
			got = append(got, sigma.Rule(v).Name())
		}
		want := wantEdges[name]
		if len(got) != len(want) {
			t.Errorf("%s: successors %v, want %v", name, got, want)
			continue
		}
		wantSet := map[string]bool{}
		for _, w := range want {
			wantSet[w] = true
		}
		for _, w := range got {
			if !wantSet[w] {
				t.Errorf("%s: unexpected edge to %s", name, w)
			}
		}
	}
	if g.Set() != sigma {
		t.Error("Set() must return the construction set")
	}
	if !strings.Contains(g.String(), "phi1 -> phi6") {
		t.Errorf("String() = %q", g.String())
	}
}

// TestDepGraphNoSelfLoops: a rule whose rhs is in its own premise cannot
// exist (B ∉ X is enforced), but B may appear in the pattern of another
// rule; self-edges are excluded by construction.
func TestDepGraphNoSelfLoops(t *testing.T) {
	sigma := paperex.Sigma0()
	g := rule.NewDepGraph(sigma)
	for u := 0; u < sigma.Len(); u++ {
		if slices.Contains(g.Successors(u), u) {
			t.Errorf("self loop at node %d", u)
		}
	}
}
