package rule

import (
	"strings"
	"testing"

	"repro/internal/pattern"
	"repro/internal/relation"
)

func weightSchemas() (*relation.Schema, *relation.Schema) {
	r := relation.StringSchema("R", "a", "b", "c", "weight")
	rm := relation.StringSchema("Rm", "a", "b", "c", "weight")
	return r, rm
}

func TestConfidenceDefaultsToOne(t *testing.T) {
	r, rm := weightSchemas()
	ru, err := ParseRule(r, rm, `rule t1: (a ; a) -> (b ; b)`)
	if err != nil {
		t.Fatal(err)
	}
	if ru.Confidence() != 1 {
		t.Fatalf("default confidence = %v, want 1", ru.Confidence())
	}
	if got := MustNewSet(r, rm, ru).Rule(0).Confidence(); got != 1 {
		t.Fatalf("set member confidence = %v, want 1", got)
	}
	if strings.Contains(ru.String(), "weight") {
		t.Fatalf("unweighted String must not mention weight: %s", ru)
	}
}

func TestParseWeightClause(t *testing.T) {
	r, rm := weightSchemas()
	ru, err := ParseRule(r, rm, `rule t1: (a ; a) -> (b ; b) weight 0.93`)
	if err != nil {
		t.Fatal(err)
	}
	if ru.Confidence() != 0.93 {
		t.Fatalf("confidence = %v, want 0.93", ru.Confidence())
	}
	if got := MustNewSet(r, rm, ru).Rule(0).Confidence(); got != 0.93 {
		t.Fatalf("set member confidence = %v, want 0.93", got)
	}
	if !strings.Contains(ru.String(), "weight 0.93") {
		t.Fatalf("weighted String must carry the weight: %s", ru)
	}

	// Weight composes with a when clause.
	ru, err = ParseRule(r, rm, `rule t2: (a ; a) -> (b ; b) when c = "x" weight 0.5`)
	if err != nil {
		t.Fatal(err)
	}
	if ru.Confidence() != 0.5 || ru.Pattern().Len() != 1 {
		t.Fatalf("confidence %v pattern len %d, want 0.5 and 1", ru.Confidence(), ru.Pattern().Len())
	}
}

func TestParseWeightDoesNotEatConditions(t *testing.T) {
	r, rm := weightSchemas()
	// An attribute literally named "weight" used in a condition must not
	// be mistaken for a weight clause.
	ru, err := ParseRule(r, rm, `rule t1: (a ; a) -> (b ; b) when weight = "3"`)
	if err != nil {
		t.Fatal(err)
	}
	if ru.Confidence() != 1 || ru.Pattern().Len() != 1 {
		t.Fatalf("confidence %v pattern len %d, want 1 and 1", ru.Confidence(), ru.Pattern().Len())
	}
}

func TestParseWeightRejectsBadValues(t *testing.T) {
	r, rm := weightSchemas()
	for _, line := range []string{
		`rule t1: (a ; a) -> (b ; b) weight nope`,
		`rule t1: (a ; a) -> (b ; b) weight 0`,
		`rule t1: (a ; a) -> (b ; b) weight 1.5`,
		`rule t1: (a ; a) -> (b ; b) weight -0.2`,
	} {
		if _, err := ParseRule(r, rm, line); err == nil {
			t.Errorf("want error for %q", line)
		}
	}
}

func TestWithConfidence(t *testing.T) {
	r, rm := weightSchemas()
	base := MustNew("t1", r, rm, []int{0}, []int{0}, 1, 1, pattern.Empty())
	w, err := base.WithConfidence(0.7)
	if err != nil {
		t.Fatal(err)
	}
	if base.Confidence() != 1 {
		t.Fatal("WithConfidence must not mutate the receiver")
	}
	if w.Confidence() != 0.7 || w.Name() != "t1" {
		t.Fatalf("got conf %v name %s", w.Confidence(), w.Name())
	}
	for _, bad := range []float64{0, -1, 1.01} {
		if _, err := base.WithConfidence(bad); err == nil {
			t.Errorf("WithConfidence(%v) should fail", bad)
		}
	}
	// Weight survives refinement: WithPattern copies the confidence.
	refined, err := w.WithPattern(w.Pattern())
	if err != nil {
		t.Fatal(err)
	}
	if refined.Confidence() != 0.7 {
		t.Fatalf("WithPattern dropped confidence: %v", refined.Confidence())
	}
}
