// Package rule implements editing rules (eRs) as defined in §2 of the
// paper: ϕ = ((X, Xm) → (B, Bm), tp[Xp]) over a pair of schemas (R, Rm).
// It also provides rule sets Σ, a textual rule DSL with parser, and the
// rule dependency graph of §5.1 used by TransFix.
package rule

import (
	"fmt"
	"strings"

	"repro/internal/pattern"
	"repro/internal/relation"
)

// Rule is an editing rule ((X, Xm) → (B, Bm), tp[Xp]).
//
// X (lhs) and Xm (lhsm) are equal-length lists of attribute positions in R
// and Rm respectively; B (rhs) is an R attribute outside X; Bm (rhsm) is an
// Rm attribute; tp is a pattern tuple over R attributes Xp.
//
// Semantics (§2): ϕ and a master tuple tm apply to t, written
// t →(ϕ,tm) t', iff t ≈ tp, t[X] = tm[Xm]; then t' is t with
// t[B] := tm[Bm].
//
// A rule is immutable once built: the slices LHS and LHSM return are
// the rule's own, shared by every goroutine reading it, and must not be
// modified. Derived rules (WithPattern, WithConfidence) share them too.
type Rule struct {
	name   string
	r, rm  *relation.Schema
	x, xm  []int
	b, bm  int
	tp     pattern.Tuple
	xSet   relation.AttrSet
	xpSet  relation.AttrSet
	xxpSet relation.AttrSet // X ∪ Xp, the attributes that must be validated
	// conf is the rule's confidence weight in (0, 1]: the fraction of
	// evidence supporting the rule when it was mined from (possibly
	// dirty) data. Hand-written rules and exact mined dependencies carry
	// 1 — the paper's unweighted semantics; see WithConfidence.
	conf float64
}

// New constructs and validates an editing rule.
func New(name string, r, rm *relation.Schema, x, xm []int, b, bm int, tp pattern.Tuple) (*Rule, error) {
	if r == nil || rm == nil {
		return nil, fmt.Errorf("rule %s: nil schema", name)
	}
	if len(x) != len(xm) {
		return nil, fmt.Errorf("rule %s: |X| = %d but |Xm| = %d", name, len(x), len(xm))
	}
	seen := map[int]bool{}
	for _, p := range x {
		if p < 0 || p >= r.Arity() {
			return nil, fmt.Errorf("rule %s: X position %d out of range for %s", name, p, r.Name())
		}
		if seen[p] {
			return nil, fmt.Errorf("rule %s: duplicate attribute %s in X", name, r.Attr(p).Name)
		}
		seen[p] = true
	}
	for _, p := range xm {
		if p < 0 || p >= rm.Arity() {
			return nil, fmt.Errorf("rule %s: Xm position %d out of range for %s", name, p, rm.Name())
		}
	}
	if b < 0 || b >= r.Arity() {
		return nil, fmt.Errorf("rule %s: B position %d out of range for %s", name, b, r.Name())
	}
	if seen[b] {
		return nil, fmt.Errorf("rule %s: B = %s must not occur in X", name, r.Attr(b).Name)
	}
	if bm < 0 || bm >= rm.Arity() {
		return nil, fmt.Errorf("rule %s: Bm position %d out of range for %s", name, bm, rm.Name())
	}
	for _, p := range tp.Positions() {
		if p >= r.Arity() {
			return nil, fmt.Errorf("rule %s: pattern position %d out of range for %s", name, p, r.Name())
		}
	}
	ru := &Rule{
		name: name, r: r, rm: rm,
		x: append([]int(nil), x...), xm: append([]int(nil), xm...),
		b: b, bm: bm, tp: tp,
		conf: 1,
	}
	ru.xSet = relation.NewAttrSet(x...)
	ru.xpSet = tp.AttrSet()
	ru.xxpSet = ru.xSet.Union(ru.xpSet)
	return ru, nil
}

// MustNew is New that panics on error; for fixtures and generated rules.
func MustNew(name string, r, rm *relation.Schema, x, xm []int, b, bm int, tp pattern.Tuple) *Rule {
	ru, err := New(name, r, rm, x, xm, b, bm, tp)
	if err != nil {
		panic(err)
	}
	return ru
}

// Name returns the rule's identifier (may be empty).
func (ru *Rule) Name() string { return ru.name }

// Schema returns the input schema R.
func (ru *Rule) Schema() *relation.Schema { return ru.r }

// MasterSchema returns the master schema Rm.
func (ru *Rule) MasterSchema() *relation.Schema { return ru.rm }

// LHS returns the positions of X in R; the slice is shared and read-only.
func (ru *Rule) LHS() []int { return ru.x }

// LHSM returns the positions of Xm in Rm, paired with LHS by index; the
// slice is shared and read-only.
func (ru *Rule) LHSM() []int { return ru.xm }

// RHS returns the position of B in R.
func (ru *Rule) RHS() int { return ru.b }

// RHSM returns the position of Bm in Rm.
func (ru *Rule) RHSM() int { return ru.bm }

// Pattern returns the pattern tuple tp[Xp].
func (ru *Rule) Pattern() pattern.Tuple { return ru.tp }

// LHSSet returns X as a set.
func (ru *Rule) LHSSet() relation.AttrSet { return ru.xSet }

// PremiseSet returns X ∪ Xp — the attributes that must be validated
// before the rule may fire against a region.
func (ru *Rule) PremiseSet() relation.AttrSet { return ru.xxpSet }

// MasterPosFor returns the Rm position paired with R position p in (X, Xm),
// i.e. λϕ of §5.2 on a single attribute; ok=false when p ∉ X.
func (ru *Rule) MasterPosFor(p int) (int, bool) {
	for i, q := range ru.x {
		if q == p {
			return ru.xm[i], true
		}
	}
	return -1, false
}

// IsDirect reports whether Xp ⊆ X, the "direct fix" restriction of §4
// (special case 5) under which consistency and coverage are PTIME (Thm 5).
func (ru *Rule) IsDirect() bool { return ru.xSet.ContainsSet(ru.xpSet) }

// Normalize returns an equivalent rule whose pattern contains no wildcard
// cells (the normal form of §2).
func (ru *Rule) Normalize() *Rule {
	n := ru.tp.Normalize()
	if n.Len() == ru.tp.Len() {
		return ru
	}
	return MustNew(ru.name, ru.r, ru.rm, ru.x, ru.xm, ru.b, ru.bm, n)
}

// WithPattern returns a copy of the rule carrying pattern tp instead; used
// for the refined rules ϕ+ of §5.2. The base rule is already validated and
// its position slices immutable, so only the new pattern is checked and
// the (X, Xm) state is shared — this runs once per kept rule per
// ApplicableRules call, so it must not re-run New's full validation.
func (ru *Rule) WithPattern(tp pattern.Tuple) (*Rule, error) {
	for i := 0; i < tp.Len(); i++ {
		if pos, _ := tp.CellAt(i); pos >= ru.r.Arity() {
			return nil, fmt.Errorf("rule %s+: pattern position %d out of range for %s", ru.name, pos, ru.r.Name())
		}
	}
	out := *ru
	out.name = ru.name + "+"
	out.tp = tp
	out.xpSet = tp.AttrSet()
	out.xxpSet = ru.xSet.Union(out.xpSet)
	return &out, nil
}

// Confidence returns the rule's confidence weight in (0, 1]. 1 means the
// rule is taken as ground truth (hand-written, or mined with zero
// violations); smaller values record how much of the mining evidence the
// rule explains — 1 − violations/|Dm| for a dependency mined from dirty
// master data. Suggest uses these weights to rank otherwise-tied
// suggestions; fix semantics are unaffected.
func (ru *Rule) Confidence() float64 { return ru.conf }

// WithConfidence returns a copy of the rule carrying confidence c
// (0 < c ≤ 1). Like WithPattern this shares the validated (X, Xm) state;
// the rule name is unchanged, so a weighted rule prints and serializes
// under its original identity.
func (ru *Rule) WithConfidence(c float64) (*Rule, error) {
	if !(c > 0 && c <= 1) {
		return nil, fmt.Errorf("rule %s: confidence %v outside (0, 1]", ru.name, c)
	}
	out := *ru
	out.conf = c
	return &out, nil
}

// MatchesPattern reports t ≈ tp for this rule's pattern.
func (ru *Rule) MatchesPattern(t relation.Tuple) bool { return ru.tp.Matches(t) }

// String renders the rule in the paper's notation using attribute names.
func (ru *Rule) String() string {
	xn := make([]string, len(ru.x))
	xmn := make([]string, len(ru.xm))
	for i := range ru.x {
		xn[i] = ru.r.Attr(ru.x[i]).Name
		xmn[i] = ru.rm.Attr(ru.xm[i]).Name
	}
	s := fmt.Sprintf("%s: (([%s], [%s]) -> (%s, %s), tp%s)",
		ru.name,
		strings.Join(xn, ", "), strings.Join(xmn, ", "),
		ru.r.Attr(ru.b).Name, ru.rm.Attr(ru.bm).Name,
		ru.tp.Format(ru.r))
	if ru.conf != 1 {
		s += fmt.Sprintf(" weight %.4g", ru.conf)
	}
	return s
}
