package certainfix

// VerifyFix: the client side of authenticated fixes. A Result produced
// under WithAuth carries, per auto-fixed attribute, the rule that fired,
// the master tuple that supplied the value, and a Merkle inclusion proof
// for that tuple. Given the rule set and a published root — /v1/root, a
// pinned config, an audit log — anyone can re-check the whole derivation
// offline: no master data, no server trust, no network. A server cannot
// invent a master tuple (the proof would not fold to the root), point at
// the wrong tuple (the premise correspondence would fail), or claim a
// value the tuple does not carry.

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/authtree"
	"repro/internal/relation"
	"repro/internal/rule"
)

// ErrVerifyFailed is the sentinel every VerifyFix rejection matches via
// errors.Is: missing or excess provenance, a witness that does not
// justify its fix under the rules, or an inclusion proof that does not
// fold to the root. Callers needing the specific reason read the error
// text; programmatically a fix either verifies or it does not.
var ErrVerifyFailed = errors.New("certainfix: fix does not verify against root")

// VerifyFix checks a fix Result against a published master root using
// nothing else: every attribute in res.AutoFixed must carry a Witness
// whose rule exists in rules, whose premise matches the fixed tuple
// against the witnessed master tuple, whose master cell supplies exactly
// the fixed value, and whose inclusion proof authenticates the master
// tuple under root. User-validated attributes are the users' assertion,
// not the system's, and are not checked.
//
// The check is sound against the FINAL tuple even though rules fired
// mid-cascade: a rule fires only when its premise attributes are
// validated, and validated cells are frozen for the rest of the session
// — so the premise cells the rule saw are the cells res.Tuple carries.
func VerifyFix(rules *Rules, res *Result, root string) error {
	if res == nil {
		return fmt.Errorf("%w: nil result", ErrVerifyFailed)
	}
	rootHash, err := authtree.ParseHash(root)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrVerifyFailed, err)
	}
	t := res.Tuple
	if len(t) != rules.Schema().Arity() {
		return fmt.Errorf("%w: tuple arity %d does not match schema %s", ErrVerifyFailed, len(t), rules.Schema())
	}

	// The witness set must cover AutoFixed exactly: a missing witness is
	// an unjustified fix, an extra one claims provenance for an attribute
	// the rules did not fix.
	byAttr := make(map[int]*Witness, len(res.Provenance))
	for i := range res.Provenance {
		w := &res.Provenance[i]
		if !res.AutoFixed.Has(w.Attr) {
			return fmt.Errorf("%w: witness for attribute %d, which is not auto-fixed", ErrVerifyFailed, w.Attr)
		}
		if _, dup := byAttr[w.Attr]; dup {
			return fmt.Errorf("%w: duplicate witness for attribute %d", ErrVerifyFailed, w.Attr)
		}
		byAttr[w.Attr] = w
	}

	marity := rules.MasterSchema().Arity()
	// Several witnesses usually cite one master tuple and share its proof:
	// an inclusion already checked for the same proof and the same tuple is
	// not checked again. A shared proof behind a different tuple is.
	type included struct {
		proof  *authtree.Proof
		master relation.Tuple
	}
	var checked []included
	var verr error
	res.AutoFixed.Range(func(p int) bool {
		w, ok := byAttr[p]
		if !ok {
			verr = fmt.Errorf("%w: auto-fixed attribute %d has no witness", ErrVerifyFailed, p)
			return false
		}
		if verr = verifyWitness(rules, t, w, marity); verr != nil {
			return false
		}
		if slices.ContainsFunc(checked, func(c included) bool { return c.proof == w.Proof && c.master.Equal(w.Master) }) {
			return true
		}
		if err := authtree.VerifyInclusion(rootHash, w.Master, w.Proof); err != nil {
			verr = fmt.Errorf("%w: attribute %d: %v", ErrVerifyFailed, w.Attr, err)
			return false
		}
		checked = append(checked, included{w.Proof, w.Master})
		return true
	})
	return verr
}

// verifyWitness checks one witness short of its inclusion proof: rule
// exists and targets the attribute, the master tuple matches the rule
// against the fixed tuple and supplies the fixed value.
func verifyWitness(rules *Rules, t relation.Tuple, w *Witness, marity int) error {
	ru := ruleByName(rules, w.Rule)
	if ru == nil {
		return fmt.Errorf("%w: attribute %d cites unknown rule %q", ErrVerifyFailed, w.Attr, w.Rule)
	}
	if ru.RHS() != w.Attr {
		return fmt.Errorf("%w: rule %q fixes attribute %d, witness claims %d", ErrVerifyFailed, w.Rule, ru.RHS(), w.Attr)
	}
	if len(w.Master) != marity {
		return fmt.Errorf("%w: attribute %d: master tuple arity %d does not match schema", ErrVerifyFailed, w.Attr, len(w.Master))
	}
	if !ru.MatchesPattern(t) {
		return fmt.Errorf("%w: attribute %d: tuple does not satisfy rule %q's pattern", ErrVerifyFailed, w.Attr, w.Rule)
	}
	x, xm := ru.LHS(), ru.LHSM()
	for i := range x {
		if !t[x[i]].Equal(w.Master[xm[i]]) {
			return fmt.Errorf("%w: attribute %d: premise attribute %d does not match master tuple", ErrVerifyFailed, w.Attr, x[i])
		}
	}
	if !t[ru.RHS()].Equal(w.Master[ru.RHSM()]) {
		return fmt.Errorf("%w: attribute %d: fixed value is not the master tuple's", ErrVerifyFailed, w.Attr)
	}
	return nil
}

// ruleByName finds the named rule in Σ, nil when absent.
func ruleByName(rules *Rules, name string) *rule.Rule {
	for _, ru := range rules.Rules() {
		if ru.Name() == name {
			return ru
		}
	}
	return nil
}
