package rule

import (
	"math"

	"repro/internal/relation"
)

// This file implements the compiled closure engine: a rule set is compiled
// once into the counter-based layout of LINCLOSURE (Beeri & Bernstein's
// linear-time FD closure), replacing the naive O(|Σ|²) fixpoint that
// region derivation and procedure Suggest (§5) would otherwise re-run from
// scratch for every candidate attribute of every greedy round.
//
// Layout: per attribute, the list of compiled rules whose premise (X ∪ Xp)
// contains it; per rule, a remaining-premise counter seeded to |premise|
// and its rhs attribute. Closing a set is then one pass: pop an attribute,
// decrement the counters of the rules whose premise mentions it, and fire
// a rule — push its rhs — when its counter hits zero. O(|Σ| + arity +
// total premise size) per closure instead of O(|Σ|²).
//
// All mutable state lives in ClosureScratch (epoch-stamped membership, the
// counter array, the work stack), so a compiled program is immutable and
// safe for concurrent use with per-caller scratch, and repeated closures
// allocate nothing. GainAll additionally evaluates the closure gain of
// *every* candidate attribute in one pass: the base closure runs once, and
// each candidate propagates only its marginal consequences, which are
// undone in O(work done) via an explicit trial log.
//
// A program is compiled once per Σ and never per call: which of its rules
// take part in one closure is a per-call mask (off[r] drops rule r). The
// rules a master snapshot cannot support (§5) and the rules outside a
// tuple's Σ_t[Z] (§5.2) are two masks over the same program, so rule r of
// the program is always rule r of Σ.

// Compiled is an immutable closure program for a fixed premise/rhs
// structure. Build one with Set.Compile or CompileClosure.
type Compiled struct {
	arity   int
	premLen []int32   // per rule, |premise|
	rhs     []int32   // per rule, rhs attribute
	occ     [][]int32 // per attribute, rules whose premise contains it
	empty   []int32   // rules with an empty premise: fire unless masked
}

func newCompiled(arity int) *Compiled {
	return &Compiled{arity: arity, occ: make([][]int32, arity)}
}

// addRule appends one (premise → rhs) pair to the program.
func (c *Compiled) addRule(prem relation.AttrSet, rhs int) {
	idx := int32(len(c.premLen))
	n := int32(0)
	prem.Range(func(p int) bool {
		c.occ[p] = append(c.occ[p], idx)
		n++
		return true
	})
	c.premLen = append(c.premLen, n)
	c.rhs = append(c.rhs, int32(rhs))
	if n == 0 {
		c.empty = append(c.empty, idx)
	}
}

// CompileClosure builds a closure program from raw (premise → rhs) pairs —
// the generic entry point, also used by the §4 checker's validator
// reachability. Premise positions and rhs values must lie in [0, arity).
func CompileClosure(arity int, premises []relation.AttrSet, rhs []int) *Compiled {
	c := newCompiled(arity)
	for i, prem := range premises {
		c.addRule(prem, rhs[i])
	}
	return c
}

// Compile compiles Σ into a closure program whose rule r is Rules()[r]:
// the masks callers pass to Closure and GainAll are aligned with Rules().
func (s *Set) Compile() *Compiled {
	c := newCompiled(s.r.Arity())
	for _, ru := range s.rules {
		c.addRule(ru.xxpSet, ru.b)
	}
	return c
}

// ClosureScratch holds the mutable state of closure computation: reuse one
// per goroutine across any number of Closure/GainAll calls (it grows to
// fit whichever program it is used with). The zero value is not ready;
// obtain one with NewClosureScratch.
type ClosureScratch struct {
	epoch      uint32
	member     []uint32 // member[a] == epoch ⟺ a is in the current closure
	remaining  []int32  // per rule, premise attributes not yet in the closure
	queue      []int32
	trialRules []int32 // decrement log of the current GainAll trial
	trialAttrs []int32 // attributes added by the current GainAll trial
	gains      []int
}

// NewClosureScratch returns an empty scratch.
func NewClosureScratch() *ClosureScratch { return &ClosureScratch{} }

// begin sizes the scratch for c and opens a fresh epoch (invalidating the
// previous closure's membership in O(1)).
func (sc *ClosureScratch) begin(c *Compiled) {
	if len(sc.member) < c.arity {
		sc.member = make([]uint32, c.arity)
		sc.epoch = 0
	}
	if cap(sc.remaining) < len(c.premLen) {
		sc.remaining = make([]int32, len(c.premLen))
	}
	sc.remaining = sc.remaining[:len(c.premLen)]
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale stamps could collide, so reset
		for i := range sc.member {
			sc.member[i] = 0
		}
		sc.epoch = 1
	}
}

// Has reports whether attribute a is in the closure most recently computed
// into sc. After GainAll it reflects the base closure (trials are undone).
func (sc *ClosureScratch) Has(a int) bool {
	return a >= 0 && a < len(sc.member) && sc.member[a] == sc.epoch
}

// Closure computes the closure of base under the program's rules r with
// !off[r] (a nil off keeps every rule) and returns its size. Membership is
// available through sc.Has until the next call. Positions outside
// [0, arity) — legal in callers' AttrSets, impossible in premises — count
// toward the size but cannot fire rules.
func (c *Compiled) Closure(base relation.AttrSet, off []bool, sc *ClosureScratch) int {
	sc.begin(c)
	if off == nil {
		copy(sc.remaining, c.premLen)
	} else {
		off = off[:len(c.premLen)]
		for r, n := range c.premLen {
			if off[r] {
				// A premise holds at most arity attributes, so the counter
				// of a masked rule never reaches zero — in the closure or
				// a trial.
				n = math.MaxInt32
			}
			sc.remaining[r] = n
		}
	}
	size := 0
	q := sc.queue[:0]
	base.Range(func(p int) bool {
		if p >= c.arity {
			size++
			return true
		}
		if sc.member[p] != sc.epoch {
			sc.member[p] = sc.epoch
			size++
			q = append(q, int32(p))
		}
		return true
	})
	for _, r := range c.empty {
		if off != nil && off[r] {
			continue
		}
		if b := c.rhs[r]; sc.member[b] != sc.epoch {
			sc.member[b] = sc.epoch
			size++
			q = append(q, b)
		}
	}
	for len(q) > 0 {
		a := q[len(q)-1]
		q = q[:len(q)-1]
		for _, r := range c.occ[a] {
			sc.remaining[r]--
			if sc.remaining[r] == 0 {
				if b := c.rhs[r]; sc.member[b] != sc.epoch {
					sc.member[b] = sc.epoch
					size++
					q = append(q, b)
				}
			}
		}
	}
	sc.queue = q[:0]
	return size
}

// GainAll computes |closure(base)| plus, for every attribute a, the size
// of closure(base ∪ {a}), under the same mask as Closure — the greedy step
// of Suggest and growAndMinimize in one compiled pass instead of one full
// closure per candidate. The returned slice aliases sc and is valid until the next use of sc; entries
// for attributes already in the base closure equal the base size (adding
// them changes nothing).
func (c *Compiled) GainAll(base relation.AttrSet, off []bool, sc *ClosureScratch) (baseLen int, gains []int) {
	baseLen = c.Closure(base, off, sc)
	if cap(sc.gains) < c.arity {
		sc.gains = make([]int, c.arity)
	}
	gains = sc.gains[:c.arity]
	for a := 0; a < c.arity; a++ {
		if sc.member[a] == sc.epoch {
			gains[a] = baseLen
			continue
		}
		gains[a] = baseLen + c.trial(a, sc)
	}
	return baseLen, gains
}

// trial propagates candidate attribute a from the saturated base closure,
// returns how many attributes that adds, and undoes every counter
// decrement and membership stamp so the next trial starts from the same
// base state. Cost is proportional to the work the candidate causes.
func (c *Compiled) trial(a int, sc *ClosureScratch) int {
	sc.trialAttrs = append(sc.trialAttrs[:0], int32(a))
	sc.trialRules = sc.trialRules[:0]
	sc.member[a] = sc.epoch
	q := append(sc.queue[:0], int32(a))
	for len(q) > 0 {
		x := q[len(q)-1]
		q = q[:len(q)-1]
		for _, r := range c.occ[x] {
			sc.remaining[r]--
			sc.trialRules = append(sc.trialRules, r)
			if sc.remaining[r] == 0 {
				if b := c.rhs[r]; sc.member[b] != sc.epoch {
					sc.member[b] = sc.epoch
					sc.trialAttrs = append(sc.trialAttrs, b)
					q = append(q, b)
				}
			}
		}
	}
	gain := len(sc.trialAttrs)
	for _, r := range sc.trialRules {
		sc.remaining[r]++
	}
	for _, x := range sc.trialAttrs {
		sc.member[x] = 0 // epoch is never 0, so 0 means "not a member"
	}
	sc.queue = q[:0]
	return gain
}
