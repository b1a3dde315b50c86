package suggest

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/master"
	"repro/internal/relation"
	"repro/internal/rule"
)

// Candidate is a derived certain-region skeleton: the attribute list Z,
// its quality score, and how many sampled master-derived pattern rows were
// verified certain. The tableau is intensional: a concrete value vector v
// over Z belongs to it iff the Theorem-4 check over (Z, v) covers — use
// Deriver.CertainRow to test membership. (Materializing Tc would cost one
// row per master tuple, as in Example 9; the framework never needs that.)
type Candidate struct {
	Z       []int
	ZSet    relation.AttrSet
	Quality float64
	Support int
}

// Deriver derives certain regions and suggestions for (Σ, Dm). Safe for
// concurrent use after construction: the compiled Σ program and a view's
// mask are immutable, and all per-call mutable state lives in pooled
// scratch.
//
// A deriver is a handle over a master.Versioned lineage (a static master
// is a lineage that never advances). It pins the current snapshot at the
// start of every public call — Pin returns the snapshot-bound view
// explicitly, for callers like monitor.Session that need one consistent
// snapshot across several calls. A view is a snapshot, that snapshot's
// mask over the Σ program (O(|Σ|) count reads) and a §4 checker — under
// a microsecond and three allocations to build — so only the head's view
// is cached (one pointer comparison per Pin after an unchanged epoch);
// PinAt builds a historical view per call.
type Deriver struct {
	sigma  *rule.Set
	actDom map[int][]relation.Value
	// sampleCap bounds how many master tuples seed verification rows.
	sampleCap int
	prog      *rule.Compiled // Σ, compiled once; rule r is sigma.Rule(r)
	pool      *sync.Pool     // *derScratch; shared between a handle and its views

	// Snapshot-bound state: the master snapshot, its mask over prog (the
	// rules no master tuple supports, read from the pattern counts) and
	// the §4 checker. Set on pinned views; nil on a handle, which pins per
	// call.
	dm      *master.Data
	checker *analysis.Checker
	off     []bool

	// Handle state; ver == nil means exactly "pinned view".
	ver  *master.Versioned
	view atomic.Pointer[Deriver] // cached pinned view for the current epoch
}

// derScratch bundles the per-call mutable state: the closure engine's
// counters, the per-tuple mask Σ_t[Z] of Suggest and IsSuggestion, and
// Suggest's grounded mask.
type derScratch struct {
	clo      *rule.ClosureScratch
	off      []bool
	unlikely []bool
}

// NewDeriver builds a deriver over a static (Σ, Dm): a lineage of one
// snapshot that never advances.
func NewDeriver(sigma *rule.Set, dm *master.Data) *Deriver {
	return NewDeriverVersioned(sigma, master.NewVersioned(dm))
}

// NewDeriverVersioned builds a deriver over a versioned master: every
// public call pins the currently published snapshot, so suggestions and
// region checks always run against one consistent epoch and pick up
// master updates between calls. Σ is compiled here, once.
func NewDeriverVersioned(sigma *rule.Set, ver *master.Versioned) *Deriver {
	return &Deriver{
		sigma:     sigma,
		actDom:    sigma.ActiveDomain(),
		sampleCap: 64,
		prog:      sigma.Compile(),
		pool:      &sync.Pool{New: func() any { return &derScratch{clo: rule.NewClosureScratch()} }},
		ver:       ver,
	}
}

// Pin returns a view of the deriver bound to one master snapshot: the
// cached view of the currently published snapshot (a pinned view returns
// itself). All public methods pin implicitly, so Pin is only needed when
// several calls must observe the same snapshot (a monitor Session pins
// once at NewSession).
func (d *Deriver) Pin() *Deriver {
	if d.ver == nil {
		return d // already a pinned view
	}
	snap := d.ver.Current()
	if v := d.view.Load(); v != nil && v.dm == snap {
		return v
	}
	v := d.buildView(snap)
	d.view.Store(v)
	return v
}

// PinAt returns a view of the deriver bound to the master snapshot with
// the given epoch — the resume path of a suspended fix session, which
// must re-observe exactly the Dm it was suspended on. The snapshot is
// served from the Versioned ring (an error matching
// master.ErrEpochEvicted when no longer retained, master.ErrEpochAhead
// when not published here yet; a static master's ring only ever holds its
// own epoch), so PinAt needs a handle, not a pinned view. The head is served from Pin's cached view; a historical epoch
// gets a fresh view, which holds nothing the ring does not.
func (d *Deriver) PinAt(epoch uint64) (*Deriver, error) {
	snap, err := d.ver.At(epoch)
	if err != nil {
		return nil, err
	}
	if v := d.Pin(); v.dm == snap {
		return v, nil
	}
	return d.buildView(snap), nil
}

// buildView binds a fresh view to one master snapshot, sharing the
// handle's immutable parts (Σ, its program) and scratch pool.
func (d *Deriver) buildView(snap *master.Data) *Deriver {
	return &Deriver{
		sigma: d.sigma, actDom: d.actDom, sampleCap: d.sampleCap, prog: d.prog, pool: d.pool,
		dm:      snap,
		checker: analysis.NewChecker(d.sigma, snap),
		off:     unsupported(d.sigma, snap),
	}
}

func (d *Deriver) getScratch() *derScratch   { return d.pool.Get().(*derScratch) }
func (d *Deriver) putScratch(sc *derScratch) { d.pool.Put(sc) }

// Sigma returns Σ.
func (d *Deriver) Sigma() *rule.Set { return d.sigma }

// Master returns Dm: the bound snapshot (pinned view) or the currently
// published one (handle).
func (d *Deriver) Master() *master.Data { return d.Pin().dm }

// Epoch returns the epoch of the snapshot Master would return.
func (d *Deriver) Epoch() uint64 { return d.Pin().dm.Epoch() }

// Checker returns the §4 checker for the current snapshot.
func (d *Deriver) Checker() *analysis.Checker { return d.Pin().checker }

// CertainRow reports whether the concrete values vals over z form a
// certain-region pattern row: consistent and covering (Theorem 4).
func (d *Deriver) CertainRow(z []int, vals []relation.Value) bool {
	return d.Pin().checker.ConcreteOK(z, vals, true)
}

// ConsistentRow reports whether vals over z lead to a unique fix.
func (d *Deriver) ConsistentRow(z []int, vals []relation.Value) bool {
	return d.Pin().checker.ConcreteOK(z, vals, false)
}

// CompCRegions derives candidate certain regions ranked by quality
// (descending). Different seeds explore different greedy starting points;
// duplicates (same Z) are merged. The first element is the CRHQ region of
// §6 Exp-1(2); the middle element is CRMQ.
func (d *Deriver) CompCRegions() []Candidate {
	d = d.Pin()
	free := d.sigma.FreeAttrs()

	// Seeds: the bare free set, plus free ∪ {A} for every attribute read
	// by some rule (lhs or pattern attribute).
	seedExtras := d.sigma.LHS().Union(d.sigma.PatternAttrs()).Positions()
	seen := map[relation.AttrSet]bool{}
	var out []Candidate
	tryZ := func(zSet relation.AttrSet) {
		z := d.growAndMinimize(zSet)
		if z == nil {
			return
		}
		key := relation.NewAttrSet(z...)
		if seen[key] {
			return
		}
		seen[key] = true
		cand := d.score(z)
		if cand.Support > 0 {
			out = append(out, cand)
		}
	}
	tryZ(free)
	for _, a := range seedExtras {
		s := free
		s.Add(a)
		tryZ(s)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Quality > out[j].Quality })
	return out
}

// TrivialRegion returns the region that is certain whatever Dm holds: every
// attribute the structural closure of ∅ does not reach, so the users
// assert all that no rule supplies unprompted. It is what is left to seed
// a session with when CompCRegions verifies no candidate.
func (d *Deriver) TrivialRegion() Candidate {
	d = d.Pin()
	sc := d.getScratch()
	defer d.putScratch(sc)
	d.prog.Closure(relation.AttrSet{}, d.off, sc.clo)
	var z relation.AttrSet
	for a := range d.sigma.Schema().Arity() {
		if !sc.clo.Has(a) {
			z.Add(a)
		}
	}
	return Candidate{Z: z.Positions(), ZSet: z}
}

// growAndMinimize grows zSet greedily until the structural closure covers
// R (preferring the attribute whose addition enlarges the closure most),
// then reverse-deletes redundant attributes. Returns nil when full
// coverage is unreachable. Runs on the Σ program under the snapshot's
// mask: each greedy round is one GainAll pass instead of one closure per
// candidate.
func (d *Deriver) growAndMinimize(zSet relation.AttrSet) []int {
	arity := d.sigma.Schema().Arity()
	cur := zSet
	free := d.sigma.FreeAttrs()
	sc := d.getScratch()
	defer d.putScratch(sc)

	for {
		baseLen, gains := d.prog.GainAll(cur, d.off, sc.clo)
		if baseLen >= arity {
			break
		}
		bestAttr, bestGain := -1, -1
		for a := 0; a < arity; a++ {
			if cur.Has(a) {
				continue
			}
			if gains[a] > bestGain {
				bestGain, bestAttr = gains[a], a
			}
		}
		if bestAttr < 0 || bestGain <= baseLen {
			// No attribute makes progress: coverage unreachable.
			return nil
		}
		cur.Add(bestAttr)
	}

	// Reverse-delete: drop attributes (never free ones) whose removal
	// keeps the closure complete; each trial is a remove/re-add on cur.
	for _, a := range cur.Positions() {
		if free.Has(a) {
			continue
		}
		cur.Remove(a)
		if d.prog.Closure(cur, d.off, sc.clo) != arity {
			cur.Add(a)
		}
	}
	return cur.Positions()
}

// score verifies sampled master-derived rows for Z and computes the
// quality: primarily fewer user-validated attributes (more coverage by
// rules), secondarily the fraction of sampled rows that verified certain.
func (d *Deriver) score(z []int) Candidate {
	r := d.sigma.Schema()
	support, samples := 0, 0
	d.sampleRows(z, func(vals []relation.Value) {
		samples++
		if d.checker.ConcreteOK(z, vals, true) {
			support++
		}
	})
	frac := 0.0
	if samples > 0 {
		frac = float64(support) / float64(samples)
	}
	quality := float64(r.Arity()-len(z)) + frac
	return Candidate{Z: z, ZSet: relation.NewAttrSet(z...), Quality: quality, Support: support}
}

// rowsPerTuple bounds how many rows one sampled master tuple seeds, so that
// wide pattern domains do not blow the sample up.
const rowsPerTuple = 8

// sampleRows calls fn on the candidate pattern rows for Z built from
// master tuples: for each sampled tm, each Z attribute takes tm's
// λϕ-paired value when it is an lhs attribute, a pattern constant when
// only patterns mention it, and a placeholder otherwise. Multiple choices
// (e.g. type ∈ {1, 2}) multiply, in lexicographic order, up to
// rowsPerTuple rows per tuple. The row fn gets is reused for the next one.
func (d *Deriver) sampleRows(z []int, fn func(vals []relation.Value)) {
	n, step := d.dm.Len(), 1
	if n > d.sampleCap {
		step = n / d.sampleCap
	}
	choices := make([][]relation.Value, len(z))
	next := make([]int, len(z))
	vals := make([]relation.Value, len(z))
	var tm relation.Tuple
	for id := 0; id < n; id += step {
		tm = d.dm.TupleInto(tm, id)
		for i, a := range z {
			choices[i] = d.attrChoices(choices[i][:0], a, tm)
		}
		clear(next)
		for range rowsPerTuple {
			for i, c := range choices {
				vals[i] = c[next[i]]
			}
			fn(vals)
			// Advance the last attribute fastest; stop after the last row.
			i := len(choices) - 1
			for ; i >= 0; i-- {
				if next[i]++; next[i] < len(choices[i]) {
					break
				}
				next[i] = 0
			}
			if i < 0 {
				break
			}
		}
	}
}

// attrChoices appends to dst the distinct plausible validated values of
// attribute a given master tuple tm — never none. Boot-time only
// (≤ sampleCap tuples × |Z|), over a handful of values per attribute.
func (d *Deriver) attrChoices(dst []relation.Value, a int, tm relation.Tuple) []relation.Value {
	add := func(v relation.Value) {
		if !slices.Contains(dst, v) {
			dst = append(dst, v)
		}
	}
	for _, ru := range d.sigma.Rules() {
		if mp, ok := ru.MasterPosFor(a); ok {
			add(tm[mp])
		}
	}
	for _, v := range d.actDom[a] {
		add(v)
	}
	if len(dst) == 0 {
		// Attribute outside Σ (like `item`): its value is irrelevant to
		// rule firing; any placeholder works.
		add(relation.String("*"))
	}
	return dst
}

// GRegion is the greedy baseline of §6 Exp-1(1): "at each stage, choose
// an attribute which may fix the largest number of uncovered attributes".
// It reasons one step at a time — no cascade closure, no reverse-delete —
// so it picks intermediate attributes a cascade would have covered for
// free, ending with a larger Z than CompCRegion (the paper's table:
// 4 vs 2 on HOSP, 9 vs 5 on DBLP).
func (d *Deriver) GRegion() Candidate {
	d = d.Pin()
	arity := d.sigma.Schema().Arity()
	var cur relation.AttrSet

	for {
		covered := directCover(d.sigma, d.off, cur)
		if covered.Len() >= arity {
			break
		}
		// Greedy step: the attribute enabling the most one-step fixes.
		bestAttr, bestGain := -1, 0
		for a := 0; a < arity; a++ {
			if cur.Has(a) {
				continue
			}
			trial := cur
			trial.Add(a)
			gain := directCover(d.sigma, d.off, trial).Len() - covered.Len()
			if !covered.Has(a) {
				gain-- // do not count the attribute covering itself
			}
			if gain > bestGain {
				bestGain, bestAttr = gain, a
			}
		}
		if bestAttr >= 0 {
			cur.Add(bestAttr)
			continue
		}
		// No attribute fixes anything by itself: add the uncovered
		// attribute occurring in the most premises of rules whose rhs is
		// still uncovered (a multi-attribute premise needs several stages
		// to assemble); free attributes come last, one per stage.
		cur.Add(d.gRegionFallback(covered, cur))
	}
	return d.score(cur.Positions())
}

// gRegionFallback picks the next attribute when no single addition fires
// a rule.
func (d *Deriver) gRegionFallback(covered, cur relation.AttrSet) int {
	arity := d.sigma.Schema().Arity()
	counts := make([]int, arity)
	for i, ru := range d.sigma.Rules() {
		if d.off[i] || covered.Has(ru.RHS()) {
			continue
		}
		ru.PremiseSet().Range(func(p int) bool {
			if !cur.Has(p) {
				counts[p]++
			}
			return true
		})
	}
	best, bestCount := -1, 0
	for a := 0; a < arity; a++ {
		if !cur.Has(a) && counts[a] > bestCount {
			best, bestCount = a, counts[a]
		}
	}
	if best >= 0 {
		return best
	}
	for a := 0; a < arity; a++ {
		if !covered.Has(a) && !cur.Has(a) {
			return a
		}
	}
	// Unreachable: the loop only calls this while something is uncovered.
	return 0
}
