package suggest

import (
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
// concurrent use after construction: the compiled closure program and
// support map are immutable, and all per-call mutable state lives in
// pooled scratch.
//
// A deriver is a handle over a master.Versioned lineage (a static master
// is a lineage that never advances). It pins the current snapshot at the
// start of every public call — Pin returns the snapshot-bound view
// explicitly, for callers like monitor.Session that need one consistent
// snapshot across several calls. The per-epoch engines (support map,
// compiled closure program, checker) are O(|Σ|) to rebuild and cached per
// epoch, so pinning after an unchanged epoch is a pointer comparison.
type Deriver struct {
	sigma  *rule.Set
	actDom map[int][]relation.Value
	// sampleCap bounds how many master tuples seed verification rows.
	sampleCap int
	pool      *sync.Pool // *derScratch; shared between a handle and its views

	// Snapshot-bound state: the master snapshot, the support map read
	// from its pattern bitmaps, Σ compiled (gated by sup) into the
	// counter-based closure engine, and the §4 checker. Set on pinned
	// views; nil on a handle, which pins per call.
	dm      *master.Data
	checker *analysis.Checker
	sup     supportMap
	prog    *rule.Compiled

	// Handle state; ver == nil means exactly "pinned view".
	ver  *master.Versioned
	view atomic.Pointer[Deriver] // cached pinned view for the current epoch

	// Historical-view cache for PinAt: in the stateless-server pattern
	// every round of a pre-update session is a resume, so non-head views
	// are worth keeping. Bounded by the master ring's retention; entries
	// whose epoch was evicted are dropped so they cannot keep dead
	// snapshots alive.
	histMu    sync.Mutex
	histViews []*Deriver
}

// derScratch bundles the per-call mutable state: the closure engine's
// counters, a reusable compile target for the per-call refined programs,
// and the value-dedup buffers of sampleRows.
type derScratch struct {
	clo    *rule.ClosureScratch
	prog   *rule.Compiled
	choice choiceScratch
}

// NewDeriver builds a deriver over a static (Σ, Dm): a lineage of one
// snapshot that never advances.
func NewDeriver(sigma *rule.Set, dm *master.Data) *Deriver {
	return NewDeriverVersioned(sigma, master.NewVersioned(dm))
}

// NewDeriverVersioned builds a deriver over a versioned master: every
// public call pins the currently published snapshot, so suggestions and
// region checks always run against one consistent epoch and pick up
// master updates between calls.
func NewDeriverVersioned(sigma *rule.Set, ver *master.Versioned) *Deriver {
	return &Deriver{
		sigma:     sigma,
		actDom:    sigma.ActiveDomain(),
		sampleCap: 64,
		pool:      &sync.Pool{New: func() any { return &derScratch{clo: rule.NewClosureScratch()} }},
		ver:       ver,
	}
}

// pinTo binds d to one master snapshot, building the per-epoch engines:
// the support map (read from the snapshot's pattern bitmaps, O(|Σ|)), the
// compiled Σ closure program and the §4 checker.
func (d *Deriver) pinTo(dm *master.Data) {
	d.dm = dm
	d.checker = analysis.NewChecker(d.sigma, dm, analysis.Options{})
	d.sup = computeSupport(d.sigma, dm)
	d.prog = d.sigma.Compile(d.sup)
}

// Pin returns a view of the deriver bound to one master snapshot: the
// cached per-epoch view of the currently published snapshot (a pinned
// view returns itself). All public methods pin implicitly, so Pin is only
// needed when several calls must observe the same snapshot (a monitor
// Session pins once at NewSession).
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
// master.ErrEpochEvicted when no longer retained; a static master's ring
// only ever holds its own epoch), so PinAt needs a handle, not a pinned
// view. Views are cached per epoch — the head like Pin, historical
// epochs in a small cache bounded by the ring's retention — so repeated
// resumes of the same epoch (every round of a session in a stateless
// server) pay the O(|Σ|) engine rebuild once, not per call.
func (d *Deriver) PinAt(epoch uint64) (*Deriver, error) {
	snap, err := d.ver.At(epoch)
	if err != nil {
		return nil, err
	}
	if v := d.Pin(); v.dm == snap {
		return v, nil
	}
	return d.histView(snap), nil
}

// histView serves a non-head pinned view from the historical cache,
// building and inserting it on a miss. Stale entries — epochs the ring
// no longer retains — are pruned on every insert.
func (d *Deriver) histView(snap *master.Data) *Deriver {
	d.histMu.Lock()
	defer d.histMu.Unlock()
	for _, v := range d.histViews {
		if v.dm == snap {
			return v
		}
	}
	v := d.buildView(snap)
	kept := d.histViews[:0]
	for _, old := range d.histViews {
		if s, err := d.ver.At(old.dm.Epoch()); err == nil && s == old.dm {
			kept = append(kept, old)
		}
	}
	d.histViews = append(kept, v)
	if max := d.ver.History(); len(d.histViews) > max {
		d.histViews = append([]*Deriver(nil), d.histViews[len(d.histViews)-max:]...)
	}
	return v
}

// buildView constructs a fresh snapshot-bound view sharing the handle's
// immutable parts and scratch pool.
func (d *Deriver) buildView(snap *master.Data) *Deriver {
	v := &Deriver{sigma: d.sigma, actDom: d.actDom, sampleCap: d.sampleCap, pool: d.pool}
	v.pinTo(snap)
	return v
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
	return d.Pin().checker.ConcreteVerdict(z, vals, true).OK
}

// ConsistentRow reports whether vals over z lead to a unique fix.
func (d *Deriver) ConsistentRow(z []int, vals []relation.Value) bool {
	return d.Pin().checker.ConcreteVerdict(z, vals, false).OK
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
	seen := map[string]bool{}
	var out []Candidate
	tryZ := func(zSet relation.AttrSet) {
		z := d.growAndMinimize(zSet)
		if z == nil {
			return
		}
		key := relation.NewAttrSet(z...).Key()
		if seen[key] {
			return
		}
		seen[key] = true
		cand := d.score(z)
		if cand.Support > 0 {
			out = append(out, cand)
		}
	}
	tryZ(free.Clone())
	for _, a := range seedExtras {
		s := free.Clone()
		s.Add(a)
		tryZ(s)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Quality > out[j].Quality })
	return out
}

// growAndMinimize grows zSet greedily until the structural closure covers
// R (preferring the attribute whose addition enlarges the closure most),
// then reverse-deletes redundant attributes. Returns nil when full
// coverage is unreachable. Runs on the precompiled Σ program: each greedy
// round is one GainAll pass instead of one closure per candidate.
func (d *Deriver) growAndMinimize(zSet relation.AttrSet) []int {
	arity := d.sigma.Schema().Arity()
	cur := zSet.Clone()
	free := d.sigma.FreeAttrs()
	sc := d.getScratch()
	defer d.putScratch(sc)

	for {
		baseLen, gains := d.prog.GainAll(cur, sc.clo)
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
		if d.prog.Closure(cur, sc.clo) != arity {
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
	for _, vals := range d.sampleRows(z) {
		samples++
		if d.CertainRow(z, vals) {
			support++
		}
	}
	frac := 0.0
	if samples > 0 {
		frac = float64(support) / float64(samples)
	}
	quality := float64(r.Arity()-len(z)) + frac
	return Candidate{Z: z, ZSet: relation.NewAttrSet(z...), Quality: quality, Support: support}
}

// sampleRows builds candidate pattern rows for Z from master tuples: for
// each sampled tm, each Z attribute takes tm's λϕ-paired value when it is
// an lhs attribute, a pattern constant when only patterns mention it, and
// a placeholder otherwise. Multiple choices (e.g. type ∈ {1, 2}) multiply
// within a small bound.
func (d *Deriver) sampleRows(z []int) [][]relation.Value {
	n := d.dm.Len()
	if n == 0 {
		return nil
	}
	step := 1
	if n > d.sampleCap {
		step = n / d.sampleCap
	}
	sc := d.getScratch()
	defer d.putScratch(sc)
	choices := make([][]relation.Value, len(z))
	var rows [][]relation.Value
	for id := 0; id < n; id += step {
		tm := d.dm.Tuple(id)
		for i, a := range z {
			choices[i] = d.attrChoicesInto(&sc.choice, i, a, tm)
		}
		rows = appendProduct(rows, choices, 8)
	}
	return rows
}

// choiceScratch is the reusable state of attrChoicesInto: one epoch-stamped
// dense array over interned master-value ids (O(1) dedup), a short linear
// overflow for constants absent from the master symbol table, and per-slot
// output buffers that survive across master tuples within one sampleRows.
type choiceScratch struct {
	epoch  uint32
	stamp  []uint32
	extras []relation.Value
	bufs   [][]relation.Value
}

// attrChoicesInto lists the plausible validated values of attribute a
// given master tuple tm into the slot-th scratch buffer. The returned
// slice aliases the scratch and is valid until slot is reused.
func (d *Deriver) attrChoicesInto(sc *choiceScratch, slot, a int, tm relation.Tuple) []relation.Value {
	for len(sc.bufs) <= slot {
		sc.bufs = append(sc.bufs, nil)
	}
	out := sc.bufs[slot][:0]
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale stamps could collide
		for i := range sc.stamp {
			sc.stamp[i] = 0
		}
		sc.epoch = 1
	}
	sc.extras = sc.extras[:0]
	syms := d.dm.Hasher().Symbols()
	add := func(v relation.Value) {
		if id, ok := syms.ID(v); ok {
			for int(id) >= len(sc.stamp) {
				sc.stamp = append(sc.stamp, 0)
			}
			if sc.stamp[id] == sc.epoch {
				return
			}
			sc.stamp[id] = sc.epoch
		} else {
			// Pattern constants never seen in an indexed master column:
			// rare, so a short linear scan suffices.
			for _, w := range sc.extras {
				if w.Equal(v) {
					return
				}
			}
			sc.extras = append(sc.extras, v)
		}
		out = append(out, v)
	}
	for _, ru := range d.sigma.Rules() {
		if mp, ok := ru.MasterPosFor(a); ok {
			add(tm[mp])
		}
	}
	if vs, ok := d.actDom[a]; ok {
		for _, v := range vs {
			add(v)
		}
	}
	if len(out) == 0 {
		// Attribute outside Σ (like `item`): its value is irrelevant to
		// rule firing; any placeholder works.
		add(relation.String("*"))
	}
	sc.bufs[slot] = out
	return out
}

// appendProduct appends the cartesian product of choices to rows, bounded
// per master tuple to avoid blowups from wide pattern domains.
func appendProduct(rows [][]relation.Value, choices [][]relation.Value, bound int) [][]relation.Value {
	total := 1
	for _, c := range choices {
		total *= len(c)
		if total > bound {
			total = bound
			break
		}
	}
	vec := make([]relation.Value, len(choices))
	count := 0
	var walk func(i int)
	walk = func(i int) {
		if count >= bound {
			return
		}
		if i == len(choices) {
			rows = append(rows, append([]relation.Value(nil), vec...))
			count++
			return
		}
		for _, v := range choices[i] {
			vec[i] = v
			walk(i + 1)
		}
	}
	walk(0)
	return rows
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
		covered := directCover(d.sigma, d.sup, cur)
		if covered.Len() >= arity {
			break
		}
		// Greedy step: the attribute enabling the most one-step fixes.
		bestAttr, bestGain := -1, 0
		for a := 0; a < arity; a++ {
			if cur.Has(a) {
				continue
			}
			trial := cur.Clone()
			trial.Add(a)
			gain := directCover(d.sigma, d.sup, trial).Len() - covered.Len()
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
		if !d.sup[i] || covered.Has(ru.RHS()) {
			continue
		}
		for _, p := range ru.PremiseSet().Positions() {
			if !cur.Has(p) {
				counts[p]++
			}
		}
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
