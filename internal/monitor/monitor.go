// Package monitor implements the interactive data-monitoring framework of
// §5 (Fig. 2/3): algorithm CertainFix and its optimized variant
// CertainFix+ (Suggest+ with the BDD cache). An input tuple is fixed at
// the point of entry by alternating user assertions (a User implementation
// answers suggestions with asserted-correct attribute values) with
// TransFix cascades, until every attribute is validated — by the users or
// by editing rules and master data.
//
// CertainFix+ is an algorithm of the callback driver only: Fix and
// FixBatch reuse suggestions across the stream of tuples they fix when
// Config.UseBDD is set. A Session — begun, provided, suspended as a
// token and resumed — always runs CertainFix.
package monitor

import (
	"context"
	"slices"
	"sort"

	"repro/internal/authtree"
	"repro/internal/bdd"
	"repro/internal/fix"
	"repro/internal/master"
	"repro/internal/relation"
	"repro/internal/rule"
	"repro/internal/suggest"
)

// User supplies feedback: given the current tuple and a suggested
// attribute set, it returns the attributes it asserts correct together
// with their correct values (aligned slices). Returning a different set
// than suggested is allowed (§5: "S may not necessarily be the same as
// sug"); returning no attributes aborts the fix. The tuple passed to
// Assert is the session's working tuple, which later rounds edit: read
// it, and Clone what must outlive the call.
type User interface {
	Assert(t relation.Tuple, suggested []int) (s []int, values []relation.Value)
}

// SimulatedUser answers every suggestion with the ground-truth values, the
// protocol of §6 ("user feedback was simulated by providing the correct
// values of the given suggestions").
type SimulatedUser struct {
	Truth relation.Tuple
}

// Assert implements User.
func (u SimulatedUser) Assert(_ relation.Tuple, suggested []int) ([]int, []relation.Value) {
	values := make([]relation.Value, len(suggested))
	for i, p := range suggested {
		values[i] = u.Truth[p]
	}
	return suggested, values
}

// RoundStat snapshots the state after one round of interaction.
type RoundStat struct {
	Suggested     []int            // attributes recommended this round
	UserValidated relation.AttrSet // everything the users asserted so far
	AutoFixed     relation.AttrSet // everything rules fixed so far
	Tuple         relation.Tuple   // tuple state at end of round
}

// Witness is one AutoFixed attribute's provenance: the rule that fired,
// the master tuple that supplied the value, and — when the session's
// snapshot is authenticated — an inclusion proof tying that tuple to the
// snapshot's Merkle root. Together with Result.Root this is everything a
// client needs to re-check the fix without trusting the server
// (pkg/certainfix.VerifyFix).
type Witness struct {
	// Attr is the tuple position the rule fixed.
	Attr int `json:"attr"`
	// Rule is the editing rule's name.
	Rule string `json:"rule"`
	// MasterID is the witnessing master tuple's id at the fix's epoch.
	MasterID int `json:"master_id"`
	// Master is that tuple's content (a copy).
	Master relation.Tuple `json:"master"`
	// Proof is the tuple's inclusion proof under Result.Root; nil when the
	// snapshot is unauthenticated.
	Proof *authtree.Proof `json:"proof,omitempty"`
}

// Result is the outcome of fixing one tuple.
type Result struct {
	Tuple         relation.Tuple // final tuple
	Rounds        int            // user interaction rounds used
	Completed     bool           // every attribute validated
	UserValidated relation.AttrSet
	AutoFixed     relation.AttrSet
	PerRound      []RoundStat

	// Epoch is the master epoch the session was pinned to.
	Epoch uint64
	// Root is the hex Merkle root of that snapshot, empty when it is
	// unauthenticated.
	Root string
	// Provenance holds one Witness per AutoFixed attribute, in the order
	// the rules fired.
	Provenance []Witness
}

// Config tunes the monitor.
type Config struct {
	// InitialRegion selects which precomputed certain region seeds the
	// first suggestion: 0 = highest quality (CRHQ), the Exp-1(2) CRMQ
	// variant passes the median index.
	InitialRegion int
	// UseBDD enables the Suggest+ cache (CertainFix+ of §5.2) for the
	// callback driver: Fix and FixBatch. Sessions never use it.
	UseBDD bool
	// TokenKey is the HMAC key session tokens are sealed and verified
	// under — a deployment credential shared by every monitor that must
	// resume another's tokens. Empty draws a random key private to this
	// monitor: its tokens then resume only on itself.
	TokenKey []byte
}

// Monitor fixes input tuples for a fixed (Σ, Dm). Safe for concurrent use
// by multiple goroutines (the BDD cache is internally locked). Its
// sessions are CertainFix whatever the configuration: only the callback
// driver (Fix and the batch pipeline over it) walks the BDD cache, so a
// resumed session is identical to the uninterrupted one on any monitor.
type Monitor struct {
	deriver *suggest.Deriver
	graph   *rule.DepGraph
	initial []suggest.Candidate
	first   []int // every session's first suggestion
	cache   *bdd.Cache
	auth    *tokenAuth
}

// New builds a monitor over a static master snapshot — a lineage that
// never advances; see NewVersioned.
func New(sigma *rule.Set, dm *master.Data, cfg Config) (*Monitor, error) {
	return NewVersioned(sigma, master.NewVersioned(dm), cfg)
}

// NewVersioned builds a monitor over versioned master data, precomputing
// the dependency graph, the certain regions (CompCRegion) and, for
// CertainFix+, the BDD cache — once, reused for every input tuple, as the
// paper prescribes. Each new session (one per tuple, including
// FixBatch items) pins the master snapshot current at its
// start, so in-flight sessions keep a consistent view while later tuples
// pick up published updates. The certain regions seeding the first
// suggestion are derived once, from the construction-time snapshot:
// region skeletons depend on Σ's structure plus per-rule pattern support,
// which master corrections rarely flip — and every suggestion is
// re-derived against the session's pinned snapshot anyway, so stale seeds
// cost extra rounds, never correctness. The same holds for missing ones.
// One master key on which a rule is not a function leaves the regions as
// they were: it fails only the sampled rows that carry it. Only a master
// on which many keys break verifies no region; a live monitor serves such
// a snapshot from its stale seeds, and a monitor can be built on one —
// Regions is then empty and sessions open with the trivial region, asking
// for every attribute no rule reaches unprompted.
func NewVersioned(sigma *rule.Set, ver *master.Versioned, cfg Config) (*Monitor, error) {
	d := suggest.NewDeriverVersioned(sigma, ver)
	seed := d.Pin() // one snapshot for both derivations, whatever ver publishes meanwhile
	cands := seed.CompCRegions()
	var first []int
	if len(cands) == 0 {
		first = seed.TrivialRegion().Z
	} else {
		// Widen the quality spectrum with the greedy region when it differs:
		// the candidate list then always offers lower-quality alternatives
		// (the CRMQ selection of §6 Exp-1(2)).
		g := seed.GRegion()
		distinct := true
		for _, c := range cands {
			if c.ZSet.Equal(g.ZSet) {
				distinct = false
				break
			}
		}
		if distinct && len(g.Z) > 0 {
			cands = append(cands, g)
			sort.SliceStable(cands, func(i, j int) bool { return cands[i].Quality > cands[j].Quality })
		}
		cfg.InitialRegion = min(max(cfg.InitialRegion, 0), len(cands)-1)
		first = cands[cfg.InitialRegion].Z
	}
	auth, err := newTokenAuth(cfg.TokenKey)
	if err != nil {
		return nil, err
	}
	m := &Monitor{
		deriver: d,
		graph:   rule.NewDepGraph(sigma),
		initial: cands,
		first:   first,
		auth:    auth,
	}
	if cfg.UseBDD {
		m.cache = bdd.NewCache(bdd.DefaultMaxNodes)
	}
	return m, nil
}

// maxRounds is the round cap every session runs under, fresh or resumed:
// arity + 1, so a session whose users keep asserting what is already
// validated ends rather than loops. Being a function of R alone, it is
// the same on every monitor a token can resume on.
func (m *Monitor) maxRounds() int { return m.deriver.Sigma().Schema().Arity() + 1 }

// Deriver exposes the underlying suggestion engine.
func (m *Monitor) Deriver() *suggest.Deriver { return m.deriver }

// DepGraph exposes the precomputed rule dependency graph.
func (m *Monitor) DepGraph() *rule.DepGraph { return m.graph }

// Regions returns the precomputed certain-region candidates, best first;
// empty when none verified on the construction-time snapshot.
func (m *Monitor) Regions() []suggest.Candidate { return m.initial }

// CacheStats reports BDD hits/misses (zero when UseBDD is off).
func (m *Monitor) CacheStats() (hits, misses int) {
	if m.cache == nil {
		return 0, 0
	}
	return m.cache.Stats()
}

// Fix runs algorithm CertainFix (Fig. 3) on one tuple by driving a
// Session with the User callback: each round recommends a suggestion
// (line 4), collects the asserted attributes and values (line 5), checks
// for a unique fix and cascades TransFix (lines 6–7), finishing when Z'
// covers R (lines 8–10). The input tuple is not mutated.
//
// Suggest counts only on rules the tuple's current values can ground in
// the master (suggest.Deriver.Suggest), so a tuple outside the master's
// reach — a fresh entity — is asked for everything no such rule supplies
// as soon as the first round has fired nothing: on the §6 workloads a fix
// takes ≤ 3 rounds for hosp and dblp alike, ≤ 2 unless a hint missed.
// The mop-up is the fallback for exactly that miss, a hint that said
// "likely" on a stale value that happened to hit Dm: two consecutive
// rounds in which TransFix fixes nothing, and the framework asks for the
// remainder at once instead of probing one candidate key per round.
// Conflicting rules are never resolved by guessing: the disputed
// attribute joins the next suggestion.
//
// The context is checked before every interaction round, so a deadline
// or cancellation interrupts the fix between rounds (never mid-round —
// rounds are short and atomic). An interrupted fix returns ctx.Err(); to
// suspend instead of abandon, use a Session and hand out its token.
func (m *Monitor) Fix(ctx context.Context, input relation.Tuple, user User) (Result, error) {
	sess, err := m.NewSession(input)
	if err != nil {
		return Result{}, err
	}
	return driveSession(ctx, sess, user)
}

// driveSession runs the callback interaction loop over a session — the
// wrapper that makes the callback API a client of the session API. It
// owns CertainFix+'s BDD cursor, the tuple's position in the monitor's
// shared suggestion cache: the cursor lives exactly as long as this loop,
// so a session driven through Provide, suspended or resumed never reads
// the cache, and is CertainFix on every monitor.
func driveSession(ctx context.Context, sess *Session, user User) (Result, error) {
	var cursor *bdd.Cursor
	if sess.m.cache != nil {
		cursor = sess.m.cache.Cursor()
	}
	for !sess.Done() {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		attrs, values := user.Assert(sess.t, sess.Suggested())
		if err := sess.provide(attrs, values, cursor); err != nil {
			return Result{}, err
		}
	}
	return sess.Result(), nil
}

// nextSuggestion runs Suggest, or Suggest+ when driveSession hands it a
// BDD cursor, against the session's pinned deriver view d. The cache
// holds structural suggestions only — what Suggest yields from t[Z] alone
// — because its reuse test never looks at the tuple; what t's current
// values say about the rules is applied to whatever comes out, cached or
// computed, so one tuple's hints are never replayed to the next.
func (m *Monitor) nextSuggestion(d *suggest.Deriver, t relation.Tuple, zSet relation.AttrSet, cursor *bdd.Cursor) []int {
	if cursor == nil {
		return d.Suggest(t, zSet).S
	}
	structural := cursor.Next(
		func(s []int) bool { return allOutside(s, zSet) && d.IsSuggestionFast(zSet, s) },
		func() []int { return d.SuggestStructural(t, zSet).S },
	)
	return d.SuggestFrom(t, zSet, structural).S
}

// conflictedAttrs finds attributes whose applicable rules currently
// disagree, so they can be routed to the users — in position order, so
// the suggestion they join does not depend on map iteration.
func conflictedAttrs(d *suggest.Deriver, t relation.Tuple, zSet relation.AttrSet) []int {
	assignments := fix.ApplicableAssignments(d.Sigma(), d.Master(), t, zSet)
	var out []int
	for b, vs := range assignments {
		if len(vs) > 1 {
			out = append(out, b)
		}
	}
	slices.Sort(out)
	return out
}

func allOutside(s []int, zSet relation.AttrSet) bool {
	for _, p := range s {
		if zSet.Has(p) {
			return false
		}
	}
	return true
}
