// Package certainfix is the public API of the certain-fix data-cleaning
// library — a Go implementation of "Towards Certain Fixes with Editing
// Rules and Master Data" (Fan, Li, Ma, Tang, Yu; VLDB 2010 / VLDBJ 2012).
//
// The library repairs input tuples at the point of data entry using a
// master relation and a set of editing rules, with a correctness
// guarantee the constraint-based repair methods lack: an attribute is
// modified only when the fix is *certain* — implied by user-validated
// attributes, the rules and the master data.
//
// # Quick start
//
// Fixing is interactive: the system suggests attributes to validate, the
// users answer, certain fixes cascade, repeat. The primary API models
// each fix as a first-class, resumable session:
//
//	r := certainfix.StringSchema("order", "sku", "price", "desc")
//	rm := certainfix.StringSchema("catalog", "sku", "price", "desc")
//	rules, _ := certainfix.ParseRules(r, rm, `
//	rule price: (sku ; sku) -> (price ; price) when sku != nil
//	rule desc:  (sku ; sku) -> (desc ; desc)  when sku != nil
//	`)
//	sys, _ := certainfix.New(rules, masterRelation)
//
//	sess, _ := sys.Begin(ctx, dirtyTuple)
//	for !sess.Done() {
//	    attrs := sess.Suggested()          // ask the users about these
//	    values := askSomehow(attrs)        // minutes later, over a network...
//	    if err := sess.Provide(attrs, values); err != nil { ... }
//	}
//	res := sess.Result()
//
// Sessions serialize: MarshalBinary produces a compact authenticated
// token from which System.Resume rebuilds the session — in a different
// process if need be, given the same WithTokenKey — re-pinning the
// master snapshot the session started on (see UpdateMaster and
// WithMasterHistory). That is the stateless-server
// pattern: a network frontend holds nothing between rounds because the
// token round-trips through the client; cmd/certainfixd is a complete
// HTTP service built this way.
//
// When the answers are available synchronously, the callback form is a
// thin wrapper over a session:
//
//	res, _ := sys.FixContext(ctx, dirtyTuple, user) // user answers suggestions
//
// Errors are typed: ErrSessionDone, ErrArityMismatch, ErrInconsistent
// (with *ConflictError details), ErrEpochEvicted and ErrBadToken all
// match through errors.Is/As.
//
// See examples/ for complete programs (examples/resumable demonstrates
// suspend/resume) and DESIGN.md for the architecture.
package certainfix

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/authtree"
	"repro/internal/fix"
	"repro/internal/master"
	"repro/internal/monitor"
	"repro/internal/parallel"
	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/rule"
	"repro/internal/suggest"
)

// Core relational types, re-exported for API ergonomics.
type (
	// Schema describes a relation's attributes.
	Schema = relation.Schema
	// Tuple is a row; index it by schema position.
	Tuple = relation.Tuple
	// Value is a typed scalar cell.
	Value = relation.Value
	// Relation is an in-memory table.
	Relation = relation.Relation
	// AttrSet is a set of attribute positions.
	AttrSet = relation.AttrSet
	// Rules is a set Σ of editing rules over (R, Rm).
	Rules = rule.Set
	// Rule is one editing rule ϕ = ((X, Xm) → (B, Bm), tp[Xp]). Mined
	// rules may carry a confidence weight (Rule.Confidence, the DSL's
	// trailing `weight` clause) that Suggest uses to rank otherwise-tied
	// suggestions.
	Rule = rule.Rule
	// Region is a pair (Z, Tc): user-validated attributes plus a pattern
	// tableau describing which tuples the guarantee covers.
	Region = fix.Region
	// User supplies interactive feedback; see SimulatedUser for testing.
	User = monitor.User
	// SimulatedUser answers suggestions from a ground-truth tuple.
	SimulatedUser = monitor.SimulatedUser
	// Result reports a finished fix.
	Result = monitor.Result
	// Witness is one auto-fixed attribute's provenance: the rule that
	// fired, the master tuple that supplied the value, and (under
	// WithAuth) its inclusion proof.
	Witness = monitor.Witness
	// Proof is a Merkle inclusion proof tying one master tuple to a root.
	Proof = authtree.Proof
	// Verdict is the outcome of a consistency or coverage check.
	Verdict = analysis.Verdict
	// RegionCandidate is a derived certain region with its quality score.
	RegionCandidate = suggest.Candidate
)

// Value constructors.
var (
	// Null is the missing value.
	Null = relation.Null
	// String builds a string value.
	String = relation.String
	// Int builds an integer value.
	Int = relation.Int
	// StringTuple builds a tuple of strings; empty cells become Null.
	StringTuple = relation.StringTuple
)

// StringSchema builds a schema whose attributes are all string-typed.
func StringSchema(name string, attrs ...string) *Schema {
	return relation.StringSchema(name, attrs...)
}

// NewRelation creates an empty relation over the schema.
func NewRelation(schema *Schema) *Relation {
	return relation.NewRelation(schema)
}

// ParseRules parses the textual rule DSL (one rule per line; see
// internal/rule's documentation for the grammar):
//
//	rule phi3: (AC, phn ; AC, Hphn) -> (zip ; zip) when type = "1", AC != "0800"
func ParseRules(r, rm *Schema, src string) (*Rules, error) {
	return rule.ParseRuleSet(r, rm, src)
}

// ParseRulesWithSchemas parses the self-contained rules-file format the
// CLIs use: the rule DSL preceded by two schema headers declaring the
// input and master schemas.
//
//	schema R: zip, ST, phn, ...
//	master Rm: zip, ST, phn, ...
//	rule h01: (zip ; zip) -> (ST ; ST) when zip != nil
//
// It returns both schemas alongside the parsed rule set.
func ParseRulesWithSchemas(src string) (r, rm *Schema, rules *Rules, err error) {
	var ruleLines []string
	for ln, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "schema "):
			r, err = parseSchemaHeader(trimmed, "schema ")
		case strings.HasPrefix(trimmed, "master "):
			rm, err = parseSchemaHeader(trimmed, "master ")
		default:
			ruleLines = append(ruleLines, line)
		}
		if err != nil {
			return nil, nil, nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
	}
	if r == nil || rm == nil {
		return nil, nil, nil, fmt.Errorf("certainfix: missing 'schema R: ...' or 'master Rm: ...' header")
	}
	rules, err = ParseRules(r, rm, strings.Join(ruleLines, "\n"))
	if err != nil {
		return nil, nil, nil, err
	}
	return r, rm, rules, nil
}

// parseSchemaHeader parses one 'schema name: a, b, c' header line.
func parseSchemaHeader(line, prefix string) (*Schema, error) {
	rest := strings.TrimPrefix(line, prefix)
	name, attrs, ok := strings.Cut(rest, ":")
	if !ok {
		return nil, fmt.Errorf("certainfix: schema header needs 'name: attr, attr, ...'")
	}
	var names []string
	for _, a := range strings.Split(attrs, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			return nil, fmt.Errorf("certainfix: empty attribute in schema header")
		}
		names = append(names, a)
	}
	return StringSchema(strings.TrimSpace(name), names...), nil
}

// ReadCSV loads a relation from CSV with a header row matching the schema.
func ReadCSV(schema *Schema, rd io.Reader) (*Relation, error) {
	return relation.ReadCSV(schema, rd)
}

// System binds a rule set Σ and versioned master data Dm, precomputing
// indexes, the rule dependency graph and the certain regions. Safe for
// concurrent use; UpdateMaster publishes master-data corrections without
// blocking in-flight fixes (each session keeps the snapshot it started
// with, later fixes pick up the new epoch).
type System struct {
	sigma *rule.Set
	lin   lineage
	mon   *monitor.Monitor
	boot  BootTimings
}

// lineage is the master lineage a System sits on — exactly one of
// *master.Versioned (process memory; Close is a no-op),
// *master.DurableVersioned (WithWAL: Apply logs before it publishes) and
// a follower's *replica (Apply fails with ErrReadOnlyReplica, Close stops
// the shipping loop). Reads go through the Versioned ring; Apply is the
// only write, which is why nothing here calls Versioned().Apply.
type lineage interface {
	Versioned() *master.Versioned
	Apply(adds []Tuple, deletes []int) (*master.Data, error)
	Close() error
}

// head returns the currently published master snapshot.
func (s *System) head() *master.Data { return s.lin.Versioned().Current() }

// BootTimings attributes a System's construction time to its phases.
// Master is obtaining the first snapshot (build, arena load, WAL recovery or
// follower bootstrap) and MasterRead the part of it NewFromCSV spent reading
// the file: wall time from opening it to its last row interned, parsing
// running ahead of validating and interning on a second goroutine. It is
// zero on every other path; the rest of Master is indexing (tables, bitmaps,
// the Merkle commitment, a first checkpoint) or the load. Regions is
// deriving the certain-region candidates over the snapshot.
// cmd/certainfixd logs them at start.
type BootTimings struct {
	Master, MasterRead, Regions time.Duration
}

// BootTimings reports how long each construction phase took.
func (s *System) BootTimings() BootTimings { return s.boot }

// open is the one construction path behind New, NewFromCSV, NewFromArena
// and NewFollower: obtain the lineage — a follower's from its leader, a
// durable one from cfg.walDir (base seeds it only on the first open of
// the directory), otherwise in memory straight from base — then derive
// the certain regions over it.
func open(rules *Rules, cfg config, base func() (*master.Data, error)) (*System, error) {
	began := time.Now()
	var (
		lin lineage
		err error
	)
	switch {
	case cfg.leader != "":
		lin, err = follow(rules, cfg)
	case cfg.walDir != "":
		lin, err = master.OpenDurable(cfg.walDir, base, rules, master.DurableOptions{
			Sync:            cfg.fsync,
			CheckpointEvery: cfg.checkpointEvery,
			History:         cfg.history,
			Auth:            cfg.auth,
		})
	default:
		var dm *master.Data
		if dm, err = base(); err == nil {
			if cfg.auth {
				// No-op when base loaded an image saved authenticated (the
				// loader verified its root); builds the commitment otherwise.
				dm.Authenticate()
			}
			ver := master.NewVersioned(dm)
			if cfg.history > 0 {
				ver.SetHistory(cfg.history)
			}
			lin = ver
		}
	}
	if err != nil {
		return nil, err
	}
	masterDone := time.Now()
	mon, err := monitor.NewVersioned(rules, lin.Versioned(), monitor.Config{
		MaxRounds: cfg.maxRounds,
		TokenKey:  cfg.tokenKey,
	})
	if err != nil {
		lin.Close()
		return nil, err
	}
	return &System{
		sigma: rules,
		lin:   lin,
		mon:   mon,
		boot:  BootTimings{Master: masterDone.Sub(began), Regions: time.Since(masterDone)},
	}, nil
}

// New builds a System. The master relation must be an instance of Σ's
// master schema; it is assumed consistent and complete (the master-data
// contract of the paper, §2) but no longer static — see UpdateMaster.
// Configuration is by functional options:
//
//	sys, err := certainfix.New(rules, masterRel,
//	    certainfix.WithMasterHistory(64), certainfix.WithMaxRounds(4))
//
// Under WithWAL, masterRel seeds the lineage only on the first open of
// the WAL directory; afterwards the directory itself is authoritative
// and masterRel may even be nil — recovery restores the exact master
// the previous process last published.
func New(rules *Rules, masterRel *Relation, opts ...Option) (*System, error) {
	cfg := newConfig(opts)
	return open(rules, cfg, func() (*master.Data, error) {
		if masterRel == nil {
			return nil, fmt.Errorf("certainfix: no master relation was given and no WAL checkpoint holds one")
		}
		return master.NewForRules(masterRel, rules)
	})
}

// NewFromCSV is New with the master relation streamed from a CSV file in
// ReadCSV's format: each row is interned as it is parsed, so the master
// never exists as a relation of values beside its own cells — at |Dm| =
// 100k that relation is several times what the System keeps. Under WithWAL
// the file is opened only on the first open of the WAL directory;
// afterwards it may be gone.
func NewFromCSV(rules *Rules, masterPath string, opts ...Option) (*System, error) {
	cfg := newConfig(opts)
	var read time.Duration
	sys, err := open(rules, cfg, func() (*master.Data, error) {
		began := time.Now()
		f, err := os.Open(masterPath)
		if err != nil {
			return nil, err
		}
		defer f.Close() // read only
		b := master.NewBuilder(rules)
		if err := relation.ScanCSV(rules.MasterSchema(), bufio.NewReader(f), b.Add); err != nil {
			return nil, fmt.Errorf("%s: %w", masterPath, err)
		}
		read = time.Since(began)
		return b.Finish(), nil
	})
	if err != nil {
		return nil, err
	}
	sys.boot.MasterRead = read
	return sys, nil
}

// UpdateMaster applies a master-data delta — corrections and additions to
// Dm — and publishes the result as a new immutable snapshot, returning
// its epoch. Deletes name tuple ids in the current snapshot and are
// applied with swap-remove semantics (the last tuple moves into the
// deleted slot) before adds are appended. Indexes and pattern-support
// bitmaps are maintained incrementally; concurrent Fix,
// Suggest and Repair calls never block and never observe a half-applied
// delta. In-flight sessions finish on the snapshot they pinned at start;
// fixes beginning after UpdateMaster returns see the new epoch.
// Under WithWAL the delta is written to the log before the snapshot is
// published — with FsyncAlways, an UpdateMaster that returned survives a
// crash. On a follower System (NewFollower) the call fails with
// ErrReadOnlyReplica: a replica's lineage is the leader's.
func (s *System) UpdateMaster(adds []Tuple, deletes []int) (uint64, error) {
	snap, err := s.lin.Apply(adds, deletes)
	if err != nil {
		return 0, err
	}
	return snap.Epoch(), nil
}

// MasterEpoch returns the currently published master epoch (0 until the
// first UpdateMaster).
func (s *System) MasterEpoch() uint64 { return s.head().Epoch() }

// MasterRoot returns the hex Merkle root of the currently published
// master snapshot, with ok=false when the System was built without
// WithAuth. The pair (MasterEpoch, MasterRoot) identifies the master
// contents exactly: any client holding the root can check fix provenance
// with VerifyFix, no server trust required.
func (s *System) MasterRoot() (root string, ok bool) {
	h, ok := s.head().AuthRoot()
	if !ok {
		return "", false
	}
	return h.String(), true
}

// MasterLen returns |Dm| of the currently published snapshot.
func (s *System) MasterLen() int { return s.head().Len() }

// Rules returns Σ.
func (s *System) Rules() *Rules { return s.sigma }

// Schema returns the input schema R.
func (s *System) Schema() *Schema { return s.sigma.Schema() }

// Regions returns the precomputed certain-region candidates, best first.
// It is empty when none verified on the master the System was opened on
// (some rule is not a function on it): sessions then open by asking for
// every attribute no rule reaches unprompted.
// The first candidate's Z is what the users are asked to validate first.
func (s *System) Regions() []RegionCandidate { return s.mon.Regions() }

// FixContext interactively finds a certain fix for one input tuple
// (algorithm CertainFix, Fig. 3 of the paper), driving the user callback
// over a session — a thin wrapper over Begin/Provide/Result for callers
// whose answers are available synchronously. The input is not mutated.
// The context is observed at every round boundary, so a deadline or
// cancellation interrupts the fix between rounds and returns the
// context's error. To suspend work instead of abandoning it, use Begin
// and serialize the session.
func (s *System) FixContext(ctx context.Context, t Tuple, user User) (Result, error) {
	return s.mon.Fix(ctx, t, user)
}

// FixBatchContext fixes many input tuples concurrently on a bounded
// worker pool, driving userFor(i) for tuple i. Results are aligned with
// inputs and byte-identical to a sequential FixContext loop. workers ≤ 0 selects GOMAXPROCS. Once ctx is
// done no further tuples are dispatched, in-flight fixes stop at their
// next round boundary, and the call reports the context's error after
// the pool drains (a fix error still wins).
func (s *System) FixBatchContext(ctx context.Context, inputs []Tuple, userFor func(i int) User, workers int) ([]Result, error) {
	return s.mon.FixBatch(ctx, inputs, userFor, workers)
}

// Repair is one RepairBatchContext outcome; fields mirror RepairOnce's
// returns.
type Repair struct {
	Tuple     Tuple
	Validated AttrSet
	Fixed     []int
	Err       error
}

// RepairBatchContext runs RepairOnce over every input tuple concurrently
// against the shared immutable (Σ, Dm). The result slice is aligned with
// inputs; per-tuple errors are reported in place (Repair.Err), never as
// the call error, so one inconsistent tuple does not abort the batch
// (matching the per-tuple error handling of cmd/certainfix). workers ≤ 0
// selects GOMAXPROCS. Once ctx is done no further tuples are dispatched
// and the call returns the context's error after the pool drains.
func (s *System) RepairBatchContext(ctx context.Context, inputs []Tuple, validated []int, workers int) ([]Repair, error) {
	return parallel.MapCtx(ctx, len(inputs), workers, func(i int) (Repair, error) {
		t, z, fixed, err := s.RepairOnce(inputs[i], validated)
		return Repair{Tuple: t, Validated: z, Fixed: fixed, Err: err}, nil
	})
}

// RepairOnce applies every certain fix that follows from the attributes
// in validated (assumed correct) without user interaction — procedure
// TransFix. It returns the repaired tuple, the set of all validated
// attributes afterwards, and the positions the rules fixed.
func (s *System) RepairOnce(t Tuple, validated []int) (Tuple, AttrSet, []int, error) {
	out := t.Clone()
	zSet := relation.NewAttrSet(validated...)
	if zSet.Len() != len(validated) {
		return nil, AttrSet{}, nil, fmt.Errorf("certainfix: duplicate validated attributes")
	}
	fixed, err := fix.TransFix(s.mon.DepGraph(), s.head(), out, &zSet)
	if err != nil {
		return nil, AttrSet{}, nil, err
	}
	return out, zSet, fixed, nil
}

// Consistent decides whether (Σ, Dm) is consistent relative to the
// region: every tuple it marks has a unique fix (§4, Thm 1/4). The check
// runs against the currently published master snapshot.
func (s *System) Consistent(reg *Region) (Verdict, error) {
	return s.mon.Deriver().Checker().Consistent(reg)
}

// CertainRegion decides whether the region guarantees certain fixes for
// every tuple it marks (§4, Thm 2/4), against the currently published
// master snapshot.
func (s *System) CertainRegion(reg *Region) (Verdict, error) {
	return s.mon.Deriver().Checker().CertainRegion(reg)
}

// Suggest computes the attribute set the users should validate next for
// tuple t given already-validated attributes (procedure Suggest, Fig. 6).
// It reads t's unvalidated cells as hints: a rule whose lhs matches no
// master tuple at t's current values is not counted on, so what it would
// have supplied is asked for instead.
func (s *System) Suggest(t Tuple, validated []int) []int {
	return s.mon.Deriver().Suggest(t, relation.NewAttrSet(validated...)).S
}

// NewRegion builds a region from attribute names and a tableau of rows,
// where each row maps attribute names to required constants (a
// convenience for concrete tableaus; use the fix and pattern packages
// directly for wildcards and negations).
func NewRegion(schema *Schema, attrs []string, rows []map[string]Value) (*Region, error) {
	z, err := schema.PosList(attrs...)
	if err != nil {
		return nil, err
	}
	tab := pattern.NewTableau()
	for _, row := range rows {
		var pos []int
		var cells []pattern.Cell
		for name, v := range row {
			p, ok := schema.Pos(name)
			if !ok {
				return nil, fmt.Errorf("certainfix: region row names unknown attribute %q", name)
			}
			pos = append(pos, p)
			cells = append(cells, pattern.Eq(v))
		}
		pt, err := pattern.NewTuple(pos, cells)
		if err != nil {
			return nil, err
		}
		tab.Add(pt)
	}
	return fix.NewRegion(z, tab)
}
