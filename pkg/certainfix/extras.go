package certainfix

import "repro/internal/discover"

// DiscoverOptions tunes rule mining; see DiscoverRules. Zero values
// select exact single-pass mining; set MinConfidence below 1 to mine
// weighted rules from dirty masters and Workers to parallelize the
// candidate lattice (output is identical for every worker count).
type DiscoverOptions = discover.Options

// MinedDependency is one mined functional dependency with its evidence:
// support, violation count, and the confidence weight 1 − violations/|Dm|
// the corresponding rule carries.
type MinedDependency = discover.Candidate

// DiscoverRules mines editing rules from a master relation whose schema
// aligns positionally with the input schema r — the §7 future-work
// direction of the paper ("discovering editing rules from sample inputs
// and master data"). Mining runs on the same interned id rows the probe
// paths read. The mined rules feed directly into New.
func DiscoverRules(r *Schema, masterRel *Relation, opts DiscoverOptions) (*Rules, []MinedDependency, error) {
	return discover.Rules(r, masterRel, opts)
}

// DiscoverLoopOptions tunes the self-bootstrapping discovery loop; see
// Discover. The embedded DiscoverOptions tune each round's mining
// (MinConfidence defaults to 0.9 here — the loop exists to mine from
// dirty data); MaxRounds bounds the mine→repair rounds and
// RepairMajority sets how lopsided an lhs group must be before its
// minority cells are rewritten.
type DiscoverLoopOptions = discover.LoopOptions

// DiscoverRound records one mine→repair round of Discover: how many
// dependencies were mined, how many master cells moved to their group
// majority, and the round's mean confidence.
type DiscoverRound = discover.RoundStats

// DiscoverResult is Discover's outcome: the mined weighted rule set and
// the dependencies behind it (both reflecting the cleaned master), the
// repaired copy of the master relation, and per-round statistics.
type DiscoverResult = discover.LoopResult

// Discover runs the discover→fix→re-discover bootstrap loop over a
// master relation with no hand-written Σ: mine weighted dependencies
// from the (possibly dirty) master, majority-repair the cells that
// violate them, and re-mine on the cleaned data until a fixpoint or
// MaxRounds. The returned rules carry per-rule confidence weights that
// Suggest uses to rank otherwise-tied suggestions; feed them and the
// cleaned relation straight into New for a fully self-bootstrapped
// system (`rulemine -loop` is the CLI face of this). The input relation
// is never modified. Deterministic for every worker and shard count.
func Discover(r *Schema, masterRel *Relation, opts DiscoverLoopOptions) (*DiscoverResult, error) {
	return discover.Loop(r, masterRel, opts)
}
