package datagen

import (
	"fmt"
	"math/rand"
	"os"

	"repro/internal/master"
	"repro/internal/relation"
	"repro/internal/rule"
)

// Config parameterizes dirty-data generation, mirroring §6: duplicate
// rate d% (probability an input tuple matches a master tuple — "the
// relevance and completeness of Dm"), noise rate n% (percentage of
// erroneous attributes) and the master cardinality |Dm|.
type Config struct {
	Seed       int64
	MasterSize int     // |Dm|
	Tuples     int     // |D|
	DupRate    float64 // d% in [0, 1]
	NoiseRate  float64 // n% in [0, 1]
	// PartialRate is the fraction of non-duplicate tuples that still
	// share an entity (hospital / measure / author / venue) with the
	// master data, so that some — but not all — of their attributes are
	// fixable. Real joins produce these naturally; they drive the
	// multi-round interactions of Fig. 9. Zero selects the default 0.5;
	// a negative value disables partial matches entirely.
	PartialRate float64
	// Deprecated: Shards is ignored; the master takes the shard count its
	// size calls for.
	Shards int
	// MasterArena, when non-empty, names a columnar master arena image:
	// an existing image is loaded (master.LoadArena) instead of building
	// indexes over the generated master relation, and a missing one is
	// saved after the build so the next run with the same parameters
	// cold-starts by page-in. The image must have been saved for the same
	// (Σ, generation parameters); rule signatures are validated at load.
	MasterArena string
}

func (c Config) withDefaults() Config {
	if c.MasterSize <= 0 {
		c.MasterSize = 1000
	}
	if c.Tuples <= 0 {
		c.Tuples = 100
	}
	if c.PartialRate == 0 {
		c.PartialRate = 0.5
	}
	return c
}

// Dataset bundles everything an experiment needs: the rules, the indexed
// master data, the dirty input tuples and their ground truths.
type Dataset struct {
	Name   string
	Sigma  *rule.Set
	Master *master.Data
	Inputs []relation.Tuple
	Truths []relation.Tuple
}

// ErroneousTuples counts inputs that differ from their truth somewhere.
func (d *Dataset) ErroneousTuples() int {
	n := 0
	for i := range d.Inputs {
		if !d.Inputs[i].Equal(d.Truths[i]) {
			n++
		}
	}
	return n
}

// ErroneousCells counts attribute-level errors across all inputs.
func (d *Dataset) ErroneousCells() int {
	n := 0
	for i := range d.Inputs {
		for j := range d.Inputs[i] {
			if !d.Inputs[i][j].Equal(d.Truths[i][j]) {
				n++
			}
		}
	}
	return n
}

// buildMaster turns the generated master relation into index-backed
// master data, through the configured arena image when one is set: load
// it if it exists, otherwise build from the relation and save it.
func buildMaster(rel *relation.Relation, sigma *rule.Set, cfg Config) (*master.Data, error) {
	if cfg.MasterArena != "" {
		if _, err := os.Stat(cfg.MasterArena); err == nil {
			return master.LoadArena(cfg.MasterArena, sigma)
		}
	}
	dm, err := master.NewForRules(rel, sigma)
	if err != nil {
		return nil, err
	}
	if cfg.MasterArena != "" {
		if err := dm.SaveArenaFile(cfg.MasterArena, sigma); err != nil {
			return nil, fmt.Errorf("save master arena: %w", err)
		}
	}
	return dm, nil
}

// Hosp generates the HOSP dataset.
func Hosp(cfg Config) (*Dataset, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	sigma := HospRules()
	w := newHospWorld(rng, cfg.MasterSize)

	rel := relation.NewRelation(HospMasterSchema())
	for k := 0; k < cfg.MasterSize; k++ {
		h, m := w.masterPair(k)
		rel.MustAppend(w.row(rel.Schema(), h, m))
	}
	dm, err := buildMaster(rel, sigma, cfg)
	if err != nil {
		return nil, fmt.Errorf("datagen: hosp: %w", err)
	}

	ds := &Dataset{Name: "hosp", Sigma: sigma, Master: dm}
	inSchema := sigma.Schema()
	for i := 0; i < cfg.Tuples; i++ {
		truth := w.truthTuple(inSchema, rng, cfg)
		ds.Truths = append(ds.Truths, truth)
		ds.Inputs = append(ds.Inputs, applyNoise(rng, truth, cfg.NoiseRate, ds.Truths))
	}
	return ds, nil
}

// truthTuple draws a ground-truth HOSP tuple: a master duplicate with
// probability d%, otherwise a partial or fully fresh entity combination.
func (w *hospWorld) truthTuple(schema *relation.Schema, rng *rand.Rand, cfg Config) relation.Tuple {
	switch r := rng.Float64(); {
	case r < cfg.DupRate:
		k := rng.Intn(cfg.MasterSize)
		h, m := w.masterPair(k)
		return w.row(schema, h, m)
	case r < cfg.DupRate+(1-cfg.DupRate)*cfg.PartialRate:
		switch rng.Intn(4) {
		case 0:
			// Known hospital, measure pair absent from the master:
			// hospital fields fixable, Score/sample not.
			h := rng.Intn(w.hospitals)
			m := (h + 1) % w.measures // offset 1 is never a master pair
			return w.row(schema, h, m)
		case 1:
			// Fresh hospital with a known measure: measure fields fixable.
			w.freshHosp++
			h := w.hospitals + w.freshHosp
			m := rng.Intn(w.measures)
			return w.row(schema, h, m)
		default:
			// Re-registered provider: the premises of the id rules (id,
			// provNum) are fresh, but the facility — phone, zip, address,
			// name — is a master hospital. Round one (validating id and a
			// measure attribute) fixes only measure fields; the address
			// cascade phn→zip→{ST, city} and (mCode, ST)→sAvg needs the
			// phone validated in a later round. These tuples drive the
			// rising attribute recall of Fig. 9b.
			h := rng.Intn(w.hospitals)
			m := rng.Intn(w.measures)
			t := w.row(schema, h, m)
			w.freshHosp++
			fresh := w.hospitals + w.freshHosp
			set := func(attr, v string) {
				pos, _ := schema.Pos(attr)
				t[pos] = relation.String(v)
			}
			set("id", fmt.Sprintf("H%07d", perm(fresh, 48271)))
			set("provNum", fmt.Sprintf("P%07d", perm(fresh, 16807)))
			return t
		}
	default:
		// Entirely outside the master data.
		w.freshHosp++
		w.freshMeas++
		h := w.hospitals + w.freshHosp
		m := w.measures + w.freshMeas
		return w.row(schema, h, m)
	}
}

// Dblp generates the DBLP dataset.
func Dblp(cfg Config) (*Dataset, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	sigma := DblpRules()
	w := newDblpWorld(rng, cfg.MasterSize)

	rel := relation.NewRelation(DblpMasterSchema())
	for p := 0; p < cfg.MasterSize; p++ {
		rel.MustAppend(w.row(rel.Schema(), p))
	}
	dm, err := buildMaster(rel, sigma, cfg)
	if err != nil {
		return nil, fmt.Errorf("datagen: dblp: %w", err)
	}

	ds := &Dataset{Name: "dblp", Sigma: sigma, Master: dm}
	inSchema := sigma.Schema()
	for i := 0; i < cfg.Tuples; i++ {
		truth := w.truthTuple(inSchema, rng, cfg)
		ds.Truths = append(ds.Truths, truth)
		ds.Inputs = append(ds.Inputs, applyNoise(rng, truth, cfg.NoiseRate, ds.Truths))
	}
	return ds, nil
}

// truthTuple draws a ground-truth DBLP tuple.
func (w *dblpWorld) truthTuple(schema *relation.Schema, rng *rand.Rand, cfg Config) relation.Tuple {
	switch r := rng.Float64(); {
	case r < cfg.DupRate:
		return w.row(schema, rng.Intn(w.papers))
	case r < cfg.DupRate+(1-cfg.DupRate)*cfg.PartialRate:
		// A fresh paper (unknown title/pages/venue pairing) by known
		// authors at a known venue: homepages and proceedings fields are
		// fixable through φ1–φ4 and φ6, the φ5/φ7 keys are not in Dm.
		p := w.papers + 1 + rng.Intn(1<<20)
		return w.row(schema, p)
	default:
		// Fresh authors and a fresh venue: nothing is fixable.
		t := w.row(schema, w.papers+1+rng.Intn(1<<20))
		a := w.authors + rng.Intn(1<<20)
		n1, h1 := w.author(a)
		n2, h2 := w.author(a + 1)
		fields := map[string]string{
			"a1": n1, "a2": n2, "hp1": h1, "hp2": h2,
			"btitle":   fmt.Sprintf("Workshop %06d", rng.Intn(1<<20)),
			"crossref": fmt.Sprintf("conf/w%06d", rng.Intn(1<<20)),
		}
		for name, v := range fields {
			pos, _ := schema.Pos(name)
			t[pos] = relation.String(v)
		}
		return t
	}
}

// applyNoise corrupts each attribute independently with probability n%,
// drawing foreign values from previously generated truths (wrong-record
// errors) and character typos from the corrupt model.
func applyNoise(rng *rand.Rand, truth relation.Tuple, noise float64, pool []relation.Tuple) relation.Tuple {
	dirty := truth.Clone()
	for i := range dirty {
		if rng.Float64() >= noise {
			continue
		}
		foreign := relation.Null
		if len(pool) > 0 {
			foreign = pool[rng.Intn(len(pool))][i]
		}
		dirty[i] = Corrupt(rng, dirty[i], foreign)
	}
	return dirty
}
