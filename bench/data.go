package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/datagen"
	"repro/internal/relation"
)

const (
	dupRate   = 0.3 // d of §6: share of inputs that duplicate a master tuple
	noiseRate = 0.2 // n of §6: share of erroneous attributes
	numInputs = 2000
	// shards is the server's -shards and the in-process builds' shard
	// count: pinned, so a result never depends on the host's CPU count.
	shards = 4
	// stormAdds and stormDeletes shape one update batch.
	stormAdds, stormDeletes = 8, 2
)

// dataset is everything one run feeds the server and checks it against.
// The server receives only the files; ds stays in this process as the
// source of truth tuples and of the in-process replays.
type dataset struct {
	ds        *datagen.Dataset
	rulesPath string
	csvPath   string
	arenaPath string // set when the workload boots from a snapshot
	batches   []datagen.DeltaBatch
}

// generate makes the workload's inputs from the seed alone and writes the
// files the server boots from into dir.
func generate(wl workload, seed int64, batches int, dir string) (*dataset, error) {
	ds, err := datagen.Hosp(datagen.Config{
		Seed: seed, MasterSize: wl.masterSize, Tuples: numInputs,
		DupRate: dupRate, NoiseRate: noiseRate, Shards: shards,
	})
	if err != nil {
		return nil, err
	}
	d := &dataset{
		ds:        ds,
		rulesPath: filepath.Join(dir, "hosp.rules"),
		csvPath:   filepath.Join(dir, "hosp_master.csv"),
	}
	// The schema names matter: an arena image is validated against them.
	r, rm := ds.Sigma.Schema(), ds.Sigma.MasterSchema()
	rules := fmt.Sprintf("schema %s: %s\nmaster %s: %s\n%s",
		r.Name(), strings.Join(r.AttrNames(), ", "), rm.Name(), strings.Join(rm.AttrNames(), ", "), datagen.HospRulesDSL)
	if err := os.WriteFile(d.rulesPath, []byte(rules), 0o644); err != nil {
		return nil, err
	}
	if err := writeCSV(d.csvPath, ds.Master.Relation()); err != nil {
		return nil, err
	}
	if wl.arena {
		d.arenaPath = filepath.Join(dir, "hosp_master.arena")
		if err := ds.Master.SaveArenaFile(d.arenaPath, ds.Sigma); err != nil {
			return nil, err
		}
	}
	if wl.storm {
		d.batches = datagen.UpdateStorm(ds, seed, batches, stormAdds, stormDeletes)
		keepConsistent(d.batches, ds.Master.Relation())
	}
	return d, nil
}

// keepConsistent replaces every tuple a storm adds by a branch of a master
// hospital under a fresh identity. UpdateStorm adds clones with one cell
// corrupted, and within a few hundred batches every measure code then maps
// to two measure names: certainfixd keeps serving on such a master but
// refuses to start on it ("no certain region derivable"), so the restart
// the workload ends with could never succeed. A branch row copies a master
// row and renames what identifies the hospital, which keeps every rule of
// HOSP a function on the master. Batch sizes and deletes stay UpdateStorm's.
func keepConsistent(batches []datagen.DeltaBatch, rel *relation.Relation) {
	schema := rel.Schema()
	fresh := []struct {
		pos    int
		format string
	}{
		{schema.MustPos("id"), "HB%07d"},
		{schema.MustPos("provNum"), "PB%07d"},
		{schema.MustPos("zip"), "ZB%07d"},
		{schema.MustPos("phn"), "556%07d"},
		{schema.MustPos("hName"), "Branch Hospital %d"},
		{schema.MustPos("city"), "Branch City %d"},
	}
	serial := 0
	for _, b := range batches {
		for i := range b.Adds {
			serial++
			t := rel.Tuple(serial * 7919 % rel.Len()).Clone()
			for _, f := range fresh {
				t[f.pos] = relation.String(fmt.Sprintf(f.format, serial))
			}
			b.Adds[i] = t
		}
	}
}

func writeCSV(path string, rel *relation.Relation) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := rel.WriteCSV(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
