package master

// Compatibility with what the previous layout wrote, checked against bytes:
// testdata/v7_lineage/ is a durable directory — an authenticated format-7
// arena checkpoint at epoch 8 and the WAL records of epochs 9–12 — written
// by this file's fixture, with the epoch, root and probe answers the writing
// build served in want.json. A recovering node must read it as it is.
// -update-lineage rewrites all of it and is for a change that means to break
// the format; CI rewrites it and fails on any difference, so arena or WAL
// bytes change only on purpose. testdata/v6_checkpoint.arena is the same
// lineage's checkpoint in the previous format, which every door refuses.

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/rule"
	"repro/internal/wal"
)

var updateLineage = flag.Bool("update-lineage", false, "rewrite testdata/v7_lineage")

const (
	lineageDir   = "testdata/v7_lineage"
	v6Checkpoint = "testdata/v6_checkpoint.arena"
)

// lineageWant is what the writing commit answered at its head.
type lineageWant struct {
	Epoch  uint64                  `json:"epoch"`
	Root   string                  `json:"root"`
	Tuples int                     `json:"tuples"`
	Probes map[string]lineageProbe `json:"probes"` // by rule name + probed values
}

type lineageProbe struct {
	IDs     []int    `json:"ids"`
	Values  []string `json:"values"`
	Witness int      `json:"witness"`
}

// lineageFixture is 400 tuples over (K, A, V, W): 300 keys, a third of them
// held twice, and three values of A, so the A index holds lists of 130–140
// ids — longer than a chunk — beside the short K lists.
func lineageFixture() (*rule.Set, *relation.Relation) {
	r := relation.StringSchema("R", "K", "A", "V", "W")
	rm := relation.StringSchema("Rm", "K", "A", "V", "W")
	sigma := rule.MustNewSet(r, rm,
		rule.MustNew("kv", r, rm, []int{0}, []int{0}, 2, 2, pattern.Empty()),
		rule.MustNew("aw", r, rm, []int{1}, []int{1}, 3, 3, pattern.Empty()),
		rule.MustNew("kav", r, rm, []int{0, 1}, []int{0, 1}, 2, 2, pattern.Empty()))
	rel := relation.NewRelation(rm)
	for i := 0; i < 400; i++ {
		rel.MustAppend(lineageTuple(i%300, i%3))
	}
	return sigma, rel
}

func lineageTuple(k, a int) relation.Tuple {
	return relation.StringTuple(fmt.Sprintf("k%03d", k), fmt.Sprintf("a%d", a), fmt.Sprintf("v%03d", k), fmt.Sprintf("w%d", a))
}

// lineageDelta is the i-th of the twelve deltas: two deletes spread over the
// relation and three adds, new keys and old, on every value of A.
func lineageDelta(i, n int) (adds []relation.Tuple, deletes []int) {
	deletes = []int{37 * i % n, (91*i + 5) % n}
	if deletes[0] == deletes[1] {
		deletes = deletes[:1]
	}
	return []relation.Tuple{lineageTuple(300+i, i%3), lineageTuple(2*i, (i+1)%3), lineageTuple(310+i, (i+2)%3)}, deletes
}

// lineageAnswers probes d the way want.json records it.
func lineageAnswers(d *Data, sigma *rule.Set) lineageWant {
	root, _ := d.AuthRoot()
	w := lineageWant{Epoch: d.Epoch(), Root: root.String(), Tuples: d.Len(), Probes: map[string]lineageProbe{}}
	for k := 0; k < 330; k += 31 {
		// The value of A the fixture pairs k with, and for every other k one
		// it does not.
		for a := k % 3; a <= k%3+(k+1)%2; a++ {
			t := lineageTuple(k, a%3)
			for _, ru := range sigma.Rules() {
				values, witness := d.AppendRHSValues(nil, ru, t)
				p := lineageProbe{IDs: append([]int(nil), d.MatchIDs(ru, t)...), Witness: witness}
				for _, v := range values {
					p.Values = append(p.Values, v.Str())
				}
				w.Probes[fmt.Sprintf("%s k%03d a%d", ru.Name(), k, a%3)] = p
			}
		}
	}
	return w
}

func writeLineage(t *testing.T) {
	sigma, rel := lineageFixture()
	if err := os.RemoveAll(lineageDir); err != nil {
		t.Fatal(err)
	}
	base := func() (*Data, error) { return NewForRules(rel, sigma, WithShards(2), WithAuth()) }
	dv, err := OpenDurable(lineageDir, base, sigma, DurableOptions{CheckpointEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 12; i++ {
		adds, deletes := lineageDelta(i, dv.Current().Len())
		if _, err := dv.Apply(adds, deletes); err != nil {
			t.Fatal(err)
		}
		dv.waitCheckpoint()
	}
	want, err := json.Marshal(lineageAnswers(dv.Current(), sigma))
	if err != nil {
		t.Fatal(err)
	}
	if err := dv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(lineageDir, "want.json"), append(want, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecoversParentLineage: the directory recovers to the epoch, root and
// probe answers its writer served, stays equal to a rebuild through further
// deltas, and a follower bootstrapped from its checkpoint image converges on
// its log.
func TestRecoversParentLineage(t *testing.T) {
	if *updateLineage {
		writeLineage(t)
	}
	raw, err := os.ReadFile(filepath.Join(lineageDir, "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want lineageWant
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	sigma, _ := lineageFixture()
	// Recovery appends to the log it opens: work on a copy.
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(lineageDir)); err != nil {
		t.Fatal(err)
	}

	noBase := func() (*Data, error) { return nil, errors.New("the checkpoint is the base") }
	dv, err := OpenDurable(dir, noBase, sigma, DurableOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer dv.Close()
	if rec := dv.Durability().Recovery; !rec.UsedCheckpoint || rec.BaseEpoch != 8 || rec.Replayed != 4 {
		t.Fatalf("recovery %+v, want the checkpoint of epoch 8 and 4 replayed records", rec)
	}
	if got := lineageAnswers(dv.Current(), sigma); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered head answers\n%+v\nits writer answered\n%+v", got, want)
	}
	checkEquiv(t, "recovered", dv.Current(), sigma)
	adds, deletes := lineageDelta(13, dv.Current().Len())
	next, err := dv.Apply(adds, deletes)
	if err != nil {
		t.Fatal(err)
	}
	checkEquiv(t, "recovered + delta", next, sigma)

	img, epoch, err := dv.CheckpointImage()
	if err != nil || epoch != 8 {
		t.Fatalf("checkpoint image at epoch %d: %v", epoch, err)
	}
	f := newReplica(loadArenaOrFatal(t, img, sigma), 4)
	if _, err := dv.TailWAL(epoch, func(rec wal.Record) error {
		_, err := f.ApplyRecord(rec)
		return err
	}); err != nil {
		t.Fatalf("follower of the parent-built image: %v", err)
	}
	if at, err := f.Versioned().At(want.Epoch); err != nil {
		t.Fatal(err)
	} else if got := lineageAnswers(at, sigma); !reflect.DeepEqual(got, want) {
		t.Fatalf("follower at epoch %d answers\n%+v\nthe writer answered\n%+v", want.Epoch, got, want)
	}
	lr, _ := next.AuthRoot()
	if fr, _ := f.Current().AuthRoot(); f.Epoch() != next.Epoch() || fr != lr {
		t.Fatalf("follower at epoch %d under %v, leader at %d under %v", f.Epoch(), fr, next.Epoch(), lr)
	}
}

// TestRefusesFormat6Checkpoint: the lineage's format-6 checkpoint fails with
// a typed *SnapshotError through every door — LoadArena, LoadArenaBytes and
// OpenDurable over the lineage directory holding it — and the open never
// rebuilds the lineage from its base instead.
func TestRefusesFormat6Checkpoint(t *testing.T) {
	sigma, _ := lineageFixture()
	want := fmt.Sprintf("unsupported version 6 (want %d)", arenaVersion)
	check := func(door string, err error) {
		t.Helper()
		var se *SnapshotError
		if !errors.As(err, &se) || se.Msg != want {
			t.Errorf("%s: got %v, want a *SnapshotError %q", door, err, want)
		}
	}
	_, err := LoadArena(v6Checkpoint, sigma)
	check("LoadArena", err)
	raw, err := os.ReadFile(v6Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	_, err = LoadArenaBytes(raw, sigma)
	check("LoadArenaBytes", err)

	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(lineageDir)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, CheckpointFile), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rebuilt := false
	base := func() (*Data, error) { rebuilt = true; return nil, errors.New("the checkpoint is the base") }
	dv, err := OpenDurable(dir, base, sigma, DurableOptions{CheckpointEvery: -1})
	if err == nil {
		dv.Close()
	}
	check("OpenDurable", err)
	if rebuilt {
		t.Error("OpenDurable rebuilt the lineage from its base over a format-6 checkpoint")
	}
}
