package master

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/relation"
	"repro/internal/wal"
)

// TestLineageSharesPlan holds Σ's plan to its lineage. Every snapshot
// derived from a root — by ApplyDelta, Versioned.Apply, WAL replay on
// recovery or a follower's ApplyRecord — holds its root's plan by pointer;
// every root — a build, an arena load, a recovered checkpoint, a follower's
// bootstrap image — resolves from Σ a plan equal to NewBuilder's. A
// checkpoint whose index list is reordered or short against the plan is
// refused typed, by recovery and by a follower's bootstrap alike.
func TestLineageSharesPlan(t *testing.T) {
	sigma, built := fuzzArenaSigma()
	want := NewBuilder(sigma).d.plan
	if !reflect.DeepEqual(built.plan, want) {
		t.Fatalf("built plan %+v, NewBuilder's %+v", built.plan, want)
	}
	deltas := []struct {
		adds []relation.Tuple
		dels []int
	}{
		{[]relation.Tuple{relation.StringTuple("a", "x", "b")}, nil},
		{nil, []int{0, 3}},
		{[]relation.Tuple{relation.StringTuple("c", "c", "c"), relation.StringTuple("y", "b", "a")}, []int{1}},
	}
	// shares requires every retained epoch of v to hold root's plan.
	shares := func(ctx string, v *Versioned, root *Data) {
		t.Helper()
		for e := root.Epoch(); e <= v.Epoch(); e++ {
			d, err := v.At(e)
			if err != nil {
				t.Fatalf("%s: epoch %d: %v", ctx, e, err)
			}
			if d.plan != root.plan {
				t.Fatalf("%s: epoch %d holds plan %p, its root %p", ctx, e, d.plan, root.plan)
			}
		}
	}

	v := NewVersioned(built)
	d := built
	for _, dl := range deltas {
		next, err := d.ApplyDelta(dl.adds, dl.dels)
		if err != nil {
			t.Fatal(err)
		}
		if next.plan != d.plan {
			t.Fatal("ApplyDelta copied the plan")
		}
		d = next
		if _, err := v.Apply(dl.adds, dl.dels); err != nil {
			t.Fatal(err)
		}
	}
	shares("Versioned.Apply", v, built)

	loaded := loadArenaOrFatal(t, saveArenaBytes(t, built, sigma), sigma)
	if !reflect.DeepEqual(loaded.plan, want) {
		t.Fatalf("LoadArena's plan %+v, NewBuilder's %+v", loaded.plan, want)
	}
	lv := NewVersioned(loaded)
	for _, dl := range deltas {
		if _, err := lv.Apply(dl.adds, dl.dels); err != nil {
			t.Fatal(err)
		}
	}
	shares("arena-loaded", lv, loaded)

	// A durable lineage: written, closed, recovered from its base
	// checkpoint by replaying the log, and followed from that checkpoint.
	dir := t.TempDir()
	authed := MustNewForRules(built.Relation(), sigma, WithShards(2), WithAuth())
	opts := DurableOptions{Sync: wal.SyncNever}
	dv, err := OpenDurable(dir, func() (*Data, error) { return authed, nil }, sigma, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, dl := range deltas {
		if _, err := dv.Apply(dl.adds, dl.dels); err != nil {
			t.Fatal(err)
		}
	}
	shares("durable", dv.Versioned(), authed)
	img, base, err := dv.CheckpointImage()
	if err != nil {
		t.Fatal(err)
	}
	if err := dv.Close(); err != nil {
		t.Fatal(err)
	}
	if dv, err = OpenDurable(dir, nil, sigma, opts); err != nil {
		t.Fatal(err)
	}
	recovered, err := dv.At(base)
	if err != nil {
		t.Fatal(err)
	}
	if dv.Epoch() != base+uint64(len(deltas)) || !reflect.DeepEqual(recovered.plan, want) {
		t.Fatalf("recovered at epoch %d from %d, plan %+v", dv.Epoch(), base, recovered.plan)
	}
	shares("WAL-recovered", dv.Versioned(), recovered)

	boot := loadArenaOrFatal(t, img, sigma)
	follower := newReplica(boot, DefaultHistory)
	if _, err := dv.TailWAL(boot.Epoch(), func(rec wal.Record) error {
		_, err := follower.ApplyRecord(rec)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if follower.Epoch() != dv.Epoch() {
		t.Fatalf("follower at epoch %d, leader %d", follower.Epoch(), dv.Epoch())
	}
	shares("follower", follower, boot)
	if err := dv.Close(); err != nil {
		t.Fatal(err)
	}

	// Another plan's checkpoint: recovery and a bootstrap both refuse it.
	for name, bad := range map[string][]byte{"reordered": swapFirstIndexes(img), "short": dropLastIndex(img)} {
		if err := os.WriteFile(filepath.Join(dir, CheckpointFile), bad, 0o644); err != nil {
			t.Fatal(err)
		}
		var se *SnapshotError
		if _, err := OpenDurable(dir, nil, sigma, opts); !errors.Is(err, ErrBadSnapshot) || !errors.As(err, &se) || se.Section != "indexes" {
			t.Fatalf("%s checkpoint: recovery got %v, want a *SnapshotError in the indexes section", name, err)
		}
		if _, err := LoadArenaBytes(bad, sigma); !errors.Is(err, ErrBadSnapshot) || !errors.As(err, &se) || se.Section != "indexes" {
			t.Fatalf("%s checkpoint: bootstrap got %v, want a *SnapshotError in the indexes section", name, err)
		}
	}
}
