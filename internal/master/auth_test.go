package master

// Authenticated epochs at the master level: the incremental Merkle root
// maintained by ApplyDelta must equal a from-scratch authtree.Build at
// every epoch; arena images round-trip the commitment (and version-1
// images load as explicitly unauthenticated); corrupt auth sections are
// rejected with typed *SnapshotError values; durable replay verifies
// recovered roots against logged roots; and a follower fed one corrupted
// delta detects the root mismatch at exactly that epoch.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/authtree"
	"repro/internal/relation"
	"repro/internal/wal"
)

func mustRoot(t testing.TB, d *Data) authtree.Hash {
	t.Helper()
	root, ok := d.AuthRoot()
	if !ok {
		t.Fatal("snapshot is not authenticated")
	}
	return root
}

func TestWithAuthBuildsCommitment(t *testing.T) {
	d0, sigma, _ := deltaFixture(t, 20)
	if d0.Authenticated() {
		t.Fatal("default build is authenticated")
	}
	if _, ok := d0.AuthRoot(); ok {
		t.Fatal("AuthRoot ok on unauthenticated snapshot")
	}
	if st := d0.MemStats(); st.Authenticated || st.Root != "" {
		t.Fatalf("unauthenticated MemStats reports auth: %+v", st)
	}

	da := MustNewForRules(d0.Relation(), sigma, WithAuth())
	want := authtree.Build(da.Relation()).Root()
	if got := mustRoot(t, da); got != want {
		t.Fatalf("WithAuth root %s, rebuild root %s", got, want)
	}

	// Authenticate is the in-place equivalent, and idempotent.
	d0.Authenticate()
	if got := mustRoot(t, d0); got != want {
		t.Fatalf("Authenticate root %s, rebuild root %s", got, want)
	}
	d0.Authenticate()
	if got := mustRoot(t, d0); got != want {
		t.Fatalf("second Authenticate changed root to %s", got)
	}
	if st := d0.MemStats(); !st.Authenticated || st.Root != want.String() {
		t.Fatalf("authenticated MemStats = %v / %q, want true / %q", st.Authenticated, st.Root, want)
	}

	// Every tuple proves against the root.
	for id := 0; id < da.Len(); id++ {
		p, err := da.ProveTuple(id)
		if err != nil {
			t.Fatalf("ProveTuple(%d): %v", id, err)
		}
		if err := authtree.VerifyInclusion(want, da.Tuple(id), p); err != nil {
			t.Fatalf("proof for tuple %d rejected: %v", id, err)
		}
	}
}

// TestAuthIncrementalRootProperty is the incremental-vs-rebuild oracle
// over randomized delta programs: after every ApplyDelta the maintained
// root must equal authtree.Build over the materialized relation.
func TestAuthIncrementalRootProperty(t *testing.T) {
	const instances = 12
	const steps = 8
	for seed := 0; seed < instances; seed++ {
		rng := rand.New(rand.NewSource(int64(97_000_000 + seed)))
		cur, _, rm, vals := randomDeltaInstance(rng)
		cur.Authenticate()
		for step := 0; step < steps; step++ {
			adds, deletes := randomDelta(rng, cur.Len(), rm.Arity(), vals)
			next, err := cur.ApplyDelta(adds, deletes)
			if err != nil {
				t.Fatalf("seed %d step %d: ApplyDelta: %v", seed, step, err)
			}
			if !next.Authenticated() {
				t.Fatalf("seed %d step %d: delta dropped the commitment", seed, step)
			}
			got := mustRoot(t, next)
			if want := authtree.Build(next.Relation()).Root(); got != want {
				t.Fatalf("seed %d step %d epoch %d: incremental root %s, rebuild root %s",
					seed, step, next.Epoch(), got, want)
			}
			cur = next
		}
		// Spot-check proofs against the final snapshot.
		root := mustRoot(t, cur)
		for id := 0; id < cur.Len() && id < 5; id++ {
			p, err := cur.ProveTuple(id)
			if err != nil {
				t.Fatalf("seed %d: ProveTuple(%d): %v", seed, id, err)
			}
			if err := authtree.VerifyInclusion(root, cur.Tuple(id), p); err != nil {
				t.Fatalf("seed %d: proof for tuple %d rejected: %v", seed, id, err)
			}
		}
	}
}

func TestArenaAuthRoundTrip(t *testing.T) {
	d0, sigma, _ := deltaFixture(t, 33)
	da := MustNewForRules(d0.Relation(), sigma, WithAuth())
	want := mustRoot(t, da)

	ld := loadArenaOrFatal(t, saveArenaBytes(t, da, sigma), sigma)
	if !ld.Authenticated() {
		t.Fatal("authenticated image loaded unauthenticated")
	}
	if got := mustRoot(t, ld); got != want {
		t.Fatalf("loaded root %s, saved root %s", got, want)
	}
	if st := ld.MemStats(); !st.Authenticated || st.Root != want.String() {
		t.Fatalf("loaded MemStats = %v / %q, want true / %q", st.Authenticated, st.Root, want)
	}

	// Unauthenticated snapshots round-trip with the flag off.
	ld2 := loadArenaOrFatal(t, saveArenaBytes(t, d0, sigma), sigma)
	if ld2.Authenticated() {
		t.Fatal("unauthenticated image loaded authenticated")
	}
}

func TestArenaAuthSectionCorruption(t *testing.T) {
	d0, sigma, _ := deltaFixture(t, 18)
	da := MustNewForRules(d0.Relation(), sigma, WithAuth())
	img := saveArenaBytes(t, da, sigma)
	authOff := int(binary.LittleEndian.Uint64(img[hdrSections+8*secAuth:]))

	expectAuthError := func(t *testing.T, img []byte) {
		t.Helper()
		resealArena(img)
		_, err := LoadArenaBytes(img, sigma)
		if err == nil {
			t.Fatal("corrupt auth section loaded")
		}
		var se *SnapshotError
		if !errors.As(err, &se) || !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("error is not a *SnapshotError matching ErrBadSnapshot: %v", err)
		}
		if se.Section != "auth" && se.Section != "header" {
			t.Fatalf("error blames section %q: %v", se.Section, err)
		}
	}

	t.Run("root-bit-flip", func(t *testing.T) {
		bad := append([]byte(nil), img...)
		bad[authOff+8] ^= 0x01 // first byte of the stored root
		expectAuthError(t, bad)
	})
	t.Run("invalid-flag", func(t *testing.T) {
		bad := append([]byte(nil), img...)
		binary.LittleEndian.PutUint32(bad[authOff:], 7)
		expectAuthError(t, bad)
	})
	t.Run("truncated-section", func(t *testing.T) {
		bad := append(img[:authOff+8:authOff+8], make([]byte, arenaTrailerSize)...) // flag+pad survive, root cut
		binary.LittleEndian.PutUint64(bad[hdrFileSize:], uint64(len(bad)))
		expectAuthError(t, bad)
	})
}

// TestDurableAuthRootRecovery proves the root survives the durable
// lineage: a crash-free close and reopen recovers the same root the live
// lineage last published.
func TestDurableAuthRootRecovery(t *testing.T) {
	w := newDurableWorkload(77_000_001, 6)
	dir := t.TempDir()
	opts := w.opts(wal.OS)

	dv, err := OpenDurable(dir, func() (*Data, error) { return w.base, nil }, w.sigma, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range w.deltas {
		if _, err := dv.Apply(d.adds, d.deletes); err != nil {
			t.Fatal(err)
		}
	}
	want := mustRoot(t, dv.Current())
	wantEpoch := dv.Current().Epoch()
	if err := dv.Close(); err != nil {
		t.Fatal(err)
	}

	dv2, err := OpenDurable(dir, func() (*Data, error) { return w.base, nil }, w.sigma, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer dv2.Close()
	head := dv2.Current()
	if head.Epoch() != wantEpoch {
		t.Fatalf("recovered epoch %d, want %d", head.Epoch(), wantEpoch)
	}
	if got := mustRoot(t, head); got != want {
		t.Fatalf("recovered root %s, want %s", got, want)
	}
	if want := authtree.Build(head.Relation()).Root(); mustRoot(t, head) != want {
		t.Fatalf("recovered root does not match rebuild root %s", want)
	}
}

// TestDurableReplayRootVerification pins the recompute-and-verify on the
// replay path: a logged record whose Root disagrees with what the delta
// actually produces fails recovery, and a correct Root passes it.
func TestDurableReplayRootVerification(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	d0, sigma, rm, vals := randomDeltaInstance(rng)
	adds, deletes := randomDelta(rng, d0.Len(), rm.Arity(), vals)

	// The root this delta really produces, computed offline.
	dAuth := MustNewForRules(d0.Relation(), sigma, WithAuth())
	next, err := dAuth.ApplyDelta(adds, deletes)
	if err != nil {
		t.Fatal(err)
	}
	trueRoot := mustRoot(t, next)

	writeLog := func(t *testing.T, dir string, root []byte) {
		t.Helper()
		lg, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rec := wal.Record{Epoch: d0.Epoch() + 1, Adds: adds, Deletes: deletes, Root: root}
		if err := lg.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := lg.Close(); err != nil {
			t.Fatal(err)
		}
	}
	open := func(dir string) (*DurableVersioned, error) {
		base := MustNewForRules(d0.Relation(), sigma)
		return OpenDurable(dir, func() (*Data, error) { return base, nil }, sigma, DurableOptions{})
	}

	t.Run("wrong-root-rejected", func(t *testing.T) {
		dir := t.TempDir()
		lie := make([]byte, 32)
		for i := range lie {
			lie[i] = 0xAA
		}
		writeLog(t, dir, lie)
		if _, err := open(dir); err == nil {
			t.Fatal("recovery accepted a record with a lying root")
		} else if !strings.Contains(err.Error(), "does not match logged root") {
			t.Fatalf("unexpected recovery error: %v", err)
		}
	})
	t.Run("correct-root-accepted", func(t *testing.T) {
		dir := t.TempDir()
		writeLog(t, dir, append([]byte(nil), trueRoot[:]...))
		dv, err := open(dir)
		if err != nil {
			t.Fatalf("recovery rejected a truthful root: %v", err)
		}
		defer dv.Close()
		if got := mustRoot(t, dv.Current()); got != trueRoot {
			t.Fatalf("recovered root %s, want %s", got, trueRoot)
		}
	})
}

// TestFollowerDetectsCorruptedDelta is the acceptance scenario: an
// authenticated follower fed a record whose delta was corrupted in
// flight — still a perfectly applicable delta, just not the leader's —
// must fail with a DivergenceError at exactly that epoch — a root mismatch,
// or a missing root when the tamperer stripped it — publish nothing, and
// proceed normally once given the real record.
func TestFollowerDetectsCorruptedDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(9_000_009))
	leader, _, rm, vals := randomDeltaInstance(rng)
	leader.Authenticate()

	// The leader's shipped lineage: four records, each with ≥1 add so
	// there is a cell to corrupt, stamped with the produced root.
	const nRecords = 4
	records := make([]wal.Record, 0, nRecords)
	lead := leader
	for i := 0; i < nRecords; i++ {
		adds := []relation.Tuple{randomMasterTuple(rng, rm.Arity(), vals)}
		var deletes []int
		if lead.Len() > 0 {
			deletes = []int{rng.Intn(lead.Len())}
		}
		next, err := lead.ApplyDelta(adds, deletes)
		if err != nil {
			t.Fatal(err)
		}
		root := mustRoot(t, next)
		records = append(records, wal.Record{
			Epoch:   next.Epoch(),
			Adds:    adds,
			Deletes: deletes,
			Root:    append([]byte(nil), root[:]...),
		})
		lead = next
	}

	f := newReplica(leader, 8)
	for _, rec := range records[:2] {
		if ok, err := f.ApplyRecord(rec); err != nil || !ok {
			t.Fatalf("clean record %d: ok=%v err=%v", rec.Epoch, ok, err)
		}
	}

	// Corrupt record 2's delta, once keeping the leader's root claim and
	// once stripping it: a tampered record must not pass by saying nothing.
	evil := records[2]
	evil.Adds = []relation.Tuple{evil.Adds[0].Clone()}
	evil.Adds[0][0] = relation.String("tampered")
	stripped := evil
	stripped.Root = nil
	for _, tc := range []struct {
		name string
		rec  wal.Record
		msg  string
	}{
		{"root-kept", evil, "does not match logged root"},
		{"root-stripped", stripped, "carries no root"},
	} {
		before := f.Current()
		ok, err := f.ApplyRecord(tc.rec)
		if ok || err == nil {
			t.Fatalf("%s: corrupted delta applied: ok=%v err=%v", tc.name, ok, err)
		}
		var de *DivergenceError
		if !errors.As(err, &de) || !errors.Is(err, ErrDivergence) {
			t.Fatalf("%s: error is not a *DivergenceError matching ErrDivergence: %v", tc.name, err)
		}
		if de.Epoch != evil.Epoch {
			t.Fatalf("%s: divergence detected at epoch %d, corruption was at %d", tc.name, de.Epoch, evil.Epoch)
		}
		if !strings.Contains(de.Msg, tc.msg) {
			t.Fatalf("%s: divergence does not say %q: %v", tc.name, tc.msg, de)
		}
		if f.Current() != before {
			t.Fatalf("%s: follower published epoch %d on a corrupted delta", tc.name, f.Epoch())
		}
	}

	// The genuine records still apply, converging on the leader's root.
	for _, rec := range records[2:] {
		if ok, err := f.ApplyRecord(rec); err != nil || !ok {
			t.Fatalf("record %d after recovery: ok=%v err=%v", rec.Epoch, ok, err)
		}
	}
	if got, want := mustRoot(t, f.Current()), mustRoot(t, lead); got != want {
		t.Fatalf("follower root %s, leader root %s", got, want)
	}
}

// BenchmarkApplyDeltaAuth is BenchmarkApplyDelta with the commitment
// maintained — the incremental O(delta·depth) root update, whose
// allocations the perf gate records beside the plain delta's. Pinned like
// it: GOMAXPROCS and shard count 1.
func BenchmarkApplyDeltaAuth(b *testing.B) {
	for _, n := range []int{600, 6_000, 60_000} {
		rel, sigma := benchMasterRelation(n)
		d0 := MustNewForRules(rel, sigma, WithShards(1), WithAuth())
		rng := rand.New(rand.NewSource(7))
		add := []relation.Tuple{benchMasterTuple(rng, n+1)}
		del := []int{n / 2}
		b.Run(fmt.Sprintf("Dm=%d", n), func(b *testing.B) {
			pinProcs(b, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := d0.ApplyDelta(add, del); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
