package master

// This file implements the versioned-master update path: ApplyDelta
// derives the next immutable snapshot from a batch of additions and
// deletions by incrementally maintaining the id rows, hash indexes and
// symbol table — every one of them a structurally shared container
// (internal/persist) over the frozen tables — and the per-rule
// pattern-support counts, and Versioned publishes the current snapshot
// through an atomic pointer so probes never block behind an update.
//
// Delta semantics, mirrored exactly by the rebuild oracle the property
// tests compare against:
//
//  1. deletes name tuple ids in the snapshot the delta is applied to.
//     They are processed in descending id order, each as a swap-remove:
//     the last tuple moves into the deleted slot. Swap-remove keeps
//     maintenance proportional to the delta (only the moved tuple's
//     entries change id) instead of cascading an id shift through every
//     structure.
//  2. adds are then appended in order; an added tuple is interned into an
//     id row of its own, so callers may reuse their slices.
//
// Every index mutation lands in the shard its key routes to (shard.go), so
// a delta's overlays — and the flatten-at-1/4 compaction they eventually
// trigger in fork — touch 1/P of an index. The mutations are PLANNED
// serially into one op list (cheap: support counts, interning) and APPLIED
// per index, one index after another.
//
// Cost per delta: the delta. Per op and index, one trie path into the
// shard's overlay, one chunk of the key's id list (≤ maxChunk ids) and the
// list's chunk table (overlay.go); per added tuple, one id row; per touched
// 64-element chunk of the row headers, one chunk copy; per interned value,
// one trie path; per delta, one copy of the |Σ| support counts. What still
// scales with |Dm| is the chunk tables (8 bytes per 64 tuples, 24 per 96 or
// so ids of an edited list) and, amortized, the compaction of a shard whose
// overlay outgrew its table. TestApplyDeltaAllocScaling holds the same delta at
// |Dm| = 60k to 1.6× the bytes it allocates at 6k; the ApplyDelta benchmarks
// record the rest.

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/persist"
	"repro/internal/relation"
	"repro/internal/wal"
)

// deltaOp is one planned mutation of every index, on the tuple stored as
// row. Support counts and interning happen at planning time (they are global
// and O(1) per op); the map and bucket work — the bulk of a delta — runs in
// applyIndexOps.
type deltaOp struct {
	kind   uint8
	row    []uint32
	id, to int
}

const (
	opUnindex uint8 = iota
	opRename
	opAppend
)

// ApplyDelta derives a new snapshot with the deletes applied (swap-remove,
// descending id order) followed by the adds (appended in order). The
// receiver is not modified and stays fully usable; probes running against
// it — or any other snapshot — are never blocked or invalidated.
// Concurrent ApplyDelta calls on the same snapshot must be serialized by
// the caller (use Versioned.Apply). Validation failures are typed
// (*BuildError matching ErrMasterBuild) with the failing tuple's id and
// key context.
func (d *Data) ApplyDelta(adds []relation.Tuple, deletes []int) (*Data, error) {
	for i, t := range adds {
		if err := validateTuple(d.schema, t); err != nil {
			return nil, &BuildError{TupleID: i, Key: tupleKeyContext(t), Err: fmt.Errorf("delta add: %w", err)}
		}
	}
	n := d.rows.Len()
	del := append([]int(nil), deletes...)
	sort.Sort(sort.Reverse(sort.IntSlice(del)))
	for i, id := range del {
		if id < 0 || id >= n {
			// Tuple-independent context (no tuple exists at this id; the
			// wrapped error names it).
			return nil, &BuildError{TupleID: -1, Err: fmt.Errorf("delta delete id %d out of range [0, %d)", id, n)}
		}
		if i > 0 && del[i-1] == id {
			return nil, &BuildError{TupleID: id, Key: tupleKeyContext(d.Tuple(id)),
				Err: fmt.Errorf("duplicate delta delete id %d", id)}
		}
	}

	nd := &Data{
		epoch:   d.epoch + 1,
		nshards: d.nshards,
		schema:  d.schema,
		// The row headers are shared with d chunk by chunk; the edits below
		// copy the chunks they touch.
		rows:      d.rows.Clone(),
		syms:      d.syms.Fork(),
		plan:      d.plan,
		shards:    make([]indexShard, len(d.shards)),
		supported: slices.Clone(d.supported),
		arena:     d.arena,
	}
	// Every shard layer forks on its own, so overlay growth and compaction
	// stay shard-local; exception tables are immutable slices, shared until
	// a delta rewrites one.
	for s := range d.shards {
		nd.shards[s] = indexShard{d.shards[s].layered.fork(), d.shards[s].exc}
	}

	// Plan: queue every op; update the support counts and intern added
	// values inline (both global, both O(1) per op).
	ops := make([]deltaOp, 0, 2*len(del)+len(adds))

	// The Merkle commitment is keyed by tuple CONTENT, so only genuine
	// deletes and adds touch it — the swap-remove renames below shuffle
	// ids, not content, and leave the root alone. O(delta · depth) node
	// copies per epoch, sharing every untouched subtree with the parent.
	nd.auth = d.auth

	var gone relation.Tuple // a deleted tuple, materialized for the commitment
	for _, id := range del {
		last := nd.rows.Len() - 1
		row := nd.rows.At(id)
		ops = append(ops, deltaOp{kind: opUnindex, row: row, id: id})
		nd.addSupport(row, -1)
		if nd.auth != nil {
			gone = nd.TupleInto(gone, id)
			nd.auth = authRemove(nd.auth, gone)
		}
		if last != id {
			moved := nd.rows.At(last)
			ops = append(ops, deltaOp{kind: opRename, row: moved, id: last, to: id})
			nd.rows.Set(id, moved)
		}
		nd.rows.Truncate(last)
	}
	for _, t := range adds {
		row := make([]uint32, len(t))
		for c, v := range t {
			row[c] = nd.syms.Intern(v)
		}
		id := nd.rows.Len()
		nd.rows.Append(row)
		ops = append(ops, deltaOp{kind: opAppend, row: row, id: id})
		nd.addSupport(row, 1)
		if nd.auth != nil {
			nd.auth = nd.auth.Insert(t)
		}
	}
	// The rows are final once planning ends; the index ops read them to keep
	// the exception tables exact.

	// Apply, index by index. One batch for all of them: the overlay nodes this
	// delta makes are its own until it returns.
	batch := new(persist.Edit)
	for i := range nd.plan.indexes {
		nd.applyIndexOps(nd.indexAt(i), ops, batch)
	}
	return nd, nil
}

// applyIndexOps runs the planned mutations, in order, on one index: each
// lands in the shard the hash of its row's Xm ids routes to. The symbol
// table is read-only here (interning happened at plan time).
//
// Exception tables (uniform.go) follow the buckets of an index that keeps
// them: an append compares the new tuple with the bucket's smallest id —
// deletes and renames precede the appends, so bucket ids are final by then;
// a delete from a listed bucket may have removed the disagreement, so the
// bucket is rescanned once the ops are done; a rename keeps the bucket's
// tuple set and needs nothing.
func (nd *Data) applyIndexOps(idx index, ops []deltaOp, batch *persist.Edit) {
	var buf [8]uint64
	rescan := buf[:0]
	tracked := len(idx.bms) > 0
	for _, op := range ops {
		h := nd.syms.HashRow(op.row, idx.xm)
		sh := idx.shard(h)
		bucket := sh.list(h)
		switch {
		case !tracked:
		case op.kind == opUnindex && sh.exc.mask(h) != 0:
			rescan = append(rescan, h)
		case op.kind == opAppend && bucket.len() > 0:
			if m := idx.disagree(nd.rows.At(bucket.chunks()[0][0]), op.row); m != 0 {
				sh.exc = sh.exc.with(h, sh.exc.mask(h)|m)
			}
		}
		sh.put(batch, h, editIDs(op, bucket))
	}
	for _, h := range rescan {
		// The maintained mask never misses a disagreement, so it bounds the
		// scan: a bucket that is still as dirty answers in a few tuples.
		sh := idx.shard(h)
		sh.exc = sh.exc.with(h, idx.bucketMask(sh.list(h), nd.rows.At, sh.exc.mask(h)))
	}
}

// addSupport adds k to the support count of every rule whose pattern the
// tuple stored as row satisfies: −1 for a deleted tuple, +1 for an appended
// one (planning-time, serial). A swap-remove move keeps the tuple set, so it
// changes no count.
func (nd *Data) addSupport(row []uint32, k int) {
	for r, rp := range nd.plan.rules {
		if patternCompatible(rp.ru, row, nd.syms) {
			nd.supported[r] += k
		}
	}
}

// Versioned is the mutable handle over a chain of master snapshots: it
// serializes writers and publishes each new snapshot with an atomic
// pointer swap. Readers call Current and probe the returned snapshot for
// as long as they need a stable view (a Deriver pins one per Suggest
// call, a monitor Session pins one for its whole interactive lifetime);
// they never block behind a writer and never observe a half-applied
// delta.
//
// Beyond the head, Versioned retains a bounded ring of recent snapshots
// so that suspended work — a serialized fix session resumed minutes
// later, possibly in another process — can re-pin the exact epoch it
// started on via At. Retention is cheap: delta-derived snapshots share
// everything a delta did not touch, so a retained epoch costs the trie
// paths and the chunks — of rows and id lists — its delta wrote,
// not a copy of Dm.
type Versioned struct {
	mu      sync.Mutex
	cur     atomic.Pointer[Data]
	hist    []*Data // ascending epochs; the last element is the head
	histCap int
}

// DefaultHistory is how many snapshots (including the head) a Versioned
// retains for At unless SetHistory overrides it.
const DefaultHistory = 8

// ErrEpochEvicted reports that the requested epoch is no longer retained
// in the snapshot ring. Callers holding a session pinned to that epoch
// must either fail the resume or rebase the session onto the current
// head (monitor.ResumeOptions.RebaseToHead).
var ErrEpochEvicted = errors.New("master: epoch evicted from snapshot history")

// ErrEpochAhead reports that the requested epoch is newer than this
// lineage's head: the snapshot was published elsewhere (a session minted on
// the leader, resumed on a follower still catching up) and will arrive. It
// is "not yet", not "no longer" — retry after the lineage has caught up;
// rebasing onto the head would move the session back in time.
var ErrEpochAhead = errors.New("master: epoch ahead of the published head")

// NewVersioned starts a version chain at snapshot d (epoch as built),
// retaining DefaultHistory snapshots for At.
func NewVersioned(d *Data) *Versioned {
	v := &Versioned{histCap: DefaultHistory, hist: []*Data{d}}
	v.cur.Store(d)
	return v
}

// Versioned returns v, and Close is a no-op: with Apply they make the
// in-memory chain usable wherever a DurableVersioned lineage is.
func (v *Versioned) Versioned() *Versioned { return v }
func (v *Versioned) Close() error          { return nil }

// Current returns the latest published snapshot.
func (v *Versioned) Current() *Data { return v.cur.Load() }

// Epoch returns the latest published snapshot's epoch.
func (v *Versioned) Epoch() uint64 { return v.cur.Load().epoch }

// SetHistory bounds the snapshot ring to n entries including the head
// (n < 1 is clamped to 1: the head is always retained), evicting the
// oldest retained epochs immediately if the ring shrank.
func (v *Versioned) SetHistory(n int) {
	if n < 1 {
		n = 1
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.histCap = n
	v.trimLocked()
}

// History returns the current retention bound.
func (v *Versioned) History() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.histCap
}

// At returns the retained snapshot with the given epoch. The head is
// always available; older epochs are served from the ring until evicted,
// after which At fails with an error matching ErrEpochEvicted via
// errors.Is. An epoch beyond the head fails with ErrEpochAhead instead.
func (v *Versioned) At(epoch uint64) (*Data, error) {
	if cur := v.cur.Load(); cur.epoch == epoch {
		return cur, nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if head := v.cur.Load().epoch; epoch > head {
		return nil, fmt.Errorf("master: epoch %d not published yet (head %d): %w", epoch, head, ErrEpochAhead)
	}
	for i := len(v.hist) - 1; i >= 0; i-- {
		if v.hist[i].epoch == epoch {
			return v.hist[i], nil
		}
	}
	head := v.cur.Load().epoch
	return nil, fmt.Errorf("master: epoch %d not retained (head %d, history %d): %w",
		epoch, head, v.histCap, ErrEpochEvicted)
}

// Apply derives a snapshot from the current head via ApplyDelta and
// publishes it. On error nothing is published and the head is unchanged.
func (v *Versioned) Apply(adds []relation.Tuple, deletes []int) (*Data, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	next, err := v.cur.Load().ApplyDelta(adds, deletes)
	if err != nil {
		return nil, err
	}
	v.publishLocked(next)
	return next, nil
}

// publishDerived publishes a snapshot already derived from the current
// head via ApplyDelta. It is the seam DurableVersioned needs to make a
// delta durable between derivation and visibility: derive, append the
// record to the WAL, then publish. The snapshot must extend the head by
// exactly one epoch — anything else means a second writer raced past the
// durability layer, which is a programming error, not a runtime state.
func (v *Versioned) publishDerived(next *Data) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if cur := v.cur.Load(); next.epoch != cur.epoch+1 {
		panic(fmt.Sprintf("master: publishDerived epoch %d over head %d", next.epoch, cur.epoch))
	}
	v.publishLocked(next)
}

// publishLocked makes next the head and retains it; v.mu held.
func (v *Versioned) publishLocked(next *Data) {
	v.cur.Store(next)
	v.hist = append(v.hist, next)
	v.trimLocked()
}

// ErrReplicaGap is the sentinel matched by ApplyRecord when a record does
// not connect to the head — epochs in between are missing, typically
// because the leader truncated its WAL behind a checkpoint while a
// follower was down. Recoverable: catch up from the leader's checkpoint
// (Reset), then resume tailing.
var ErrReplicaGap = errors.New("master: follower missing epochs before shipped record")

// ErrDivergence is the sentinel matched by a *DivergenceError: a logged or
// shipped record cannot be a successor of the head. Unlike a gap this is
// not recoverable by catching up — the two lineages disagree about the
// same epoch, so nothing further is published.
var ErrDivergence = errors.New("master: follower diverged from leader lineage")

// DivergenceError reports why a record contradicts the lineage it was
// applied to. It matches ErrDivergence through errors.Is.
type DivergenceError struct {
	// Epoch is the record's epoch — or, when a follower finds its leader
	// behind it, the leader's head.
	Epoch uint64
	// Head is the lineage's head epoch at the time.
	Head uint64
	// Msg says what contradicted what.
	Msg string
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("master: lineage at epoch %d diverged at epoch %d: %s", e.Head, e.Epoch, e.Msg)
}

// Unwrap makes the error match ErrDivergence through errors.Is.
func (e *DivergenceError) Unwrap() error { return ErrDivergence }

// ApplyRecord is the one guarded apply of a logged record: recovery
// replays the WAL through it and a follower applies the leader's shipped
// records through it. It serialises with Apply.
//
//   - epoch ≤ head: already applied (a reconnect replayed overlap) —
//     skipped, (false, nil).
//   - epoch > head+1: records are missing — ErrReplicaGap.
//   - epoch = head+1: the delta is derived through ApplyDelta, which
//     produces exactly that epoch, and the incrementally maintained root
//     is checked against the one the writer stamped the record with. A
//     lineage without a commitment, a record without a root, a delta that
//     does not apply, or one that produces another root is a
//     *DivergenceError and nothing is published; otherwise (true, nil).
func (v *Versioned) ApplyRecord(rec wal.Record) (bool, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	head := v.cur.Load()
	diverged := func(format string, args ...any) (bool, error) {
		return false, &DivergenceError{Epoch: rec.Epoch, Head: head.epoch, Msg: fmt.Sprintf(format, args...)}
	}
	switch {
	case rec.Epoch <= head.epoch:
		return false, nil
	case rec.Epoch > head.epoch+1:
		return false, fmt.Errorf("master: lineage at epoch %d got epoch %d: %w", head.epoch, rec.Epoch, ErrReplicaGap)
	case head.auth == nil:
		return diverged("the lineage carries no Merkle commitment to check the record's root against")
	case len(rec.Root) == 0:
		return diverged("record carries no root")
	}
	next, err := head.ApplyDelta(rec.Adds, rec.Deletes)
	if err != nil {
		// The writer applied this exact delta; if we cannot, our state is
		// not the writer's state at head.
		return diverged("delta does not apply: %v", err)
	}
	if root := next.auth.Root(); string(rec.Root) != string(root[:]) {
		// The delta went through, but it is not the bytes the writer
		// applied: this is the epoch the lineages fork.
		return diverged("applied root %s does not match logged root %x", root.String(), rec.Root)
	}
	v.publishLocked(next)
	return true, nil
}

// Reset replaces the whole chain with base, evicting every retained epoch.
// It is a follower's catch-up: when the leader truncated the WAL epochs
// the replica still needed, the replica rebases onto the leader's
// checkpoint image and tails from there. Sessions pinned to evicted
// epochs fail with ErrEpochEvicted on resume, exactly as they do when the
// ring outruns them. A base behind the head is refused: catching up must
// never move the published lineage backwards under a reader.
func (v *Versioned) Reset(base *Data) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if head := v.cur.Load().epoch; base.epoch < head {
		return fmt.Errorf("master: reset to epoch %d behind head %d refused", base.epoch, head)
	}
	for i := range v.hist {
		v.hist[i] = nil
	}
	v.hist = append(v.hist[:0], base)
	v.cur.Store(base)
	return nil
}

// trimLocked evicts the oldest snapshots beyond histCap; v.mu held.
func (v *Versioned) trimLocked() {
	if drop := len(v.hist) - v.histCap; drop > 0 {
		// Shift instead of re-slicing so evicted snapshots are not kept
		// alive by the backing array.
		copy(v.hist, v.hist[drop:])
		for i := len(v.hist) - drop; i < len(v.hist); i++ {
			v.hist[i] = nil
		}
		v.hist = v.hist[:len(v.hist)-drop]
	}
}
