package certainfix

import (
	"repro/internal/fix"
	"repro/internal/master"
	"repro/internal/monitor"
	"repro/internal/wal"
)

// Typed error sentinels, for errors.Is. All System entry points wrap
// their failures so these match across the package boundary.
var (
	// ErrSessionDone reports Provide on a finished session.
	ErrSessionDone = monitor.ErrSessionDone
	// ErrArityMismatch reports tuples or attribute/value lists whose
	// shape does not fit the schema.
	ErrArityMismatch = monitor.ErrArityMismatch
	// ErrBadToken reports a session token this System did not mint and
	// no System sharing its token key did: altered, truncated, sealed
	// under another key, or built for another schema.
	ErrBadToken = monitor.ErrBadToken
	// ErrEpochEvicted reports a Resume whose pinned master epoch is no
	// longer retained in the snapshot ring; resume with RebaseToHead or
	// enlarge the ring (WithMasterHistory).
	ErrEpochEvicted = master.ErrEpochEvicted
	// ErrEpochAhead reports a Resume whose pinned master epoch this
	// System has not reached yet — a token minted on the leader, resumed
	// on a follower still catching up. Retry once the follower has; the
	// epoch will arrive. RebaseToHead does not apply: it would move the
	// session back onto an older master.
	ErrEpochAhead = master.ErrEpochAhead
	// ErrInconsistent reports that no certain fix exists under the
	// asserted values: applicable rule/master pairs conflict. Concrete
	// failures are *ConflictError values carrying the disputed attribute
	// and candidate values; errors.Is(err, ErrInconsistent) matches them.
	ErrInconsistent = fix.ErrInconsistent
	// ErrMasterBuild reports that master-data construction (New) or a
	// delta (UpdateMaster) rejected the data. Concrete failures are
	// *MasterBuildError values carrying the failing tuple's id and key
	// context.
	ErrMasterBuild = master.ErrMasterBuild
	// ErrWALCorrupt reports unrecoverable write-ahead-log corruption
	// found while recovering a WithWAL system: a bad frame in the middle
	// of the log, an epoch gap, or a checksum-valid record that does not
	// decode. (A torn tail — what a crash mid-write leaves — is repaired
	// silently and reported in DurabilityStats, never as an error.)
	// Concrete failures are *WALCorruptError values.
	ErrWALCorrupt = wal.ErrWALCorrupt
)

// ConflictError carries the witness of an inconsistency: the attribute
// two applicable rule/master pairs disagree on and the conflicting
// values. Retrieve it with errors.As; it matches ErrInconsistent under
// errors.Is.
type ConflictError = fix.ConflictError

// MasterBuildError carries the context of a master build or delta
// failure: the failing tuple's id and a bounded rendering of its key. Retrieve it with errors.As; it matches ErrMasterBuild under
// errors.Is.
type MasterBuildError = master.BuildError

// WALCorruptError locates write-ahead-log corruption: the segment file,
// the byte offset, and what was found there. Retrieve it with errors.As;
// it matches ErrWALCorrupt under errors.Is.
type WALCorruptError = wal.CorruptError
