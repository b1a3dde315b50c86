package certainfix

// Durable master lineage: the WithWAL face of the public API. Without it
// the snapshot chain — every UpdateMaster since boot, and the epochs
// suspended sessions are pinned to — is process memory, and a restart
// silently rewinds the master to its construction state, breaking the
// certain-fix guarantee's premise of a known Dm. With it the chain lives
// in a directory: a write-ahead log of deltas plus periodic arena
// checkpoints, recovered on construction (see internal/master's
// DurableVersioned and DESIGN.md, "Durability: WAL + checkpoints").

import (
	"repro/internal/master"
	"repro/internal/wal"
)

// FsyncPolicy once selected when the write-ahead log fsyncs.
//
// Deprecated: a System built WithWAL fsyncs every UpdateMaster; the
// policy is not configurable (see WithFsync).
type FsyncPolicy = wal.SyncPolicy

// FsyncAlways once named the per-update fsync policy.
//
// Deprecated: it is the only policy, and WithFsync ignores it.
const FsyncAlways = wal.SyncAlways

// DurabilityStats is the durability state of a System built WithWAL:
// head and checkpoint epochs, log shape, and what recovery found on
// startup. cmd/certainfixd exposes it on /healthz.
type DurabilityStats = master.DurabilityStats

// Durability reports the durability state of a System built WithWAL; ok
// is false for a memory-only or follower System.
func (s *System) Durability() (stats DurabilityStats, ok bool) {
	dur, ok := s.lin.(*master.DurableVersioned)
	if !ok {
		return DurabilityStats{}, false
	}
	return dur.Durability(), true
}

// Checkpoint forces an arena checkpoint of the current master head and
// truncates the write-ahead log it covers. It is a no-op without
// WithWAL: neither a memory-only System nor a follower (whose durable
// truth is the leader's directory) owns a checkpoint. Routine operation
// does not need it — checkpoints roll automatically every 256 deltas —
// but it is useful before backups or to bound recovery time explicitly.
func (s *System) Checkpoint() error {
	if dur, ok := s.lin.(*master.DurableVersioned); ok {
		return dur.Checkpoint()
	}
	return nil
}

// Close flushes and closes the write-ahead log, and on a follower
// System stops the shipping loop. In-flight reads and sessions keep
// working against their pinned snapshots; further UpdateMaster calls
// fail. A memory-only System (no WithWAL) has nothing to release and
// Close is a no-op. Safe to call more than once.
func (s *System) Close() error { return s.lin.Close() }
