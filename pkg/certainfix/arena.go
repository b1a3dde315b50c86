package certainfix

// Columnar master snapshots: the cold-start path of the public API. A
// System built once can freeze its master snapshot — tuples, interning
// table, hash indexes and pattern-support bitmaps — into a
// single flat arena file; a later process loads the file by mapping it
// into memory and wrapping the bytes in read-only index views, instead of
// re-interning and re-hashing |Dm| tuples. Fix results are byte-identical
// either way; only startup cost changes (see DESIGN.md, "Columnar arena
// format").

import "repro/internal/master"

// ErrBadSnapshot reports an arena image that failed validation: wrong
// magic, truncated or corrupt sections, or a snapshot saved for a
// different Σ. Concrete failures are *SnapshotError values; errors.Is
// matches them against this sentinel.
var ErrBadSnapshot = master.ErrBadSnapshot

// SnapshotError locates an arena validation failure (section and byte
// offset). Retrieve it with errors.As; it matches ErrBadSnapshot under
// errors.Is.
type SnapshotError = master.SnapshotError

// MasterMemStats is the memory accounting of a master snapshot: where the
// lookup structures live (Go heap versus a loaded arena image) and how big
// they are. cmd/certainfixd exposes it on /healthz.
type MasterMemStats = master.MemStats

// NewFromArena builds a System whose initial master snapshot is loaded
// from an arena image saved by SaveMasterArena. rules must be equivalent
// to the Σ the image was saved for (same master schema, same rules in the
// same order) — validated against per-rule signatures in the image.
//
// Options apply as in New. UpdateMaster works unchanged on the loaded
// system; deltas land in copy-on-write overlays above the
// read-only arena. Under WithWAL the arena seeds the lineage only on the
// first open of the WAL directory — afterwards the directory's own
// checkpoint and log are authoritative, as in New.
func NewFromArena(rules *Rules, arenaPath string, opts ...Option) (*System, error) {
	return open(rules, newConfig(opts), func() (*master.Data, error) {
		return master.LoadArena(arenaPath, rules)
	})
}

// SaveMasterArena freezes the currently published master snapshot into an
// arena image at path (written to a temporary file in the same directory
// and renamed, so a crash never leaves a partial image under path). The
// image captures the snapshot as of this call; later UpdateMaster
// publishes are not reflected until it is saved again.
func (s *System) SaveMasterArena(path string) error {
	return s.head().SaveArenaFile(path, s.sigma)
}

// MasterMemStats returns the memory accounting of the currently published
// master snapshot.
func (s *System) MasterMemStats() MasterMemStats {
	return s.head().MemStats()
}
