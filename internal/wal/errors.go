package wal

import (
	"errors"
	"fmt"
)

// ErrWALCorrupt is the sentinel matched (errors.Is) by every log decode
// failure that recovery cannot repair on its own: a bad frame in the
// middle of the log (truncating there would silently drop the records
// behind it), an epoch gap or regression between records, and a frame
// whose checksum verifies but whose payload does not decode. A torn or
// corrupt TAIL — the last frames of the last segment, the only place a
// crash can leave one — is NOT an error: Open truncates it and reports
// the repair in Stats.
var ErrWALCorrupt = errors.New("wal: log corrupt")

// CorruptError locates an unrecoverable log corruption: the segment file,
// the byte offset decoding stopped at, and what was found there. It
// matches ErrWALCorrupt through errors.Is.
type CorruptError struct {
	// Path is the segment file being decoded.
	Path string
	// Offset is the byte offset within the segment at which decoding
	// failed (-1 when the failure is not tied to one position, e.g. an
	// epoch gap between segments).
	Offset int64
	// Msg describes the corruption.
	Msg string
}

func (e *CorruptError) Error() string {
	if e.Offset < 0 {
		return fmt.Sprintf("wal: %s: %s", e.Path, e.Msg)
	}
	return fmt.Sprintf("wal: %s at offset %d: %s", e.Path, e.Offset, e.Msg)
}

// Unwrap makes the error match ErrWALCorrupt through errors.Is.
func (e *CorruptError) Unwrap() error { return ErrWALCorrupt }

// ErrTruncated is the sentinel matched (errors.Is) by a Tail whose
// caller fell behind TruncateThrough: the epochs it
// still needs were removed because a durable checkpoint covers them.
// Unlike ErrWALCorrupt this is a recoverable condition — catch up from
// the checkpoint, then resume tailing from its epoch.
var ErrTruncated = errors.New("wal: epochs truncated behind checkpoint")

// TruncatedError reports which epochs a shipping reader asked for that
// the log no longer holds. It matches ErrTruncated through errors.Is.
type TruncatedError struct {
	// After is the last epoch the caller holds: the position it asked
	// from, advanced by whatever the read delivered before it met the
	// truncation. It wants epochs > After.
	After uint64
	// First is the oldest epoch still in the log (0 when the log holds no
	// records).
	First uint64
}

func (e *TruncatedError) Error() string {
	if e.First == 0 {
		return fmt.Sprintf("wal: epochs after %d truncated behind checkpoint", e.After)
	}
	return fmt.Sprintf("wal: epochs %d..%d truncated behind checkpoint (log starts at %d)",
		e.After+1, e.First-1, e.First)
}

// Unwrap makes the error match ErrTruncated through errors.Is.
func (e *TruncatedError) Unwrap() error { return ErrTruncated }
