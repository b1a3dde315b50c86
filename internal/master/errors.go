package master

import (
	"errors"
	"fmt"

	"repro/internal/relation"
)

// ErrMasterBuild is the sentinel matched (errors.Is) by every failure of
// snapshot construction and incremental maintenance: NewForRules schema
// and tuple validation, and ApplyDelta add/delete validation. The
// concrete error is a *BuildError carrying the failing tuple's id and key
// context; match it with errors.As to render structured diagnostics
// (cmd/expdriver and cmd/certainfixd do).
var ErrMasterBuild = errors.New("master: build failed")

// BuildError reports a master build or delta failure with enough context
// to find the offending tuple in a multi-million-row load: its id (position
// in the relation or delta) and a bounded rendering of its key. TupleID is
// -1 when the failure is not tied to one tuple (e.g. a schema mismatch).
type BuildError struct {
	// TupleID is the tuple's position: an id in the relation for build
	// validation, an index into the adds slice or a delete id for deltas
	// (-1 when tuple-independent).
	TupleID int
	// Key is a bounded rendering of the failing tuple's cells ("" when
	// tuple-independent).
	Key string
	// Err is the underlying cause.
	Err error
}

func (e *BuildError) Error() string {
	if e.TupleID < 0 {
		return fmt.Sprintf("master: build: %v", e.Err)
	}
	return fmt.Sprintf("master: build: tuple %d (key %s): %v", e.TupleID, e.Key, e.Err)
}

// Unwrap makes the error match both ErrMasterBuild and the underlying
// cause through errors.Is/As.
func (e *BuildError) Unwrap() []error { return []error{ErrMasterBuild, e.Err} }

// ErrBadSnapshot is the sentinel matched (errors.Is) by every arena
// decode failure: truncated files, bad magic or version, out-of-range
// offsets, corrupt tables, and snapshots saved for a different Σ or
// schema. The concrete error is a *SnapshotError locating the corruption.
// The decoder validates eagerly at LoadArena time — a snapshot that loads
// without error is fully bounds-checked, so probes run with no per-access
// validation — and never panics or reads past the file on hostile input
// (FuzzLoadArena pins this).
var ErrBadSnapshot = errors.New("master: bad snapshot")

// SnapshotError reports an arena decode failure with the file section and
// byte offset where decoding stopped.
type SnapshotError struct {
	// Section names the arena section being decoded ("header", "schema",
	// "symbols", "rows", "indexes", "rules", "auth", "trailer").
	Section string
	// Offset is the absolute byte offset at which decoding failed (-1 when
	// the failure is not tied to one position, e.g. a Σ mismatch).
	Offset int
	// Msg describes the corruption.
	Msg string
}

func (e *SnapshotError) Error() string {
	if e.Offset < 0 {
		return fmt.Sprintf("master: snapshot: %s: %s", e.Section, e.Msg)
	}
	return fmt.Sprintf("master: snapshot: %s at offset %d: %s", e.Section, e.Offset, e.Msg)
}

// Unwrap makes the error match ErrBadSnapshot through errors.Is.
func (e *SnapshotError) Unwrap() error { return ErrBadSnapshot }

// maxKeyContext bounds the tuple-key rendering embedded in errors, so a
// pathological row cannot flood logs.
const maxKeyContext = 128

// tupleKeyContext renders a tuple's full key for error context, truncated
// to maxKeyContext bytes.
func tupleKeyContext(t relation.Tuple) string {
	positions := make([]int, len(t))
	for i := range positions {
		positions[i] = i
	}
	k := t.Key(positions)
	if len(k) > maxKeyContext {
		k = k[:maxKeyContext] + "…"
	}
	return k
}

// validateTuple checks a master tuple against the schema: arity, and each
// cell's dynamic kind against the attribute's declared type (null is
// allowed everywhere — the paper's completeness assumption is the data
// owner's contract, not a structural one).
func validateTuple(schema *relation.Schema, t relation.Tuple) error {
	if len(t) != schema.Arity() {
		return fmt.Errorf("arity %d against schema %s of arity %d", len(t), schema.Name(), schema.Arity())
	}
	for i, v := range t {
		attr := schema.Attr(i)
		switch v.Kind() {
		case relation.KindNull:
		case relation.KindString:
			if attr.Type != relation.TypeString {
				return fmt.Errorf("attribute %s: string value %q against declared type %v", attr.Name, v.Str(), attr.Type)
			}
		case relation.KindInt:
			if attr.Type != relation.TypeInt {
				return fmt.Errorf("attribute %s: int value %d against declared type %v", attr.Name, v.Int64(), attr.Type)
			}
		default:
			return fmt.Errorf("attribute %s: unknown value kind %v", attr.Name, v.Kind())
		}
	}
	return nil
}
