package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"iter"
	"slices"
)

// Relation is an in-memory instance of a schema: an ordered bag of tuples.
type Relation struct {
	schema *Schema
	tuples []Tuple
}

// NewRelation creates an empty relation over the schema.
func NewRelation(schema *Schema) *Relation {
	return &Relation{schema: schema}
}

// FromTuples wraps an already-built tuple slice into a relation after
// checking arity. The relation takes ownership of the slice and aliases it
// without copying; it never writes into it — capacity is clipped, so a
// later Append reallocates — so the caller's storage is safe from the
// relation, not the other way round.
func FromTuples(schema *Schema, tuples []Tuple) (*Relation, error) {
	for _, t := range tuples {
		if len(t) != schema.Arity() {
			return nil, fmt.Errorf("relation: %s expects arity %d, got tuple of arity %d",
				schema.Name(), schema.Arity(), len(t))
		}
	}
	return &Relation{schema: schema, tuples: tuples[:len(tuples):len(tuples)]}, nil
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Tuple returns the i-th tuple (not a copy).
func (r *Relation) Tuple(i int) Tuple { return r.tuples[i] }

// All iterates the tuples (not copies) in order with their positions.
func (r *Relation) All() iter.Seq2[int, Tuple] { return slices.All(r.tuples) }

// Append adds tuples after checking arity.
func (r *Relation) Append(ts ...Tuple) error {
	for _, t := range ts {
		if len(t) != r.schema.Arity() {
			return fmt.Errorf("relation: %s expects arity %d, got tuple of arity %d",
				r.schema.Name(), r.schema.Arity(), len(t))
		}
		r.tuples = append(r.tuples, t)
	}
	return nil
}

// MustAppend is Append that panics on arity mismatch; for fixtures.
func (r *Relation) MustAppend(ts ...Tuple) {
	if err := r.Append(ts...); err != nil {
		panic(err)
	}
}

// Clone deep-copies the relation (schema shared, tuples copied).
func (r *Relation) Clone() *Relation {
	c := NewRelation(r.schema)
	for _, t := range r.All() {
		c.tuples = append(c.tuples, t.Clone())
	}
	return c
}

// WriteCSV writes the relation with a header row of attribute names.
func (r *Relation) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.schema.AttrNames()); err != nil {
		return fmt.Errorf("relation: write csv header: %w", err)
	}
	row := make([]string, r.schema.Arity())
	for _, t := range r.All() {
		for i, v := range t {
			row[i] = v.Encode()
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("relation: write csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a relation in the format produced by WriteCSV. The header
// must list exactly the schema's attributes in schema order.
func ReadCSV(schema *Schema, rd io.Reader) (*Relation, error) {
	rel := NewRelation(schema)
	err := ScanCSV(schema, rd, func(t Tuple) error {
		rel.tuples = append(rel.tuples, t.Clone())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rel, nil
}

// The ring ScanCSV decodes ahead into: scanBatches batches of scanBatchRows
// rows each, recycled, so what the scan holds is fixed — ~300 KB at HOSP's
// 19 columns — however long the input.
const (
	scanBatches   = 4
	scanBatchRows = 128
)

// scanBatch is up to scanBatchRows decoded rows, their cells end to end,
// and the error that ended the input after them, if one did.
type scanBatch struct {
	cells []Value
	rows  int
	err   error
}

// ScanCSV streams a relation in the format produced by WriteCSV: it checks
// the header against the schema, then decodes one row at a time and hands it
// to yield, stopping at the first error — its own or yield's. The tuple
// belongs to the scan, which overwrites it for a later row, and a string
// cell is a slice of its row's whole record: a consumer keeps a row with
// Tuple.Clone, and a lone value without pinning the record with Value.Clone.
//
// Parsing and decoding run ahead on a goroutine of the scan's own, a few
// batches of rows in front of yield; yield still sees every row on the
// caller's goroutine, one at a time and in file order. ScanCSV returns only
// after that goroutine has exited.
func ScanCSV(schema *Schema, rd io.Reader, yield func(Tuple) error) error {
	cr := csv.NewReader(rd)
	cr.FieldsPerRecord = schema.Arity()
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("relation: read csv header: %w", err)
	}
	want := schema.AttrNames()
	for i := range want {
		if header[i] != want[i] {
			return fmt.Errorf("relation: csv header mismatch at column %d: got %q, want %q", i, header[i], want[i])
		}
	}
	// free holds the batches the decoder may fill, full the ones yield is
	// owed, in order; both have room for the whole ring, so neither send
	// blocks. stop tells the decoder yield will take no more.
	arity := schema.Arity()
	free, full := make(chan *scanBatch, scanBatches), make(chan *scanBatch, scanBatches)
	for range scanBatches {
		free <- &scanBatch{cells: make([]Value, scanBatchRows*arity)}
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		defer close(full)
		for row := 1; ; {
			var b *scanBatch
			select {
			case <-stop:
				return
			case b = <-free:
			}
			b.rows, b.err = 0, nil
			for b.rows < scanBatchRows && b.err == nil {
				b.err = decodeRow(schema, cr, row, b.cells[b.rows*arity:(b.rows+1)*arity])
				if b.err == nil {
					b.rows++
					row++
				}
			}
			full <- b
			if b.err != nil {
				return
			}
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()
	for b := range full {
		for i := range b.rows {
			if err := yield(b.cells[i*arity : (i+1)*arity : (i+1)*arity]); err != nil {
				return err
			}
		}
		if b.err == io.EOF {
			return nil
		}
		if b.err != nil {
			return b.err
		}
		free <- b
	}
	return nil
}

// decodeRow reads the next record into t, row being its number for the
// error; io.EOF, unwrapped, ends the input.
func decodeRow(schema *Schema, cr *csv.Reader, row int, t Tuple) error {
	rec, err := cr.Read()
	if err == io.EOF {
		return err
	}
	if err != nil {
		return fmt.Errorf("relation: read csv row: %w", err)
	}
	for i, cell := range rec {
		if t[i], err = DecodeValue(cell, schema.attrs[i].Type); err != nil {
			return fmt.Errorf("relation: row %d column %s: %w", row, schema.attrs[i].Name, err)
		}
	}
	return nil
}
