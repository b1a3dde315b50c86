package relation

import (
	"fmt"
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
