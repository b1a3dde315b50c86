package pattern

import "repro/internal/relation"

// Tableau is a pattern tableau Tc: a set of pattern tuples, normally all
// over the same attribute list Z of a region (§3). A data tuple is "marked"
// by a region when it matches at least one pattern tuple.
type Tableau struct {
	rows []Tuple
}

// NewTableau builds a tableau from pattern tuples, deduplicating rows.
func NewTableau(rows ...Tuple) *Tableau {
	t := &Tableau{}
	t.Add(rows...)
	return t
}

// Add appends pattern tuples, skipping duplicates.
func (tb *Tableau) Add(rows ...Tuple) {
	seen := make(map[string]bool, len(tb.rows))
	for _, r := range tb.rows {
		seen[r.Key()] = true
	}
	for _, r := range rows {
		k := r.Key()
		if !seen[k] {
			seen[k] = true
			tb.rows = append(tb.rows, r)
		}
	}
}

// Len returns the number of pattern tuples.
func (tb *Tableau) Len() int { return len(tb.rows) }

// Row returns the i-th pattern tuple.
func (tb *Tableau) Row(i int) Tuple { return tb.rows[i] }

// Rows returns the backing row slice (not a copy).
func (tb *Tableau) Rows() []Tuple { return tb.rows }

// Marks reports whether t matches at least one pattern tuple, i.e. t is
// marked by the region carrying this tableau.
func (tb *Tableau) Marks(t relation.Tuple) bool {
	for _, r := range tb.rows {
		if r.Matches(t) {
			return true
		}
	}
	return false
}

// IsConcrete reports whether every row is concrete (constants only).
func (tb *Tableau) IsConcrete() bool {
	for _, r := range tb.rows {
		if !r.IsConcrete() {
			return false
		}
	}
	return true
}

// IsPositive reports whether no row contains a negation.
func (tb *Tableau) IsPositive() bool {
	for _, r := range tb.rows {
		if !r.IsPositive() {
			return false
		}
	}
	return true
}
