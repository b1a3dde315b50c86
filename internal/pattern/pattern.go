// Package pattern implements the pattern language of the paper (§2):
// pattern cells that are a constant a (condition x = a), a negated constant
// ā (condition x ≠ a) or the wildcard _ (no condition); pattern tuples over
// a list of attributes; and pattern tableaus. The match relation t ≈ tp is
// the basis of rule applicability and of regions (Z, Tc).
package pattern

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/relation"
)

// CellKind discriminates the three pattern-cell forms.
type CellKind uint8

// Pattern cell forms.
const (
	Wildcard CellKind = iota // "_" — imposes no condition
	Const                    // "a" — requires x = a
	NotConst                 // "ā" — requires x ≠ a
)

// Cell is one pattern condition.
type Cell struct {
	Kind CellKind
	Val  relation.Value // meaningful for Const and NotConst
}

// Any is the wildcard cell.
var Any = Cell{Kind: Wildcard}

// Eq builds a constant cell requiring equality with v.
func Eq(v relation.Value) Cell { return Cell{Kind: Const, Val: v} }

// Neq builds a negated cell requiring inequality with v.
func Neq(v relation.Value) Cell { return Cell{Kind: NotConst, Val: v} }

// EqStr is Eq over a string constant.
func EqStr(s string) Cell { return Eq(relation.String(s)) }

// NeqStr is Neq over a string constant.
func NeqStr(s string) Cell { return Neq(relation.String(s)) }

// Matches reports whether value v satisfies the cell's condition.
func (c Cell) Matches(v relation.Value) bool {
	switch c.Kind {
	case Wildcard:
		return true
	case Const:
		return v.Equal(c.Val)
	default:
		return !v.Equal(c.Val)
	}
}

// IsConcrete reports whether the cell pins a single value (Const).
func (c Cell) IsConcrete() bool { return c.Kind == Const }

// String renders the cell: constants verbatim, negations as !v, wildcard _.
func (c Cell) String() string {
	switch c.Kind {
	case Wildcard:
		return "_"
	case Const:
		return c.Val.String()
	default:
		return "!" + c.Val.String()
	}
}

// Equal reports structural equality of cells.
func (c Cell) Equal(o Cell) bool { return c.Kind == o.Kind && c.Val.Equal(o.Val) }

// Tuple is a pattern tuple tp[Xp]: an ordered list of distinct attribute
// positions with one cell per position. The empty tuple (no attributes)
// matches every data tuple, mirroring tp = () in the paper's examples.
type Tuple struct {
	positions []int
	cells     []Cell
}

// NewTuple builds a pattern tuple. Positions must be distinct and each must
// pair with one cell.
func NewTuple(positions []int, cells []Cell) (Tuple, error) {
	if len(positions) != len(cells) {
		return Tuple{}, fmt.Errorf("pattern: %d positions but %d cells", len(positions), len(cells))
	}
	seen := map[int]bool{}
	for _, p := range positions {
		if p < 0 {
			return Tuple{}, fmt.Errorf("pattern: negative attribute position %d", p)
		}
		if seen[p] {
			return Tuple{}, fmt.Errorf("pattern: duplicate attribute position %d", p)
		}
		seen[p] = true
	}
	return Tuple{
		positions: append([]int(nil), positions...),
		cells:     append([]Cell(nil), cells...),
	}, nil
}

// MustTuple is NewTuple that panics on error; for fixtures.
func MustTuple(positions []int, cells []Cell) Tuple {
	t, err := NewTuple(positions, cells)
	if err != nil {
		panic(err)
	}
	return t
}

// Empty is the pattern tuple over no attributes; it matches everything.
func Empty() Tuple { return Tuple{} }

// Len returns the number of constrained attributes.
func (p Tuple) Len() int { return len(p.positions) }

// Positions returns the constrained attribute positions (copy).
func (p Tuple) Positions() []int { return append([]int(nil), p.positions...) }

// CellAt returns the i-th (position, cell) pair.
func (p Tuple) CellAt(i int) (int, Cell) { return p.positions[i], p.cells[i] }

// CellFor returns the cell constraining attribute position pos, with
// ok=false when the pattern does not mention pos (i.e. implicit wildcard).
func (p Tuple) CellFor(pos int) (Cell, bool) {
	for i, q := range p.positions {
		if q == pos {
			return p.cells[i], true
		}
	}
	return Any, false
}

// Matches implements t ≈ tp: every constrained attribute of t satisfies its
// cell. Attributes not mentioned are unconstrained.
func (p Tuple) Matches(t relation.Tuple) bool {
	for i, pos := range p.positions {
		if !p.cells[i].Matches(t[pos]) {
			return false
		}
	}
	return true
}

// Normalize removes wildcard cells, yielding the normal form of §2: the
// result constrains the same tuples with no "_" entries.
func (p Tuple) Normalize() Tuple {
	var q Tuple
	for i, pos := range p.positions {
		if p.cells[i].Kind != Wildcard {
			q.positions = append(q.positions, pos)
			q.cells = append(q.cells, p.cells[i])
		}
	}
	return q
}

// IsConcrete reports whether every cell is a constant (§4's "concrete Tc"
// special case, which makes consistency/coverage PTIME — Theorem 4).
func (p Tuple) IsConcrete() bool {
	for _, c := range p.cells {
		if c.Kind != Const {
			return false
		}
	}
	return true
}

// IsPositive reports whether no cell is a negation (§4's "positive Tc").
func (p Tuple) IsPositive() bool {
	for _, c := range p.cells {
		if c.Kind == NotConst {
			return false
		}
	}
	return true
}

// WithCell returns a copy of p where attribute pos is constrained by c,
// replacing an existing cell or appending a new pair. Used by the
// applicable-rule refinement of §5.2 (deriving ϕ+ from ϕ and t[Z]).
func (p Tuple) WithCell(pos int, c Cell) Tuple {
	q := Tuple{
		positions: append([]int(nil), p.positions...),
		cells:     append([]Cell(nil), p.cells...),
	}
	for i, existing := range q.positions {
		if existing == pos {
			q.cells[i] = c
			return q
		}
	}
	q.positions = append(q.positions, pos)
	q.cells = append(q.cells, c)
	return q
}

// AttrSet returns the set of constrained attribute positions.
func (p Tuple) AttrSet() relation.AttrSet {
	return relation.NewAttrSet(p.positions...)
}

// Equal reports semantic-structural equality after sorting by position.
func (p Tuple) Equal(o Tuple) bool {
	if len(p.positions) != len(o.positions) {
		return false
	}
	type pc struct {
		pos  int
		cell Cell
	}
	collect := func(t Tuple) []pc {
		out := make([]pc, len(t.positions))
		for i := range t.positions {
			out[i] = pc{t.positions[i], t.cells[i]}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
		return out
	}
	a, b := collect(p), collect(o)
	for i := range a {
		if a[i].pos != b[i].pos || !a[i].cell.Equal(b[i].cell) {
			return false
		}
	}
	return true
}

// Key returns a canonical string encoding of the pattern (sorted by
// position) for deduplication in tableaus and caches.
func (p Tuple) Key() string {
	idx := make([]int, len(p.positions))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return p.positions[idx[a]] < p.positions[idx[b]] })
	var b strings.Builder
	for _, i := range idx {
		fmt.Fprintf(&b, "%d=%d:%s\x1f", p.positions[i], p.cells[i].Kind, p.cells[i].Val.Encode())
	}
	return b.String()
}

// String renders the pattern with attribute names from the schema, e.g.
// "tp[type, AC] = (1, !0800)".
func (p Tuple) String() string {
	if len(p.positions) == 0 {
		return "()"
	}
	var names, vals []string
	for i, pos := range p.positions {
		names = append(names, fmt.Sprintf("#%d", pos))
		vals = append(vals, p.cells[i].String())
	}
	return fmt.Sprintf("[%s] = (%s)", strings.Join(names, ", "), strings.Join(vals, ", "))
}

// Format renders the pattern with attribute names resolved via schema.
func (p Tuple) Format(schema *relation.Schema) string {
	if len(p.positions) == 0 {
		return "()"
	}
	var names, vals []string
	for i, pos := range p.positions {
		names = append(names, schema.Attr(pos).Name)
		vals = append(vals, p.cells[i].String())
	}
	return fmt.Sprintf("[%s] = (%s)", strings.Join(names, ", "), strings.Join(vals, ", "))
}
