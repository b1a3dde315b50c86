package master

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The property suites were written against id lists that were slices, and
// read and plant them as slices still: get, set and each are the slice views
// of list, put and lists, so those suites hold the chunked lists to the same
// oracles, unedited.

func (l *layered) get(k uint64) []int {
	list := l.list(k)
	return list.flat()
}

func (l *layered) set(k uint64, ids []int) { l.put(nil, k, cut(ids, 0)) }

func (l *layered) each(fn func(k uint64, ids []int)) {
	l.lists(func(k uint64, list idList) { fn(k, list.flat()) })
}

// checkChunks holds a chunk table to its form — ascending ids, no empty
// chunk, none above maxChunk — and to the ids it should hold.
func checkChunks(t *testing.T, ctx string, tab [][]int, want []int) {
	t.Helper()
	for c, chunk := range tab {
		if len(chunk) == 0 || len(chunk) > maxChunk {
			t.Fatalf("%s: chunk %d of %d holds %d ids", ctx, c, len(tab), len(chunk))
		}
	}
	if got := slices.Concat(tab...); !slices.Equal(got, want) {
		t.Fatalf("%s: list\n%v\nwant\n%v", ctx, got, want)
	}
}

// TestEditIDsModel runs random unindex / rename / append ops on chunked
// lists — from a frozen span and from each other's tables — against the
// whole-list copies they replaced, and requires every shape an edit has to
// come up: a full chunk split, two small neighbours merged, the first
// chunk's first id dropped, an id appended behind a full last chunk, a
// rename that leaves one chunk for another. A table an edit was derived from
// must read the same afterwards: snapshots share it.
func TestEditIDsModel(t *testing.T) {
	var splits, merges, firstDrops, fullAppends, crossRenames int
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var want []int
		next := 0
		for range 100 + rng.Intn(900) {
			next += 1 + rng.Intn(3)
			want = append(want, next)
		}
		span, frozen := slices.Clone(want), slices.Clone(want)
		list := idList{span: [1][]int{span}}
		shrink := seed%2 == 1 // odd seeds mostly unindex, so chunks run dry and merge
		for step := 0; step < 600 && len(want) > 0; step++ {
			ctx := fmt.Sprintf("seed %d step %d", seed, step)
			before, beforeIDs := list, slices.Clone(want)
			nchunks := len(list.chunks())
			var op deltaOp
			switch r := rng.Intn(10); {
			case r < 3 && !shrink || r < 7 && shrink:
				i := rng.Intn(len(want))
				if rng.Intn(4) == 0 {
					i = 0
				}
				op = deltaOp{kind: opUnindex, id: want[i]}
				want = slices.Delete(want, i, i+1)
				if i == 0 {
					firstDrops++
				}
			case r < 8:
				// The swap-remove move: the largest id takes a free smaller one.
				to := want[0] - 1
				if i := 1 + rng.Intn(len(want)); i < len(want) && want[i]-want[i-1] > 1 {
					to = want[i] - 1
				}
				if to < 0 {
					continue
				}
				op = deltaOp{kind: opRename, id: want[len(want)-1], to: to}
				want = want[:len(want)-1]
				i, _ := slices.BinarySearch(want, to)
				want = slices.Insert(want, i, to)
			default:
				next += 1 + rng.Intn(3)
				op = deltaOp{kind: opAppend, id: next}
				want = append(want, next)
				if cs := list.chunks(); len(cs[len(cs)-1]) == maxChunk {
					fullAppends++
				}
			}
			tab := editIDs(op, list)
			checkChunks(t, ctx, tab, want)
			switch {
			case op.kind == opRename && len(tab) > 1 && !slices.Contains(tab[len(tab)-1], op.to):
				crossRenames++
				fallthrough
			case len(tab) > nchunks && op.kind != opAppend:
				if len(tab) > nchunks {
					splits++
				}
			case len(tab) < nchunks && len(tab) > 0 && op.kind == opUnindex:
				merges++ // or a chunk of one id dropped: both shorten the table
			}
			if got := before.flat(); !slices.Equal(got, beforeIDs) {
				t.Fatalf("%s: the edit changed the list it was derived from", ctx)
			}
			list = idList{table: tab}
			if len(tab) == 0 {
				list = idList{}
			}
		}
		if !slices.Equal(span, frozen) {
			t.Fatalf("seed %d: the frozen span was written", seed)
		}
	}
	if splits == 0 || merges == 0 || firstDrops == 0 || fullAppends == 0 || crossRenames == 0 {
		t.Fatalf("shapes not reached: %d splits, %d merges, %d first-id drops, %d appends behind a full chunk, %d renames across chunks",
			splits, merges, firstDrops, fullAppends, crossRenames)
	}
}
