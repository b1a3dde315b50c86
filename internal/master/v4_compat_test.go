package master

// Format 4 is what every -wal-dir checkpoint written before the postings
// layer was deleted holds: an image with a postings section, and a one-column
// index only where a one-column rule asked for one. testdata/pr23_v4_postings/
// is such an image — columns A and B are named by multi-column rules alone, so
// the image carries posting lists for them and no index — written by SaveArena
// RUNNING AT 806fdfb (the last commit that had postings) over v4Fixture after
// v4Deltas, with the probe answers and the (found, scanned) pairs of
// `compatible` that commit served in want.json. It cannot be rewritten from
// this tree: SaveArena writes format 5 only.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/pattern"
	"repro/internal/relation"
	"repro/internal/rule"
)

const v4Dir = "testdata/pr23_v4_postings"

// v4Want is what the writing commit answered on the snapshot it saved.
type v4Want struct {
	Epoch  uint64                  `json:"epoch"`
	Tuples int                     `json:"tuples"`
	Probes map[string]lineageProbe `json:"probes"` // by rule name + probed values
	// Compat maps rule name + probed values to one letter per subset Z of
	// {K, A, B} (bit i of the subset's index = attribute i validated):
	// '-' not found, 'f' found, and 's' / 'F' the same after the Dm scan ran.
	Compat map[string]string `json:"compat"`
}

// v4Fixture is 240 tuples over (K, A, B, V, W): 180 keys, a third held twice;
// A is "a0" on two tuples of three — a list past half of Dm, where the scan
// policy takes over — and one of three values on the rest; B cycles through
// seven.
// Only kv is a one-column rule, so K is the one column with an index of its
// own at the writing commit.
func v4Fixture() (*rule.Set, *relation.Relation) {
	r := relation.StringSchema("R", "K", "A", "B", "V", "W")
	rm := relation.StringSchema("Rm", "K", "A", "B", "V", "W")
	sigma := rule.MustNewSet(r, rm,
		rule.MustNew("kv", r, rm, []int{0}, []int{0}, 3, 3, pattern.Empty()),
		rule.MustNew("abw", r, rm, []int{1, 2}, []int{1, 2}, 4, 4, pattern.Empty()),
		rule.MustNew("kab", r, rm, []int{0, 1, 2}, []int{0, 1, 2}, 3, 3,
			pattern.MustTuple([]int{1}, []pattern.Cell{pattern.Neq(relation.String("a3"))})))
	rel := relation.NewRelation(rm)
	for i := 0; i < 240; i++ {
		rel.MustAppend(v4Tuple(i%180, v4A(i), i%7))
	}
	return sigma, rel
}

func v4A(i int) int {
	if i%3 != 0 {
		return 0
	}
	return 1 + (i/3)%3
}

func v4Tuple(k, a, b int) relation.Tuple {
	return relation.StringTuple(fmt.Sprintf("k%03d", k), fmt.Sprintf("a%d", a), fmt.Sprintf("b%d", b),
		fmt.Sprintf("v%03d", k), fmt.Sprintf("w%d%d", a, b))
}

// v4Delta is the i-th of the deltas behind the image: two deletes and three
// adds — a new key, an old key under another (A, B), and an old key with a
// second V (a bucket of the K index that stops being uniform).
func v4Delta(i, n int) (adds []relation.Tuple, deletes []int) {
	deletes = []int{41 * i % n, (97*i + 3) % n}
	if deletes[0] == deletes[1] {
		deletes = deletes[:1]
	}
	dirty := v4Tuple(5*i, i%4, (i+2)%7)
	dirty[3] = relation.String(fmt.Sprintf("v%03d-bis", 5*i))
	return []relation.Tuple{v4Tuple(180+i, i%4, i%7), v4Tuple(3*i, (i+1)%4, (i+3)%7), dirty}, deletes
}

const v4Deltas = 5

// v4Answers probes d the way want.json records it.
func v4Answers(d *Data, sigma *rule.Set) v4Want {
	w := v4Want{Epoch: d.Epoch(), Tuples: d.Len(), Probes: map[string]lineageProbe{}, Compat: map[string]string{}}
	// Every thirteenth key, the last ones absent, and two keys v4Delta left
	// with a second V.
	keys := []int{5, 10}
	for k := 0; k < 200; k += 13 {
		keys = append(keys, k)
	}
	for _, k := range keys {
		// The (A, B) the fixture pairs k with, one it does not, and a B no
		// master tuple holds.
		for _, ab := range [][2]int{{v4A(k), k % 7}, {(k + 1) % 4, (k + 3) % 7}, {k % 4, 9}} {
			t := v4Tuple(k, ab[0], ab[1])
			for _, ru := range sigma.Rules() {
				key := fmt.Sprintf("%s k%03d a%d b%d", ru.Name(), k, ab[0], ab[1])
				values, witness := d.RHSValuesWitness(ru, t)
				p := lineageProbe{IDs: append([]int(nil), d.MatchIDs(ru, t)...), Witness: witness}
				for _, v := range values {
					p.Values = append(p.Values, v.Str())
				}
				w.Probes[key] = p
				var letters []byte
				for z := 0; z < 8; z++ {
					var pos []int
					for i := 0; i < 3; i++ {
						if z&(1<<i) != 0 {
							pos = append(pos, i)
						}
					}
					found, scanned := d.compatible(ru, t, relation.NewAttrSet(pos...))
					letters = append(letters, "-fsF"[b2i(found)+2*b2i(scanned)])
				}
				w.Compat[key] = string(letters)
			}
		}
	}
	return w
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestLoadsParentPostingsImage: the format-4 image loads, answers every probe
// and every compatibility test — scan policy bit included — as its writer did,
// has grown the one-column indexes its postings used to stand for, stays equal
// to a rebuild through further deltas, and comes back from a format-5 save
// with the same answers.
func TestLoadsParentPostingsImage(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(v4Dir, "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want v4Want
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	sigma, _ := v4Fixture()
	d, err := LoadArena(filepath.Join(v4Dir, "image.arena"), sigma)
	if err != nil {
		t.Fatal(err)
	}
	if got := v4Answers(d, sigma); !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded image answers\n%+v\nits writer answered\n%+v", got, want)
	}
	for _, col := range []int{0, 1, 2} {
		if d.findIndex([]int{col}) == nil {
			t.Fatalf("no one-column index over column %d after loading a format-4 image", col)
		}
	}
	checkEquiv(t, "loaded v4", d, sigma)
	adds, deletes := v4Delta(v4Deltas+1, d.Len())
	next, err := d.ApplyDelta(adds, deletes)
	if err != nil {
		t.Fatal(err)
	}
	checkEquiv(t, "loaded v4 + delta", next, sigma)

	var buf bytes.Buffer
	if err := d.SaveArena(&buf, sigma); err != nil {
		t.Fatal(err)
	}
	again := loadArenaOrFatal(t, buf.Bytes(), sigma)
	if got := v4Answers(again, sigma); !reflect.DeepEqual(got, want) {
		t.Fatalf("format-5 copy answers\n%+v\nthe format-4 writer answered\n%+v", got, want)
	}
}
