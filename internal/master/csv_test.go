package master_test

// The chunk-parallel CSV ingest against the serial build: same ids, so the
// same image byte for byte, at every worker count and chunking; and the
// same failure, with nothing after the failing row interned.

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/master"
	"repro/internal/relation"
	"repro/internal/rule"
)

// image returns d's arena image.
func image(t *testing.T, d *master.Data, sigma *rule.Set) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := d.SaveArena(&b, sigma); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestReadCSVIDsInvariant: a HOSP master whose cells hold commas, quotes,
// newlines and \r\n, read by Builder.ReadCSV, saves the image — symbols,
// id rows, index tables, Merkle tree — NewForRules saves from the relation
// relation.ReadCSV reads from the same bytes, at GOMAXPROCS 1, 2 and 4 and
// at block sizes that cut chunks inside quoted multi-line cells.
func TestReadCSVIDsInvariant(t *testing.T) {
	ds, err := datagen.Hosp(datagen.Config{Seed: 2, MasterSize: 3000, Tuples: 1})
	if err != nil {
		t.Fatal(err)
	}
	sigma := ds.Sigma
	rel := relation.NewRelation(sigma.MasterSchema())
	for i, tm := range ds.Master.Relation().All() {
		tm = tm.Clone()
		if i%7 == 3 {
			c := 1 + i%(len(tm)-1)
			tm[c] = relation.String(fmt.Sprintf("%s, \"%d\"\nline\r\nend", tm[c].Str(), i%5))
		}
		rel.MustAppend(tm)
	}
	var csv bytes.Buffer
	if err := rel.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	read, err := relation.ReadCSV(sigma.MasterSchema(), bytes.NewReader(csv.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := image(t, master.MustNewForRules(read, sigma, master.WithAuth()), sigma)
	for _, procs := range []int{1, 2, 4} {
		for _, block := range []int{1, 97, 1000, 64 << 10} {
			t.Run(fmt.Sprintf("procs=%d/block=%d", procs, block), func(t *testing.T) {
				master.PinProcs(t, procs)
				b := master.NewBuilder(sigma, master.WithAuth())
				if err := master.ReadCSVBlocks(b, bytes.NewReader(csv.Bytes()), block); err != nil {
					t.Fatal(err)
				}
				if got := image(t, b.Finish(), sigma); !bytes.Equal(got, want) {
					t.Fatalf("the image of the chunked read (%d bytes) differs from the serial build's (%d bytes)", len(got), len(want))
				}
			})
		}
	}
}

// TestReadCSVFailsLikeReadCSV: a refused last row — a cell that is not an
// integer, a short record — fails the chunked read with relation.ReadCSV's
// error, row and line numbers included, whichever chunk and worker it
// falls to; the rows before it are added and nothing of it or after it is
// interned.
func TestReadCSVFailsLikeReadCSV(t *testing.T) {
	rm := relation.MustSchema("Rm",
		relation.Attribute{Name: "k", Type: relation.TypeString},
		relation.Attribute{Name: "n", Type: relation.TypeInt},
		relation.Attribute{Name: "note", Type: relation.TypeString})
	sigma, err := rule.ParseRuleSet(rm, rm, "rule r1: (k ; k) -> (note ; note)")
	if err != nil {
		t.Fatal(err)
	}
	const rows = 2000
	var good strings.Builder
	good.WriteString("k,n,note\n")
	for i := range rows - 1 {
		fmt.Fprintf(&good, "k%d,%d,\"note\n%d\"\n", i%300, i, i%17)
	}
	before, err := relation.ReadCSV(rm, strings.NewReader(good.String()))
	if err != nil {
		t.Fatal(err)
	}
	wantSyms := master.MustNewForRules(before, sigma).SymbolValues()
	for _, bad := range []string{"fresh,x,after\n", "fresh,1\n", "fresh,1,a\"b\n"} {
		csv := good.String() + bad + "after1,5,after2\n"
		_, wantErr := relation.ReadCSV(rm, strings.NewReader(csv))
		if wantErr == nil {
			t.Fatalf("%q: relation.ReadCSV accepts it", bad)
		}
		for _, procs := range []int{1, 2, 4} {
			for _, block := range []int{5, 300, 64 << 10} {
				master.PinProcs(t, procs)
				b := master.NewBuilder(sigma)
				err := master.ReadCSVBlocks(b, strings.NewReader(csv), block)
				if err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("%q, procs %d, %d-byte blocks: the chunked read fails with %v, relation.ReadCSV with %v", bad, procs, block, err, wantErr)
				}
				d := b.Finish()
				if d.Len() != rows-1 || !slices.Equal(d.SymbolValues(), wantSyms) {
					t.Fatalf("%q, procs %d, %d-byte blocks: %d rows and %d symbols added, want the %d rows and %d symbols before the bad row",
						bad, procs, block, d.Len(), len(d.SymbolValues()), rows-1, len(wantSyms))
				}
			}
		}
	}
	if !strings.Contains(func() string {
		_, err := relation.ReadCSV(rm, strings.NewReader(good.String()+"fresh,x,after\n"))
		return err.Error()
	}(), fmt.Sprintf("row %d column n", rows)) {
		t.Fatal("a bad integer's error does not name its row and column")
	}
}
