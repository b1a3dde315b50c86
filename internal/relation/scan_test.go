package relation_test

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/relation"
)

// readCSVReference is ReadCSV as it was before it became a collect over
// ScanCSV: its own reader, a fresh tuple per row.
func readCSVReference(schema *relation.Schema, rd io.Reader) ([]relation.Tuple, error) {
	cr := csv.NewReader(rd)
	cr.FieldsPerRecord = schema.Arity()
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: read csv header: %w", err)
	}
	want := schema.AttrNames()
	for i := range want {
		if header[i] != want[i] {
			return nil, fmt.Errorf("relation: csv header mismatch at column %d: got %q, want %q", i, header[i], want[i])
		}
	}
	var out []relation.Tuple
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("relation: read csv row: %w", err)
		}
		t := make(relation.Tuple, schema.Arity())
		for i, cell := range rec {
			v, err := relation.DecodeValue(cell, schema.Attr(i).Type)
			if err != nil {
				return nil, fmt.Errorf("relation: row %d column %s: %w", len(out)+1, schema.Attr(i).Name, err)
			}
			t[i] = v
		}
		out = append(out, t)
	}
}

// TestScanCSVEqualsReadCSV: ScanCSV, and ReadCSV on top of it, decode the
// rows — and fail with the error text, row and column — of the reader they
// replace, on generated masters and on the inputs a CSV reader gets wrong:
// quoted cells holding commas, quotes and newlines, empty cells, a header
// that does not match, a short row, a bad integer.
func TestScanCSVEqualsReadCSV(t *testing.T) {
	typed := relation.MustSchema("T",
		relation.Attribute{Name: "name", Type: relation.TypeString},
		relation.Attribute{Name: "n", Type: relation.TypeInt},
		relation.Attribute{Name: "note", Type: relation.TypeString})
	cases := []struct {
		name   string
		schema *relation.Schema
		csv    string
	}{
		{"quoted", typed, "name,n,note\n\"a,b\",1,\"line one\nline two\"\n\"say \"\"hi\"\"\",-7,\n,,\n"},
		{"empty relation", typed, "name,n,note\n"},
		{"no header", typed, ""},
		{"header mismatch", typed, "name,m,note\nx,1,y\n"},
		{"short row", typed, "name,n,note\nx,1,y\nshort,2\nz,3,w\n"},
		{"bad int", typed, "name,n,note\nx,1,y\nz,three,w\n"},
		{"bare quote", typed, "name,n,note\nx,1,y\na\"b,2,c\n"},
	}
	for _, gen := range []struct {
		name string
		make func(datagen.Config) (*datagen.Dataset, error)
	}{{"hosp", datagen.Hosp}, {"dblp", datagen.Dblp}} {
		ds, err := gen.make(datagen.Config{Seed: 3, MasterSize: 400, Tuples: 1})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ds.Master.Relation().WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		cases = append(cases, struct {
			name   string
			schema *relation.Schema
			csv    string
		}{gen.name, ds.Master.Schema(), buf.String()})
	}
	for _, c := range cases {
		want, wantErr := readCSVReference(c.schema, strings.NewReader(c.csv))

		var scanned []relation.Tuple
		scanErr := relation.ScanCSV(c.schema, strings.NewReader(c.csv), func(row relation.Tuple) error {
			scanned = append(scanned, row.Clone())
			return nil
		})
		rel, readErr := relation.ReadCSV(c.schema, strings.NewReader(c.csv))
		for name, err := range map[string]error{"ScanCSV": scanErr, "ReadCSV": readErr} {
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("%s: %s fails with %v, the reference with %v", c.name, name, err, wantErr)
			}
		}
		if wantErr != nil {
			if rel != nil {
				t.Fatalf("%s: ReadCSV returned a relation beside its error", c.name)
			}
			continue
		}
		if len(scanned) != len(want) || rel.Len() != len(want) {
			t.Fatalf("%s: ScanCSV yielded %d rows, ReadCSV %d, the reference %d", c.name, len(scanned), rel.Len(), len(want))
		}
		for i, w := range want {
			if !scanned[i].Equal(w) || !rel.Tuple(i).Equal(w) {
				t.Fatalf("%s row %d: ScanCSV %v, ReadCSV %v, the reference %v", c.name, i, scanned[i], rel.Tuple(i), w)
			}
		}
	}

	// yield's error ends the scan and comes back as it is.
	stop := fmt.Errorf("stop")
	rows := 0
	err := relation.ScanCSV(typed, strings.NewReader("name,n,note\na,1,b\nc,2,d\n"), func(relation.Tuple) error {
		rows++
		return stop
	})
	if err != stop || rows != 1 {
		t.Fatalf("ScanCSV returned %v after %d rows, want yield's error after 1", err, rows)
	}
}
