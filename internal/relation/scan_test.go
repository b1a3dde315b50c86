package relation_test

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/relation"
)

// readCSVReference is ReadCSV as it was before it became a collect over
// ScanCSV: its own reader, a fresh tuple per row. On an error it also
// returns the rows it decoded before it.
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
			return out, fmt.Errorf("relation: read csv row: %w", err)
		}
		t := make(relation.Tuple, schema.Arity())
		for i, cell := range rec {
			v, err := relation.DecodeValue(cell, schema.Attr(i).Type)
			if err != nil {
				return out, fmt.Errorf("relation: row %d column %s: %w", len(out)+1, schema.Attr(i).Name, err)
			}
			t[i] = v
		}
		out = append(out, t)
	}
}

// typedCSV is n rows over the typed schema, the n column counting them from
// 1, with cell replacing row bad's n when bad > 0.
func typedCSV(n, bad int, cell string) string {
	var b strings.Builder
	b.WriteString("name,n,note\n")
	for i := 1; i <= n; i++ {
		num := fmt.Sprint(i)
		if i == bad {
			num = cell
		}
		fmt.Fprintf(&b, "r%d,%s,\"note %d\"\n", i, num, i)
	}
	return b.String()
}

// TestScanCSVEqualsReadCSV: ScanCSV, and ReadCSV on top of it, decode the
// rows — and fail with the error text, row and column — of the reader they
// replace, on generated masters and on the inputs a CSV reader gets wrong:
// quoted cells holding commas, quotes and newlines, empty cells, a header
// that does not match, a short row, a bad integer. A failing scan yields
// exactly the rows before the bad one, wherever in ScanCSV's ring of
// decoded batches it falls, and an input longer than the ring streams
// through it in order.
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
		{"longer than the ring", typed, typedCSV(3*relation.ScanRingRows+7, 0, "")},
		{"bad int past the ring", typed, typedCSV(3*relation.ScanRingRows, relation.ScanRingRows+5, "five")},
		{"bad int ending a batch", typed, typedCSV(relation.ScanRingRows, relation.ScanRingRows, "x")},
		{"short row past the ring", typed, typedCSV(2*relation.ScanRingRows, 0, "") + "short,1\n"},
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
		if len(scanned) != len(want) {
			t.Fatalf("%s: ScanCSV yielded %d rows, the reference decoded %d", c.name, len(scanned), len(want))
		}
		for i, w := range want {
			if !scanned[i].Equal(w) {
				t.Fatalf("%s row %d: ScanCSV %v, the reference %v", c.name, i, scanned[i], w)
			}
		}
		if wantErr != nil {
			if rel != nil {
				t.Fatalf("%s: ReadCSV returned a relation beside its error", c.name)
			}
			continue
		}
		if rel.Len() != len(want) {
			t.Fatalf("%s: ReadCSV read %d rows, the reference %d", c.name, rel.Len(), len(want))
		}
		for i, w := range want {
			if !rel.Tuple(i).Equal(w) {
				t.Fatalf("%s row %d: ReadCSV %v, the reference %v", c.name, i, rel.Tuple(i), w)
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

	// It also stops the decoder: however long the input, the scan reads
	// little past the failing row, and nothing once it has returned. The
	// reader is slow, so yield fails while the decoder is mid-read.
	long := typedCSV(100*relation.ScanRingRows, 0, "")
	for _, at := range []int{1, relation.ScanRingRows + 3} {
		rd := &watchedReader{r: strings.NewReader(long)}
		rows = 0
		err := relation.ScanCSV(typed, rd, func(row relation.Tuple) error {
			rows++
			if n := row[1].Int64(); n != int64(rows) {
				t.Fatalf("row %d yielded as row %d", n, rows)
			}
			if rows == at {
				return stop
			}
			return nil
		})
		rd.mu.Lock()
		rd.returned = true
		read := rd.n
		rd.mu.Unlock()
		if err != stop || rows != at {
			t.Fatalf("ScanCSV returned %v after %d rows, want yield's error after %d", err, rows, at)
		}
		if read > len(long)/10 {
			t.Fatalf("yield stopped the scan at row %d, but it read %d of %d bytes", at, read, len(long))
		}
	}
}

// watchedReader hands out at most 64 bytes a Read, slowly, counts them,
// and fails a Read that comes after the scan over it has returned.
type watchedReader struct {
	r        io.Reader
	mu       sync.Mutex
	n        int
	returned bool
}

func (w *watchedReader) Read(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.returned {
		panic("read after ScanCSV returned")
	}
	time.Sleep(10 * time.Microsecond)
	n, err := w.r.Read(p[:min(len(p), 64)])
	w.n += n
	return n, err
}
