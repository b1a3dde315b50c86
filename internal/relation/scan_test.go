package relation_test

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/datagen"
	"repro/internal/relation"
)

// readCSVReference is ReadCSV as it was on encoding/csv: its reader, a
// fresh tuple per row. On an error it also returns the rows it decoded
// before it.
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

// chunkedRead reads input as the parallel boot does, on one goroutine: every
// chunk cut first, each decoded on its own — last first, and those after a
// refused record too, as a worker would — then the rows taken in chunk
// order up to the first error, renumbered past the chunks before.
func chunkedRead(schema *relation.Schema, input string, block int) ([]relation.Tuple, error) {
	cr, err := relation.NewCSVReader(schema, strings.NewReader(input), block)
	if err != nil {
		return nil, err
	}
	var chunks []*relation.CSVChunk
	var readErr error
	for {
		c := new(relation.CSVChunk)
		if err := cr.Next(c); err != nil {
			if err != io.EOF {
				readErr = err
			}
			break
		}
		chunks = append(chunks, c)
	}
	rows, errs := make([][]relation.Tuple, len(chunks)), make([]error, len(chunks))
	for i := len(chunks) - 1; i >= 0; i-- {
		errs[i] = chunks[i].Decode(schema, make(relation.Tuple, schema.Arity()), func(t relation.Tuple) {
			rows[i] = append(rows[i], t.Clone())
		})
	}
	var out []relation.Tuple
	for i := range chunks {
		if errs[i] != nil {
			return append(out, rows[i]...), relation.CSVErrorAfter(errs[i], len(out))
		}
		out = append(out, rows[i]...)
	}
	return out, readErr
}

// sameCSVRead fails unless a read of input at the given block size — chunked,
// and through ReadCSV — accepts, refuses and decodes exactly as the
// reference does, with the same error text.
func sameCSVRead(t *testing.T, name string, schema *relation.Schema, input string, block int) {
	t.Helper()
	want, wantErr := readCSVReference(schema, strings.NewReader(input))
	sameErr := func(err error) bool {
		return (err == nil) == (wantErr == nil) && (err == nil || err.Error() == wantErr.Error())
	}
	got, err := chunkedRead(schema, input, block)
	if !sameErr(err) {
		t.Fatalf("%s, %d-byte blocks: the chunks fail with %v, the reference with %v", name, block, err, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s, %d-byte blocks: the chunks decode %d rows, the reference %d", name, block, len(got), len(want))
	}
	for i, w := range want {
		if !got[i].Equal(w) {
			t.Fatalf("%s, %d-byte blocks, row %d: the chunks decode %v, the reference %v", name, block, i, got[i], w)
		}
	}
	rel, err := relation.ReadCSVBlock(schema, strings.NewReader(input), block)
	if !sameErr(err) {
		t.Fatalf("%s, %d-byte blocks: ReadCSV fails with %v, the reference with %v", name, block, err, wantErr)
	}
	if err != nil {
		if rel != nil {
			t.Fatalf("%s: ReadCSV returned a relation beside its error", name)
		}
		return
	}
	if rel.Len() != len(want) {
		t.Fatalf("%s, %d-byte blocks: ReadCSV read %d rows, the reference %d", name, block, rel.Len(), len(want))
	}
	for i, w := range want {
		if !rel.Tuple(i).Equal(w) {
			t.Fatalf("%s, %d-byte blocks, row %d: ReadCSV %v, the reference %v", name, block, i, rel.Tuple(i), w)
		}
	}
}

// typedSchema is the three-column schema of the hand-written cases.
var typedSchema = relation.MustSchema("T",
	relation.Attribute{Name: "name", Type: relation.TypeString},
	relation.Attribute{Name: "n", Type: relation.TypeInt},
	relation.Attribute{Name: "note", Type: relation.TypeString})

// TestScanCSVEqualsReadCSV: the chunked scan — CSVReader cutting a stream
// into chunks of whole records, each CSVChunk decoded on its own — and
// ReadCSV on top of it decode the rows — and fail with the error text,
// line, column and row — of the encoding/csv reader they replace, on
// generated masters and on the inputs a CSV reader gets wrong: quoted
// cells holding commas, quotes and newlines, \r\n endings, empty lines,
// a header that does not match, a short row, a bad integer, a bare quote,
// an unterminated quote, no final newline. Every case runs at block sizes
// from one byte up, so chunk boundaries fall at every offset: inside
// quoted cells, between a \r and its \n, before and after the header.
func TestScanCSVEqualsReadCSV(t *testing.T) {
	typed := typedSchema
	cases := []struct {
		name   string
		schema *relation.Schema
		csv    string
	}{
		{"quoted", typed, "name,n,note\n\"a,b\",1,\"line one\nline two\"\n\"say \"\"hi\"\"\",-7,\n,,\n"},
		{"crlf", typed, "name,n,note\r\n\"a\r\nb\",1,c\r\n\r\nd,2,\"e\"\"\"\r\n"},
		{"empty lines", typed, "\n\r\n\nname,n,note\n\nx,1,y\n\n\nz,2,w"},
		{"no final newline", typed, "name,n,note\nx,1,y\nz,2,w\r"},
		{"empty relation", typed, "name,n,note\n"},
		{"no header", typed, ""},
		{"empty lines only", typed, "\n\n\r\n"},
		{"header mismatch", typed, "name,m,note\nx,1,y\n"},
		{"short header", typed, "name,n\nx,1,y\n"},
		{"short row", typed, "name,n,note\nx,1,y\nshort,2\nz,3,w\n"},
		{"bad int", typed, "name,n,note\nx,1,y\nz,three,w\n"},
		{"bare quote", typed, "name,n,note\nx,1,y\na\"b,2,c\n"},
		{"quote after a quoted cell", typed, "name,n,note\nx,1,y\n\"a\"b,2,c\n"},
		{"unterminated quote", typed, "name,n,note\nx,1,y\n\"a,2,c\nd,3,e\n"},
		{"multi-line refusal", typed, "name,n,note\n\"a\nb\",1,\"c\nd\"x\n"},
		{"longer than a block", typed, typedCSV(3000, 0, "")},
		{"bad int far in", typed, typedCSV(3000, 2500, "five")},
		{"short row at the end", typed, typedCSV(500, 0, "") + "short,1\n"},
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
		for _, block := range []int{1, 2, 3, 5, 8, 13, 64, 1000, 64 << 10} {
			if len(c.csv) > 20_000 && block < 64 {
				continue
			}
			sameCSVRead(t, c.name, c.schema, c.csv, block)
		}
	}

	// A reader's own error comes back wrapped, after the rows before it.
	broken := errors.New("disk on fire")
	rd := io.MultiReader(strings.NewReader(typedCSV(100, 0, "")), iotest.ErrReader(broken))
	if _, err := relation.ReadCSVBlock(typed, rd, 64); !errors.Is(err, broken) {
		t.Fatalf("a failing reader: ReadCSV returned %v", err)
	}
}

// FuzzCSV holds the chunked decoder to encoding/csv (readCSVReference):
// every input is accepted by both or refused by both with the same text,
// and decodes to the same rows, at a block size the fuzzer picks — so chunk
// boundaries fall at every offset. An accepted relation is written back by
// WriteCSV byte for byte as encoding/csv's Writer writes it.
func FuzzCSV(f *testing.F) {
	for _, s := range []string{
		"\"a,b\",1,\"line one\nline two\"\n\"say \"\"hi\"\"\",-7,\n,,\n",
		"\"a\r\nb\",1,c\r\n\r\nd,2,\"e\"\"\"\r\n",
		"x,1,y\n\n\nz,2,w",
		"x,1,y\nz,2,w\r",
		"x,1,y\nshort,2\nz,3,w\n",
		"x,1,y\na\"b,2,c\n",
		"\"a\"b,2,c\n",
		"\"a,2,c\nd,3,e\n",
		"x,three,y\n",
		" lead,1,\\.\n",
	} {
		f.Add(true, s, uint8(3))
	}
	f.Add(false, "\n\r\nname,n,note\nx,1,y", uint8(1))
	f.Add(false, "name,\"n\nx\",note\n", uint8(2))
	f.Fuzz(func(t *testing.T, header bool, body string, block uint8) {
		input := body
		if header {
			input = "name,n,note\n" + body
		}
		sameCSVRead(t, "fuzz", typedSchema, input, 1+int(block)%64)
		rel, err := relation.ReadCSV(typedSchema, strings.NewReader(input))
		if err != nil {
			return
		}
		var got, want bytes.Buffer
		if err := rel.WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		cw := csv.NewWriter(&want)
		cw.Write(typedSchema.AttrNames())
		for _, tu := range rel.All() {
			rec := make([]string, len(tu))
			for i, v := range tu {
				rec[i] = v.Encode()
			}
			cw.Write(rec)
		}
		cw.Flush()
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("WriteCSV wrote\n%q\nencoding/csv\n%q", got.Bytes(), want.Bytes())
		}
	})
}
