package relation

// This file implements the one CSV codec: WriteCSV, and a decoder that cuts
// a stream into chunks of whole records — CSVReader.Next — and decodes any
// chunk on its own — CSVChunk.Decode — so a reader may hand the chunks of
// one file to as many goroutines as it likes (internal/master's boot does)
// and still see every record, value and error encoding/csv would give it:
// what a cell decodes to, which records are refused, and the refusal's text
// with its line, column and row (FuzzCSV holds the two to each other).
//
// A cut must not fall inside a quoted cell, which may hold newlines. A chunk
// starts where a record starts, so an even count of quotes since its start
// puts a newline outside every quoted cell: in CSV encoding/csv accepts,
// quotes open and close a quoted cell or come in "" pairs inside one. Input
// it refuses may make the count lie, but only after the first refused
// record, whose own decode still sees that record whole: a cut before it is
// a true record end, and the first cut after its start lies at or past the
// end of the line the refusal is found on. Nothing after the first error is
// used.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// WriteCSV writes the relation with a header row of attribute names, each
// record as encoding/csv's Writer writes it: a cell is quoted when it holds
// a comma, a quote, \r or \n, starts with a space or is `\.`, and a quote
// inside is doubled.
func (r *Relation) WriteCSV(w io.Writer) error {
	b := appendCSVRecord(nil, r.schema.AttrNames())
	row := make([]string, r.schema.Arity())
	for _, t := range r.All() {
		for i, v := range t {
			row[i] = v.Encode()
		}
		b = appendCSVRecord(b, row)
		if len(b) >= csvBlock {
			if _, err := w.Write(b); err != nil {
				return fmt.Errorf("relation: write csv: %w", err)
			}
			b = b[:0]
		}
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("relation: write csv: %w", err)
	}
	return nil
}

// appendCSVRecord appends one record and its newline.
func appendCSVRecord(b []byte, fields []string) []byte {
	for i, f := range fields {
		if i > 0 {
			b = append(b, ',')
		}
		if !csvNeedsQuotes(f) {
			b = append(b, f...)
			continue
		}
		b = append(b, '"')
		for {
			j := strings.IndexByte(f, '"')
			if j < 0 {
				break
			}
			b = append(append(b, f[:j+1]...), '"')
			f = f[j+1:]
		}
		b = append(append(b, f...), '"')
	}
	return append(b, '\n')
}

// csvNeedsQuotes is encoding/csv's Writer.fieldNeedsQuotes for a comma.
func csvNeedsQuotes(f string) bool {
	if f == "" {
		return false
	}
	if f == `\.` || strings.ContainsAny(f, ",\"\r\n") {
		return true
	}
	r, _ := utf8.DecodeRuneInString(f)
	return unicode.IsSpace(r)
}

// ReadCSV reads a relation in the format produced by WriteCSV. The header
// must list exactly the schema's attributes in schema order.
func ReadCSV(schema *Schema, rd io.Reader) (*Relation, error) {
	return readCSV(schema, rd, csvBlock)
}

func readCSV(schema *Schema, rd io.Reader, block int) (*Relation, error) {
	cr, err := NewCSVReader(schema, rd, block)
	if err != nil {
		return nil, err
	}
	rel := NewRelation(schema)
	var c CSVChunk
	t := make(Tuple, schema.Arity())
	for {
		if err := cr.Next(&c); err == io.EOF {
			return rel, nil
		} else if err != nil {
			return nil, err
		}
		before := rel.Len()
		if err := c.Decode(schema, t, func(t Tuple) {
			rel.tuples = append(rel.tuples, ownedRow(t))
		}); err != nil {
			return nil, CSVErrorAfter(err, before)
		}
	}
}

// ownedRow returns a copy of t whose strings are one string of its own, as
// encoding/csv allocates a record.
func ownedRow(t Tuple) Tuple {
	n := 0
	for _, v := range t {
		n += len(v.str)
	}
	var sb strings.Builder
	sb.Grow(n)
	for _, v := range t {
		sb.WriteString(v.str)
	}
	s, row := sb.String(), t.Clone()
	for i := range row {
		if v := &row[i]; v.kind == KindString {
			v.str, s = s[:len(v.str)], s[len(v.str):]
		}
	}
	return row
}

// csvBlock is the size of the blocks a CSV stream is read in, and so of a
// chunk, unless one record is longer.
const csvBlock = 64 << 10

// CSVReader cuts a CSV stream in ReadCSV's format into chunks of whole
// records. NewCSVReader has read and checked the header; each Next reads
// one block, cuts it after its last whole record and carries the rest to
// the next chunk.
type CSVReader struct {
	rd    io.Reader
	block int
	carry []byte // read past the last cut: the next chunk's first bytes
	line  int    // lines before the next chunk
	err   error  // what ended the reads: io.EOF, or the reader's error
}

// CSVChunk is a run of whole records cut from a stream, in a buffer of its
// own that Next into the same chunk reuses.
type CSVChunk struct {
	buf  []byte // the chunk is buf[:n]; Next reads past n
	n    int
	line int // lines of the stream before the chunk
}

// NewCSVReader reads rd's header and checks it against the schema: exactly
// the schema's attributes, in order. block is the size of the blocks rd is
// read in (ReadCSV's is 64 KiB); a chunk is at most a block long unless one
// record is.
func NewCSVReader(schema *Schema, rd io.Reader, block int) (*CSVReader, error) {
	r := &CSVReader{rd: rd, block: max(block, 1)}
	header, err := r.header(schema.Arity())
	if err != nil {
		return nil, err
	}
	for i, want := range schema.AttrNames() {
		if header[i] != want {
			return nil, fmt.Errorf("relation: csv header mismatch at column %d: got %q, want %q", i, header[i], want)
		}
	}
	return r, nil
}

// ReadCSVHeader reads the first record of a CSV stream, whatever its
// width: the attribute names of a file whose schema is not known yet.
func ReadCSVHeader(rd io.Reader) ([]string, error) {
	return (&CSVReader{rd: rd, block: 4 << 10}).header(0)
}

// header reads the first record, with arity fields unless arity is 0, and
// puts what follows it back in front of the next chunk.
func (r *CSVReader) header(arity int) ([]string, error) {
	var c CSVChunk
	for {
		if err := r.Next(&c); err != nil {
			return nil, fmt.Errorf("relation: read csv header: %w", err)
		}
		p := csvParser{b: c.buf[:c.n], line: c.line}
		ok, err := p.record(arity)
		if err != nil {
			return nil, fmt.Errorf("relation: read csv header: %w", err)
		}
		if !ok {
			continue // empty lines only
		}
		fields := make([]string, len(p.fields)/2)
		for i := range fields {
			fields[i] = string(p.b[p.fields[2*i]:p.fields[2*i+1]])
		}
		r.carry = append(c.buf[p.i:c.n:c.n], r.carry...)
		r.line = p.line
		return fields, nil
	}
}

// Next fills c with the next chunk: the bytes carried from the last one,
// then a block read from the stream, up to the end of its last whole record
// — or all of them at the end of the input. A record longer than the
// block grows the buffer until it ends. Next returns io.EOF once the input
// is used up; the reader's own error, wrapped, once the records before it
// have been handed out (a record it cut short is lost).
func (r *CSVReader) Next(c *CSVChunk) error {
	if len(r.carry) == 0 && r.err != nil {
		if r.err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("relation: read csv: %w", r.err)
	}
	buf := append(c.buf[:0], r.carry...)
	if cap(buf) < r.block {
		buf = append(make([]byte, 0, r.block), buf...)
	}
	cut := 0
	for {
		for len(buf) < cap(buf) && r.err == nil {
			n, err := r.rd.Read(buf[len(buf):cap(buf)])
			buf = buf[:len(buf)+n]
			r.err = err
		}
		if r.err == io.EOF {
			cut = len(buf)
			break
		}
		if cut = lastRecordEnd(buf); cut > 0 || r.err != nil {
			break
		}
		buf = append(buf, 0)[:len(buf)] // no record ends in the buffer: grow it
	}
	if r.err != nil && r.err != io.EOF {
		// Hand out the whole records; the rest was cut short by the error.
		r.carry = r.carry[:0]
	} else {
		r.carry = append(r.carry[:0], buf[cut:]...)
	}
	if cut == 0 {
		return r.Next(c)
	}
	c.buf, c.n, c.line = buf, cut, r.line
	r.line += bytes.Count(buf[:cut], []byte{'\n'})
	return nil
}

// lastRecordEnd returns the offset just past the last newline of b that
// an even number of quotes precedes, b starting where a record starts; 0
// when no newline does.
func lastRecordEnd(b []byte) int {
	quotes := bytes.Count(b, []byte{'"'})
	for end := len(b); ; {
		i := bytes.LastIndexByte(b[:end], '\n')
		if i < 0 {
			return 0
		}
		quotes -= bytes.Count(b[i:end], []byte{'"'})
		if quotes%2 == 0 {
			return i + 1
		}
		end = i
	}
}

// Decode decodes the chunk's records in order, each into t, and hands t
// to yield. Its string cells alias the chunk's buffer, which Decode rewrote
// in place (quotes unescaped, \r\n ending a line as \n): they are valid
// until the next Next into the chunk, and a holder that outlives that
// clones them. Decode stops at the first record encoding/csv would refuse
// or whose cell does not decode as its column's type; the latter's row
// counts the chunk's records from 1, and CSVErrorAfter moves it past the
// records of the chunks before.
func (c *CSVChunk) Decode(schema *Schema, t Tuple, yield func(Tuple)) error {
	p := csvParser{b: c.buf[:c.n], line: c.line}
	for row := 1; ; row++ {
		ok, err := p.record(len(t))
		if err != nil {
			return fmt.Errorf("relation: read csv row: %w", err)
		}
		if !ok {
			return nil
		}
		for i := range t {
			cell := unsafeString(p.b[p.fields[2*i]:p.fields[2*i+1]])
			if t[i], err = DecodeValue(cell, schema.attrs[i].Type); err != nil {
				return &csvCellError{row: row, attr: schema.attrs[i].Name, err: err}
			}
		}
		yield(t)
	}
}

// CSVErrorAfter returns err, what a chunk's Decode returned, as an error of
// the stream: a cell's row counted past the rows records before the chunk.
func CSVErrorAfter(err error, rows int) error {
	var ce *csvCellError
	if errors.As(err, &ce) {
		moved := *ce
		moved.row += rows
		return &moved
	}
	return err
}

// csvCellError is a cell that does not decode as its column's type.
type csvCellError struct {
	row  int
	attr string
	err  error
}

func (e *csvCellError) Error() string {
	return fmt.Sprintf("relation: row %d column %s: %v", e.row, e.attr, e.err)
}

func (e *csvCellError) Unwrap() error { return e.err }

// unsafeString views b as a string without copying.
func unsafeString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// The refusals of encoding/csv, with its texts.
var (
	errBareQuote  = errors.New("bare \" in non-quoted-field")
	errQuote      = errors.New("extraneous or missing \" in quoted-field")
	errFieldCount = errors.New("wrong number of fields")
)

// csvParseError is encoding/csv's ParseError: the record's first line, the
// line and byte column the refusal was found at, and the refusal.
type csvParseError struct {
	start, line, col int
	err              error
}

func (e *csvParseError) Error() string {
	if e.err == errFieldCount {
		return fmt.Sprintf("record on line %d: %v", e.line, e.err)
	}
	if e.start != e.line {
		return fmt.Sprintf("record on line %d; parse error on line %d, column %d: %v", e.start, e.line, e.col, e.err)
	}
	return fmt.Sprintf("parse error on line %d, column %d: %v", e.line, e.col, e.err)
}

func (e *csvParseError) Unwrap() error { return e.err }

// csvParser is encoding/csv's record reader over one chunk, with a comma
// as separator, no comments, strict quotes and no space trimming. The end
// of the chunk is its end of input.
type csvParser struct {
	b      []byte
	i      int   // read offset
	line   int   // lines read, counting the stream's before the chunk
	fields []int // the last record's cells: start and end offsets into b
}

// readLine returns the bounds of the next line, its newline included, as
// encoding/csv's readLine does: a \r\n ending is rewritten in place to \n,
// and a \r ending the input is dropped. ok is false when no byte is left.
func (p *csvParser) readLine() (start, end int, ok bool) {
	if p.i == len(p.b) {
		return 0, 0, false
	}
	start = p.i
	if j := bytes.IndexByte(p.b[start:], '\n'); j >= 0 {
		end = start + j + 1
		p.i = end
		if end-start >= 2 && p.b[end-2] == '\r' {
			p.b[end-2] = '\n'
			end--
		}
	} else {
		end = len(p.b)
		p.i = end
		if p.b[end-1] == '\r' {
			end--
		}
	}
	p.line++
	return start, end, true
}

// record parses the next record into p.fields, skipping empty lines; ok is
// false at the end of the chunk. A record of other than arity cells is
// refused, unless arity is 0. A quoted cell is unescaped in place, over its
// own bytes, so every cell is a span of b.
func (p *csvParser) record(arity int) (ok bool, err error) {
	var i, end int // the unread part of the current line
	for {
		start, e, more := p.readLine()
		if !more {
			return false, nil
		}
		if e-start != newlineLen(p.b[start:e]) {
			i, end = start, e
			break
		}
	}
	recLine := p.line
	line, col := recLine, 1 // where b[i] is
	quote := -1             // the first quote of b[i:end] once i passes it
	p.fields = p.fields[:0]
parse:
	for {
		if i == end || p.b[i] != '"' {
			if quote < i { // the line's next quote, end if none
				quote = end
				if q := bytes.IndexByte(p.b[i:end], '"'); q >= 0 {
					quote = i + q
				}
			}
			fieldEnd := end - newlineLen(p.b[i:end])
			comma := bytes.IndexByte(p.b[i:fieldEnd], ',')
			if comma >= 0 {
				fieldEnd = i + comma
			}
			if quote < fieldEnd {
				return true, &csvParseError{start: recLine, line: p.line, col: col + quote - i, err: errBareQuote}
			}
			p.fields = append(p.fields, i, fieldEnd)
			if comma < 0 {
				break parse
			}
			i += comma + 1
			col += comma + 1
			continue parse
		}
		// A quoted cell: its content is written back from w on.
		i++
		col++
		fieldStart, w := i, i
		for {
			if q := bytes.IndexByte(p.b[i:end], '"'); q >= 0 {
				if w != i {
					copy(p.b[w:], p.b[i:i+q])
				}
				w += q
				i += q + 1
				col += q + 1
				switch {
				case i < end && p.b[i] == '"':
					p.b[w] = '"'
					w++
					i++
					col++
				case i < end && p.b[i] == ',':
					i++
					col++
					p.fields = append(p.fields, fieldStart, w)
					continue parse
				case newlineLen(p.b[i:end]) == end-i:
					p.fields = append(p.fields, fieldStart, w)
					break parse
				default:
					return true, &csvParseError{start: recLine, line: p.line, col: col - 1, err: errQuote}
				}
			} else if i < end {
				// The cell goes on past the line.
				if w != i {
					copy(p.b[w:], p.b[i:end])
				}
				w += end - i
				col += end - i
				i = end
				if start, e, more := p.readLine(); more {
					if e > start {
						line++
						col = 1
					}
					i, end, quote = start, e, -1
				}
			} else {
				return true, &csvParseError{start: recLine, line: line, col: col, err: errQuote}
			}
		}
	}
	if arity > 0 && len(p.fields) != 2*arity {
		return true, &csvParseError{start: recLine, line: recLine, col: 1, err: errFieldCount}
	}
	return true, nil
}

// newlineLen is 1 when b ends with a newline, else 0.
func newlineLen(b []byte) int {
	if len(b) > 0 && b[len(b)-1] == '\n' {
		return 1
	}
	return 0
}
