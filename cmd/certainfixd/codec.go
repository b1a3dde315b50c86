package main

// The request codec. The five POST bodies are decoded by hand, and session
// replies and error bodies are appended straight into the pooled reply
// buffer, so encoding/json stays off the request path (it still renders
// /healthz, /v1/schema and /v1/root).
//
// Each decoder accepts exactly the bodies encoding/json accepts into the
// request's reference struct — one JSON value per body read by a Decoder
// with DisallowUnknownFields, nothing but whitespace after it — and
// decodes them to equal values (FuzzRequestJSON holds it to that). So:
//
//   - the body is null (every field absent) or an object; an unknown key,
//     a value of the wrong type, and bytes after the value are errors;
//   - keys match field names as encoding/json matches them: exactly, or
//     under Unicode simple case folding ("TOKEN", and "ſ"/"K" for s/k);
//   - a repeated key overwrites: the last one wins;
//   - null leaves a bool as it was and makes a slice nil; in an array of
//     positions it leaves the element as it was — zero, unless an earlier
//     occurrence of the key put a position there;
//   - a value is null, a string or a base-10 integer that fits int64 (no
//     fraction, no exponent);
//   - strings are unescaped as encoding/json unescapes them: a lone
//     surrogate and each byte of invalid UTF-8 read as U+FFFD.
//
// The token is a base64 string, padded or not (replies send it unpadded).

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/pkg/certainfix"
)

// maxBody bounds a request body; a longer one is 413 body_too_large.
const maxBody = 1 << 20

// beginRequest is the body of POST /v1/begin.
type beginRequest struct {
	tuple certainfix.Tuple
}

// tokenRequest is the body of POST /v1/suggest and /v1/result.
type tokenRequest struct {
	token []byte
	// rebase accepts re-pinning the current master head when the token's
	// original epoch has been evicted (see certainfix.RebaseToHead).
	rebase bool
}

// answerRequest is the body of POST /v1/answer.
type answerRequest struct {
	tokenRequest
	// attrs/values are the asserted positions and their values, aligned.
	// attrs may differ from the last suggestion; empty attrs aborts the
	// session (§5: the users declined).
	attrs  []int
	values []certainfix.Value
}

// updateMasterRequest is the body of POST /v1/update-master.
type updateMasterRequest struct {
	adds    []certainfix.Tuple
	deletes []int
}

// request is a body the codec decodes.
type request interface {
	decode(body []byte) error
}

func (r *beginRequest) decode(body []byte) error {
	d := jsonReader{b: body}
	for d.member() {
		if keyIs(d.key, "tuple") {
			r.tuple = d.values()
		} else {
			d.unknown()
		}
	}
	return d.end()
}

func (r *tokenRequest) decode(body []byte) error {
	d := jsonReader{b: body}
	for d.member() {
		r.field(&d)
	}
	return d.end()
}

// field reads the member at d's key: a field of a token request, or an
// unknown one.
func (r *tokenRequest) field(d *jsonReader) {
	switch {
	case keyIs(d.key, "token"):
		r.token = d.token()
	case keyIs(d.key, "rebase"):
		d.boolean(&r.rebase)
	default:
		d.unknown()
	}
}

func (r *answerRequest) decode(body []byte) error {
	d := jsonReader{b: body}
	for d.member() {
		switch {
		case keyIs(d.key, "attrs"):
			r.attrs = d.positions(r.attrs)
		case keyIs(d.key, "values"):
			r.values = d.values()
		default:
			r.tokenRequest.field(&d)
		}
	}
	return d.end()
}

func (r *updateMasterRequest) decode(body []byte) error {
	d := jsonReader{b: body}
	for d.member() {
		switch {
		case keyIs(d.key, "adds"):
			r.adds = d.tuples()
		case keyIs(d.key, "deletes"):
			r.deletes = d.positions(r.deletes)
		default:
			d.unknown()
		}
	}
	return d.end()
}

// readRequest reads the body, at most maxBody bytes, and decodes it into
// req. On failure it replies 413 body_too_large or 400 bad_request and
// reports false.
func readRequest(w http.ResponseWriter, r *http.Request, req request) bool {
	buf := buffers.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody))
	if err == nil {
		err = req.decode(buf.Bytes())
	}
	putBuffer(buf) // decoded values copy what they keep
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeErrorBody(w, http.StatusRequestEntityTooLarge, err, "body_too_large")
	} else {
		writeErrorBody(w, http.StatusBadRequest, err, "bad_request")
	}
	return false
}

// jsonReader reads JSON from b. The first failure sticks: it moves the
// cursor to the end, so every later read fails too.
type jsonReader struct {
	b   []byte
	i   int
	err error
	// inObject is set once the body's opening '{' is read; key is the key
	// of the member whose value comes next.
	inObject bool
	key      []byte
	// scratch holds the last string that needed unescaping.
	scratch []byte
}

func (d *jsonReader) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("request body: offset %d: %s", d.i, fmt.Sprintf(format, args...))
	}
	d.i = len(d.b)
}

func (d *jsonReader) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// consume reads byte c if it comes next.
func (d *jsonReader) consume(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// literal reads lit (null, true or false) if it comes next.
func (d *jsonReader) literal(lit string) bool {
	if len(d.b)-d.i >= len(lit) && string(d.b[d.i:d.i+len(lit)]) == lit {
		d.i += len(lit)
		return true
	}
	return false
}

// member steps through the body, one JSON value: null, or an object. It
// reads the opening '{' or the ',' after the member before, then a key
// and its ':', leaves the key in d.key for the caller to read the value,
// and reports true; it reports false at the end of the object, for null,
// and on failure.
func (d *jsonReader) member() bool {
	d.space()
	switch {
	case d.err != nil:
		return false
	case !d.inObject:
		if d.literal("null") {
			return false
		}
		if !d.consume('{') {
			d.fail("want an object")
			return false
		}
		d.inObject = true
		d.space()
		if d.consume('}') {
			return false
		}
	case d.consume('}'):
		return false
	case !d.consume(','):
		d.fail("want ',' or '}' in an object")
		return false
	default:
		d.space()
	}
	d.key = d.str()
	d.space()
	if !d.consume(':') {
		d.fail("want ':' after an object key")
	}
	d.space()
	return d.err == nil
}

// unknown fails on the member at d.key: no field of the request.
func (d *jsonReader) unknown() {
	d.fail("unknown field %q", d.key)
}

// end checks that nothing but whitespace follows the body's value and
// returns the first failure.
func (d *jsonReader) end() error {
	d.space()
	if d.err == nil && d.i < len(d.b) {
		d.fail("data after the JSON value")
	}
	return d.err
}

// more steps through an array: before element i it reads '[' (i == 0)
// or ',' and reports true, or reads the closing ']' and reports false.
func (d *jsonReader) more(i int) bool {
	d.space()
	if i == 0 {
		if !d.consume('[') {
			d.fail("want an array")
			return false
		}
		d.space()
		return !d.consume(']')
	}
	if d.consume(',') {
		d.space()
		return true
	}
	if !d.consume(']') {
		d.fail("want ',' or ']' in an array")
	}
	return false
}

// keyIs reports whether the object key names the field name (lower-case
// ASCII) the way encoding/json matches them: rune by rune under Unicode
// simple case folding.
func keyIs(key []byte, name string) bool {
	i := 0
	for _, r := range string(key) {
		if i == len(name) {
			return false
		}
		c := rune(name[i])
		if r != c && foldRune(r) != foldRune(c) {
			return false
		}
		i++
	}
	return i == len(name)
}

// foldRune is the smallest rune of r's simple case-folding orbit, the
// key encoding/json folds field names to.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// str reads a string and returns its unescaped bytes, which alias the
// body or d's scratch: they live until the next str.
func (d *jsonReader) str() []byte {
	if !d.consume('"') {
		d.fail("want a string")
		return nil
	}
	start := d.i
	for d.i < len(d.b) {
		c := d.b[d.i]
		if c == '"' {
			d.i++
			return d.b[start : d.i-1]
		}
		if c == '\\' || c < ' ' {
			break
		}
		if c < utf8.RuneSelf {
			d.i++
			continue
		}
		r, n := utf8.DecodeRune(d.b[d.i:])
		if r == utf8.RuneError && n == 1 {
			break
		}
		d.i += n
	}
	out := append(d.scratch[:0], d.b[start:d.i]...)
	for d.i < len(d.b) {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			d.scratch = out
			return out
		case c < ' ':
			d.fail("control character in a string")
			return nil
		case c == '\\':
			if out = d.escape(out); d.err != nil {
				return nil
			}
		case c < utf8.RuneSelf:
			out = append(out, c)
			d.i++
		default:
			// Invalid UTF-8 reads as U+FFFD, one per byte.
			r, n := utf8.DecodeRune(d.b[d.i:])
			out = utf8.AppendRune(out, r)
			d.i += n
		}
	}
	d.fail("unterminated string")
	return nil
}

// escape reads the escape sequence at the cursor and appends what it
// stands for to out. A \u escape of a high surrogate followed by one of a
// low surrogate is one rune; any other surrogate reads as U+FFFD.
func (d *jsonReader) escape(out []byte) []byte {
	if d.i+1 >= len(d.b) {
		d.fail("unterminated escape")
		return out
	}
	c := d.b[d.i+1]
	switch c {
	case '"', '\\', '/':
	case 'b':
		c = '\b'
	case 'f':
		c = '\f'
	case 'n':
		c = '\n'
	case 'r':
		c = '\r'
	case 't':
		c = '\t'
	case 'u':
		r := d.u4(d.i)
		if r < 0 {
			d.fail("invalid \\u escape")
			return out
		}
		d.i += 6
		if utf16.IsSurrogate(r) {
			if pair := utf16.DecodeRune(r, d.u4(d.i)); pair != unicode.ReplacementChar {
				r = pair
				d.i += 6
			} else {
				r = unicode.ReplacementChar
			}
		}
		return utf8.AppendRune(out, r)
	default:
		d.fail("invalid escape")
		return out
	}
	d.i += 2
	return append(out, c)
}

// u4 decodes the \uXXXX escape at offset i, or returns -1 when there is
// none.
func (d *jsonReader) u4(i int) rune {
	if i+6 > len(d.b) || d.b[i] != '\\' || d.b[i+1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range d.b[i+2 : i+6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// integer reads a JSON number that is a base-10 integer within int64.
func (d *jsonReader) integer() int64 {
	neg := d.consume('-')
	start := d.i
	var u uint64
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		digit := uint64(d.b[d.i] - '0')
		if u > (math.MaxUint64-digit)/10 {
			d.fail("integer out of range")
			return 0
		}
		u = u*10 + digit
		d.i++
	}
	switch {
	case d.i == start:
		d.fail("want null, a string or an integer")
		return 0
	case d.b[start] == '0' && d.i > start+1:
		d.fail("leading zero in a number")
		return 0
	case d.i < len(d.b) && (d.b[d.i] == '.' || d.b[d.i] == 'e' || d.b[d.i] == 'E'):
		d.fail("want an integer, not a fraction or an exponent")
		return 0
	case neg && u == 1<<63:
		return math.MinInt64
	case neg && u < 1<<63:
		return -int64(u)
	case !neg && u < 1<<63:
		return int64(u)
	}
	d.fail("integer out of range")
	return 0
}

// value reads a cell: null, a string or an integer.
func (d *jsonReader) value() certainfix.Value {
	switch {
	case d.literal("null"):
		return certainfix.Null
	case d.i < len(d.b) && d.b[d.i] == '"':
		return certainfix.String(string(d.str()))
	default:
		return certainfix.Int(d.integer())
	}
}

// values reads an array of cells, nil for null.
func (d *jsonReader) values() []certainfix.Value {
	if d.literal("null") {
		return nil
	}
	vs := make([]certainfix.Value, 0, 32) // on the stack for any tuple of ≤ 32 cells
	for i := 0; d.more(i); i++ {
		vs = append(vs, d.value())
	}
	return append([]certainfix.Value{}, vs...)
}

// tuples reads an array of tuples, each null or an array of cells; nil
// for null.
func (d *jsonReader) tuples() []certainfix.Tuple {
	if d.literal("null") {
		return nil
	}
	ts := []certainfix.Tuple{}
	for i := 0; d.more(i); i++ {
		ts = append(ts, d.values())
	}
	return ts
}

// positions reads an array of integers the way encoding/json decodes
// into a slice it already holds (a repeated key): into ps's storage,
// element by element, a null element left as it was, truncated to the
// array's length. null is nil and [] a new empty slice.
func (d *jsonReader) positions(ps []int) []int {
	if d.literal("null") {
		return nil
	}
	if cap(ps) > 0 {
		return d.positionsInto(ps)
	}
	var tmp [32]int // on the stack for lists of ≤ 32 positions
	return append([]int{}, d.positionsInto(tmp[:0])...)
}

func (d *jsonReader) positionsInto(ps []int) []int {
	n := 0
	for ; d.more(n); n++ {
		if n < cap(ps) {
			ps = ps[:n+1]
		} else {
			ps = append(ps[:n], 0)
		}
		if !d.literal("null") {
			v := d.integer()
			if v != int64(int(v)) {
				d.fail("integer out of range")
			}
			ps[n] = int(v)
		}
	}
	if n == 0 {
		return []int{} // not ps[:0]: [] drops the storage
	}
	return ps[:n]
}

// boolean reads true or false into b; null leaves it as it was.
func (d *jsonReader) boolean(b *bool) {
	switch {
	case d.literal("true"):
		*b = true
	case d.literal("false"):
		*b = false
	case !d.literal("null"):
		d.fail("want true or false")
	}
}

// token reads the session token: a base64 string, or null for none.
func (d *jsonReader) token() []byte {
	if d.literal("null") {
		return nil
	}
	s := d.str()
	if d.err != nil {
		return nil
	}
	token, err := decodeToken(s)
	if err != nil {
		d.fail("token: %v", err)
	}
	return token
}

// decodeToken decodes a token's base64, padded or not.
func decodeToken(s []byte) ([]byte, error) {
	enc := base64.RawStdEncoding
	if bytes.HasSuffix(s, []byte("=")) {
		enc = base64.StdEncoding
	}
	return enc.AppendDecode(nil, s)
}

// appendSession appends a session reply: the token and what the session
// does not imply — no suggestion once done, and no flag, count or epoch
// at its zero.
func appendSession(b []byte, sess *certainfix.FixSession, token []byte) []byte {
	b = append(b, `{"token":"`...)
	b = append(base64.RawStdEncoding.AppendEncode(b, token), '"')
	if !sess.Done() {
		b = appendPositions(append(b, `,"suggested":`...), sess.Suggested())
	}
	if fixed := sess.Fixed(); fixed.Len() > 0 {
		ps := fixed.Positions()
		b = appendPositions(append(b, `,"fixedAttrs":`...), ps)
		b = append(b, `,"fixedValues":[`...)
		for i, p := range ps {
			if i > 0 {
				b = append(b, ',')
			}
			b = sess.Cell(p).AppendJSON(b)
		}
		b = append(b, ']')
	}
	if n := sess.Rounds(); n > 0 {
		b = strconv.AppendInt(append(b, `,"rounds":`...), int64(n), 10)
	}
	if sess.Done() {
		b = append(b, `,"done":true`...)
	}
	if sess.Completed() {
		b = append(b, `,"completed":true`...)
	}
	if e := sess.Epoch(); e > 0 {
		b = strconv.AppendUint(append(b, `,"epoch":`...), e, 10)
	}
	if root := sess.Root(); root != "" {
		b = certainfix.String(root).AppendJSON(append(b, `,"root":`...))
	}
	return append(b, "}\n"...)
}

// appendPositions appends a JSON array of positions, [] for none.
func appendPositions(b []byte, ps []int) []byte {
	b = append(b, '[')
	for i, p := range ps {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(p), 10)
	}
	return append(b, ']')
}

// appendError appends an error body: a human-readable message and a
// machine-readable code.
func appendError(b []byte, err error, code string) []byte {
	b = certainfix.String(err.Error()).AppendJSON(append(b, `{"error":`...))
	b = certainfix.String(code).AppendJSON(append(b, `,"code":`...))
	return append(b, "}\n"...)
}
