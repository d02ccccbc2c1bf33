package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"nnwc/internal/serve/registry"
	"nnwc/internal/stats"
)

// The /predict body codec. Decoding and encoding a request are the bulk of
// a served prediction's cost outside the model, so /predict does both by
// hand, byte-for-byte compatible with encoding/json: FuzzPredictBody pins
// the decoder's accept/reject set and values against json.Decoder, and
// TestPredictResponseWireIdentity pins the encoder's bytes against
// json.Encoder. The other endpoints are not hot and use encoding/json.

// predictScratch is one /predict request's reusable memory: the body, the
// response and the decoder's scratch.
type predictScratch struct {
	body, out []byte
	dec       predictDecoder
}

var scratchPool = sync.Pool{New: func() any { return new(predictScratch) }}

// maxPooledBytes bounds the buffers a scratch keeps between requests, so
// one large body does not pin its memory in the pool.
const maxPooledBytes = 64 << 10

// keep returns buf emptied for reuse, or nil if it grew past
// maxPooledBytes.
func keep(buf []byte) []byte {
	if cap(buf) > maxPooledBytes {
		return nil
	}
	return buf[:0]
}

// predictDecoder parses a /predict body into a PredictRequest. It accepts
// and rejects exactly what json.Decoder with DisallowUnknownFields does
// when it decodes the body's first JSON value (bytes after that value are
// never looked at), and stores the same values, quirks included: keys
// match case-insensitively, null leaves a string or number unchanged and
// resets a slice, and a repeated key decodes into the slice its earlier
// occurrence left behind.
type predictDecoder struct {
	data []byte
	pos  int
	// truncated reports that the body continues past data, so a value
	// that reaches the end of data is not known to be complete.
	truncated bool
	elems     []float64 // the numbers of the arrays being parsed
	// ends holds, for each row of a fresh instances array, where its
	// numbers end in elems, or -1 for a null row.
	ends []int
	str  []byte // an unescaped string
}

var (
	keyModel     = []byte("model")
	keyX         = []byte("x")
	keyInstances = []byte("instances")
)

// decode parses data, the body or (when truncated) its first bytes, into
// req.
func (d *predictDecoder) decode(data []byte, truncated bool, req *PredictRequest) error {
	*d = predictDecoder{data: data, truncated: truncated, elems: d.elems[:0], ends: d.ends[:0], str: d.str[:0]}
	err := d.value(req)
	// Let go of the body before the decoder is pooled, and of scratch one
	// large request grew.
	d.data = nil
	d.str = keep(d.str)
	if cap(d.elems) > maxPooledBytes/8 {
		d.elems = nil
	}
	if cap(d.ends) > maxPooledBytes/8 {
		d.ends = nil
	}
	return err
}

// value parses the body's first JSON value into req.
func (d *predictDecoder) value(req *PredictRequest) error {
	d.skipSpace()
	if d.pos == len(d.data) {
		if d.truncated {
			return io.ErrUnexpectedEOF
		}
		return io.EOF
	}
	switch d.data[d.pos] {
	case '{':
		return d.object(req)
	case 'n':
		if err := d.null(); err != nil {
			return err
		}
		// A top-level literal ends at the byte after it, which a truncated
		// body has not delivered.
		if d.pos == len(d.data) && d.truncated {
			return io.ErrUnexpectedEOF
		}
		return nil
	}
	return d.mismatch("Go value of type serve.PredictRequest")
}

func (d *predictDecoder) object(req *PredictRequest) error {
	d.pos++ // '{'
	d.skipSpace()
	if d.next('}') {
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.syntax("looking for beginning of object key string")
		}
		key, err := d.string()
		if err != nil {
			return err
		}
		d.skipSpace()
		if !d.next(':') {
			return d.syntax("after object key")
		}
		d.skipSpace()
		switch {
		case bytes.EqualFold(key, keyModel):
			err = d.model(&req.Model)
		case bytes.EqualFold(key, keyX):
			req.X, err = d.floats(req.X, "x")
		case bytes.EqualFold(key, keyInstances):
			req.Instances, err = d.rows(req.Instances)
		default:
			return fmt.Errorf("json: unknown field %q", key)
		}
		if err != nil {
			return err
		}
		d.skipSpace()
		if d.next('}') {
			return nil
		}
		if !d.next(',') {
			return d.syntax("after object key:value pair")
		}
		d.skipSpace()
	}
}

func (d *predictDecoder) model(dst *string) error {
	switch d.peek() {
	case 'n':
		return d.null()
	case '"':
		s, err := d.string()
		if err != nil {
			return err
		}
		*dst = string(s)
		return nil
	}
	return d.mismatch("Go struct field PredictRequest.model of type string")
}

// floats decodes an array of numbers into dst, the field's current
// value, as encoding/json decodes into a []float64.
func (d *predictDecoder) floats(dst []float64, field string) ([]float64, error) {
	switch d.peek() {
	case 'n':
		return nil, d.null()
	case '[':
	default:
		return nil, d.mismatch("Go struct field PredictRequest." + field + " of type []float64")
	}
	if cap(dst) == 0 {
		// A slice with no capacity grows into fresh zeroed memory, so the
		// numbers are gathered in scratch and copied out in one piece.
		start := len(d.elems)
		if err := d.numbers(field); err != nil {
			return nil, err
		}
		row := make([]float64, len(d.elems)-start)
		copy(row, d.elems[start:])
		d.elems = d.elems[:start]
		return row, nil
	}
	d.pos++ // '['
	i := 0
	for ; ; i++ {
		if more, err := d.more(i); !more {
			if err != nil {
				return nil, err
			}
			break
		}
		v, isNull, err := d.element(field)
		if err != nil {
			return nil, err
		}
		// Like encoding/json: grow within capacity first, exposing what an
		// earlier occurrence of the key left there; null keeps it.
		if i >= len(dst) {
			if i < cap(dst) {
				dst = dst[:i+1]
			} else {
				dst = append(dst, 0)
			}
		}
		if !isNull {
			dst[i] = v
		}
	}
	if i == 0 {
		return []float64{}, nil
	}
	return dst[:i], nil
}

// rows decodes an array of number arrays into dst, the field's current
// value, as encoding/json decodes into a [][]float64.
func (d *predictDecoder) rows(dst [][]float64) ([][]float64, error) {
	switch d.peek() {
	case 'n':
		return nil, d.null()
	case '[':
	default:
		return nil, d.mismatch("Go struct field PredictRequest.instances of type [][]float64")
	}
	if cap(dst) == 0 {
		return d.freshRows()
	}
	d.pos++ // '['
	i := 0
	for ; ; i++ {
		if more, err := d.more(i); !more {
			if err != nil {
				return nil, err
			}
			break
		}
		if i >= len(dst) {
			if i < cap(dst) {
				dst = dst[:i+1]
			} else {
				dst = append(dst, nil)
			}
		}
		var err error
		if dst[i], err = d.floats(dst[i], "instances"); err != nil {
			return nil, err
		}
	}
	if i == 0 {
		return [][]float64{}, nil
	}
	return dst[:i], nil
}

// freshRows decodes an array of number arrays into a slice with no
// capacity, whose rows then start empty too. The numbers are gathered in
// scratch, and the rows are cut from one allocation the size of what was
// parsed.
func (d *predictDecoder) freshRows() ([][]float64, error) {
	d.pos++ // '['
	d.elems, d.ends = d.elems[:0], d.ends[:0]
	for i := 0; ; i++ {
		if more, err := d.more(i); !more {
			if err != nil {
				return nil, err
			}
			break
		}
		switch d.peek() {
		case 'n':
			if err := d.null(); err != nil {
				return nil, err
			}
			d.ends = append(d.ends, -1)
			continue
		case '[':
		default:
			return nil, d.mismatch("Go struct field PredictRequest.instances of type []float64")
		}
		if err := d.numbers("instances"); err != nil {
			return nil, err
		}
		d.ends = append(d.ends, len(d.elems))
	}
	if len(d.ends) == 0 {
		return [][]float64{}, nil
	}
	out := make([][]float64, len(d.ends))
	arena := make([]float64, len(d.elems))
	copy(arena, d.elems)
	lo := 0
	for i, end := range d.ends {
		if end >= 0 { // a null row stays nil
			out[i] = arena[lo:end:end]
			lo = end
		}
	}
	return out, nil
}

// numbers parses an array of numbers onto d.elems, a null element as the
// zero a fresh slice grows with.
func (d *predictDecoder) numbers(field string) error {
	d.pos++ // '['
	for i := 0; ; i++ {
		if more, err := d.more(i); !more {
			return err
		}
		v, _, err := d.element(field)
		if err != nil {
			return err
		}
		d.elems = append(d.elems, v)
	}
}

// more reports whether the array being parsed has an i-th element,
// consuming the comma before it, or else its closing bracket.
func (d *predictDecoder) more(i int) (bool, error) {
	d.skipSpace()
	if d.next(']') {
		return false, nil
	}
	if i > 0 {
		if !d.next(',') {
			return false, d.syntax("after array element")
		}
		d.skipSpace()
	}
	return true, nil
}

// element parses one element of an array of numbers decoding into field.
func (d *predictDecoder) element(field string) (v float64, isNull bool, err error) {
	switch d.peek() {
	case 'n':
		return 0, true, d.null()
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		v, err = d.number()
		return v, false, err
	}
	return 0, false, d.mismatch("Go struct field PredictRequest." + field + " of type float64")
}

// number parses a JSON number and converts it as encoding/json does.
func (d *predictDecoder) number() (float64, error) {
	start := d.pos
	d.next('-')
	switch {
	case d.next('0'):
	case d.peek() >= '1' && d.peek() <= '9':
		d.digits()
	default:
		return 0, d.syntax("in numeric literal")
	}
	if d.next('.') {
		if !d.digits() {
			return 0, d.syntax("after decimal point in numeric literal")
		}
	}
	if d.next('e') || d.next('E') {
		if !d.next('+') {
			d.next('-')
		}
		if !d.digits() {
			return 0, d.syntax("in exponent of numeric literal")
		}
	}
	lit := d.data[start:d.pos]
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, fmt.Errorf("json: cannot unmarshal number %s into Go value of type float64", lit)
	}
	return v, nil
}

// digits consumes a run of decimal digits, reporting whether there was
// one.
func (d *predictDecoder) digits() bool {
	start := d.pos
	for d.pos < len(d.data) && d.data[d.pos] >= '0' && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos > start
}

// string parses a JSON string and returns its unescaped bytes, which stay
// valid until the next call. Like encoding/json, it replaces invalid UTF-8
// and unpaired surrogate escapes with U+FFFD.
func (d *predictDecoder) string() ([]byte, error) {
	d.pos++ // '"'
	start := d.pos
	// Fast path: nothing to unescape or replace, so the bytes are the
	// value.
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		switch {
		case c == '"':
			d.pos++
			return d.data[start : d.pos-1], nil
		case c == '\\' || c < ' ':
		case c < utf8.RuneSelf:
			d.pos++
			continue
		default:
			if r, size := utf8.DecodeRune(d.data[d.pos:]); r != utf8.RuneError || size != 1 {
				d.pos += size
				continue
			}
		}
		break
	}
	d.str = append(d.str[:0], d.data[start:d.pos]...)
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		switch {
		case c == '"':
			d.pos++
			return d.str, nil
		case c == '\\':
			if err := d.escape(); err != nil {
				return nil, err
			}
		case c < ' ':
			return nil, d.syntax("in string literal")
		case c < utf8.RuneSelf:
			d.str = append(d.str, c)
			d.pos++
		default:
			r, size := utf8.DecodeRune(d.data[d.pos:])
			d.str = utf8.AppendRune(d.str, r)
			d.pos += size
		}
	}
	return nil, io.ErrUnexpectedEOF
}

// escape unescapes the backslash sequence at d.pos onto d.str.
func (d *predictDecoder) escape() error {
	d.pos++ // '\\'
	if d.pos == len(d.data) {
		return io.ErrUnexpectedEOF
	}
	c := d.data[d.pos]
	d.pos++
	switch c {
	case '"', '\\', '/':
		d.str = append(d.str, c)
	case 'b':
		d.str = append(d.str, '\b')
	case 'f':
		d.str = append(d.str, '\f')
	case 'n':
		d.str = append(d.str, '\n')
	case 'r':
		d.str = append(d.str, '\r')
	case 't':
		d.str = append(d.str, '\t')
	case 'u':
		r := hex4(d.data[d.pos:])
		if r < 0 {
			return d.syntax("in \\u hexadecimal character escape")
		}
		d.pos += 4
		if utf16.IsSurrogate(r) {
			r2 := rune(-1)
			if rest := d.data[d.pos:]; len(rest) >= 2 && rest[0] == '\\' && rest[1] == 'u' {
				r2 = hex4(rest[2:])
			}
			if pair := utf16.DecodeRune(r, r2); pair != unicode.ReplacementChar {
				d.pos += 6
				r = pair
			} else {
				r = unicode.ReplacementChar
			}
		}
		d.str = utf8.AppendRune(d.str, r)
	default:
		d.pos--
		return d.syntax("in string escape code")
	}
	return nil
}

// hex4 decodes four hex digits, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		v := unhex(c)
		if v < 0 {
			return -1
		}
		r = r<<4 | v
	}
	return r
}

func unhex(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// null consumes the literal null.
func (d *predictDecoder) null() error {
	for _, c := range []byte("null") {
		if d.pos == len(d.data) {
			return io.ErrUnexpectedEOF
		}
		if d.data[d.pos] != c {
			return d.syntax("in literal null (expecting '" + string(c) + "')")
		}
		d.pos++
	}
	return nil
}

func (d *predictDecoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the byte at d.pos, or 0 at the end of the data.
func (d *predictDecoder) peek() byte {
	if d.pos == len(d.data) {
		return 0
	}
	return d.data[d.pos]
}

// next consumes c if it is the byte at d.pos.
func (d *predictDecoder) next(c byte) bool {
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// syntax reports the byte at d.pos as invalid, in encoding/json's words.
func (d *predictDecoder) syntax(context string) error {
	if d.pos == len(d.data) {
		return io.ErrUnexpectedEOF
	}
	return fmt.Errorf("invalid character %q %s", d.data[d.pos], context)
}

// mismatch reports a value of the wrong JSON type for target, or an
// invalid character where the value should start.
func (d *predictDecoder) mismatch(target string) error {
	var kind string
	switch d.peek() {
	case 0:
		return d.syntax("")
	case '{':
		kind = "object"
	case '[':
		kind = "array"
	case '"':
		kind = "string"
	case 't', 'f':
		kind = "bool"
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		kind = "number"
	default:
		return d.syntax("looking for beginning of value")
	}
	return fmt.Errorf("json: cannot unmarshal %s into %s", kind, target)
}

// errNonFinite rejects a response encoding/json cannot encode.
var errNonFinite = errors.New("model produced a non-finite prediction")

// appendPredictResponse appends the /predict reply for preds served by
// inst, byte for byte what json.Encoder writes for the reply struct
// (predictions, target_names, warnings, model; PredictResponse in the
// tests), trailing newline included. The instance's target names and
// model info were encoded when the registry built it. A NaN or infinite
// prediction, which encoding/json refuses, fails with errNonFinite.
func appendPredictResponse(dst []byte, preds [][]float64, inst *registry.Instance, warnings []string) ([]byte, error) {
	dst = append(dst, `{"predictions":`...)
	if preds == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, row := range preds {
			if i > 0 {
				dst = append(dst, ',')
			}
			if row == nil {
				dst = append(dst, "null"...)
				continue
			}
			dst = append(dst, '[')
			for j, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return dst, errNonFinite
				}
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = appendFloat(dst, v)
			}
			dst = append(dst, ']')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"target_names":`...)
	dst = append(dst, inst.TargetNamesJSON()...)
	if len(warnings) > 0 {
		dst = append(dst, `,"warnings":[`...)
		for i, w := range warnings {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, w)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"model":`...)
	dst = append(dst, inst.InfoJSON()...)
	return append(dst, "}\n"...), nil
}

// appendFloat formats a finite float64 as encoding/json does: like
// JavaScript, in exponent form only below 1e-6 or from 1e21, with the
// exponent unpadded.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); !stats.ExactZero(abs) && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendString quotes s as encoding/json does with HTML escaping on:
// <, > and & become \u escapes, as do control characters without a short
// escape and U+2028/U+2029, and invalid UTF-8 becomes \ufffd.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
