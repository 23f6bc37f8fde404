package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// The ingest path's JSON codec. A job event is a flat JSON object of
// strings, numbers, booleans and nulls: lineDecoder parses one in a single
// pass into an Event, and recordEncoder writes an Event's WAL record. Both
// agree with encoding/json byte for byte — the same accepted lines, the
// same decoded values, the same record bytes as json.Marshal — without its
// reflection. A nested object or array (legal only in a Skip field) is the
// one value either hands to encoding/json.

// errNotObject rejects a line whose value is not a JSON object. That
// includes null, which encoding/json decodes into a nil Event: accepted,
// it would count as an empty transaction in the window.
var errNotObject = errors.New("not a JSON object")

// maxInternedKeys bounds a lineDecoder's field-name table, so a body of
// ever-new keys cannot grow it past what one event set needs.
const maxInternedKeys = 256

// maxNestedDepth is the deepest nested value encoding/json accepts inside
// the top-level object: its limit of 10000 counts the object itself.
const maxNestedDepth = 9999

// lineDecoder decodes the lines of one ingest body or one WAL replay. It
// interns field names, so the events it returns share one string per key,
// and unescapes into one reused scratch buffer. Every string value is a
// fresh allocation of its own: no event points into the line, the scratch
// buffer or another event's value.
type lineDecoder struct {
	keys  map[string]string
	buf   []byte
	width int // field count of the last event, the next map's size hint
}

// syntaxErr reports malformed JSON at data[i].
func syntaxErr(data []byte, i int, context string) error {
	if i >= len(data) {
		return fmt.Errorf("unexpected end of JSON input %s", context)
	}
	return fmt.Errorf("invalid character %q %s at offset %d", data[i], context, i)
}

// decode parses one JSON object, with optional JSON whitespace around it,
// into a fresh Event. Duplicate keys keep the last value, as with
// encoding/json.
func (d *lineDecoder) decode(data []byte) (Event, error) {
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '{' {
		return nil, errNotObject
	}
	ev := make(Event, d.width)
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		i++
	} else {
		for {
			if i >= len(data) || data[i] != '"' {
				return nil, syntaxErr(data, i, "looking for beginning of object key string")
			}
			raw, end, err := d.str(data, i)
			if err != nil {
				return nil, err
			}
			key, ok := d.keys[string(raw)]
			if !ok {
				key = string(raw)
				if d.keys == nil {
					d.keys = make(map[string]string)
				}
				if len(d.keys) < maxInternedKeys {
					d.keys[key] = key
				}
			}
			i = skipSpace(data, end)
			if i >= len(data) || data[i] != ':' {
				return nil, syntaxErr(data, i, "after object key")
			}
			v, end, err := d.value(data, skipSpace(data, i+1))
			if err != nil {
				return nil, err
			}
			ev[key] = v
			i = skipSpace(data, end)
			if i < len(data) && data[i] == ',' {
				i = skipSpace(data, i+1)
				continue
			}
			if i < len(data) && data[i] == '}' {
				i++
				break
			}
			return nil, syntaxErr(data, i, "after object key:value pair")
		}
	}
	if i = skipSpace(data, i); i != len(data) {
		return nil, syntaxErr(data, i, "after top-level value")
	}
	d.width = len(ev)
	return ev, nil
}

// value parses the JSON value starting at data[i] and returns it with the
// offset just past it.
func (d *lineDecoder) value(data []byte, i int) (any, int, error) {
	if i >= len(data) {
		return nil, i, syntaxErr(data, i, "looking for beginning of value")
	}
	switch c := data[i]; {
	case c == '"':
		raw, end, err := d.str(data, i)
		if err != nil {
			return nil, end, err
		}
		return string(raw), end, nil
	case c == '-' || '0' <= c && c <= '9':
		end, err := scanNumber(data, i)
		if err != nil {
			return nil, end, err
		}
		f, err := strconv.ParseFloat(string(data[i:end]), 64)
		if err != nil {
			return nil, end, fmt.Errorf("number %s out of range at offset %d", data[i:end], i)
		}
		return f, end, nil
	case c == 't':
		return true, i + 4, literal(data, i, "true")
	case c == 'f':
		return false, i + 5, literal(data, i, "false")
	case c == 'n':
		return nil, i + 4, literal(data, i, "null")
	case c == '{' || c == '[':
		end, err := nestedEnd(data, i)
		if err != nil {
			return nil, end, err
		}
		var v any
		if err := json.Unmarshal(data[i:end], &v); err != nil {
			return nil, end, fmt.Errorf("nested value at offset %d: %v", i, err)
		}
		return v, end, nil
	}
	return nil, i, syntaxErr(data, i, "looking for beginning of value")
}

func literal(data []byte, i int, want string) error {
	for k := 0; k < len(want); k++ {
		if i+k >= len(data) || data[i+k] != want[k] {
			return syntaxErr(data, i+k, "in literal "+want)
		}
	}
	return nil
}

// scanNumber checks the RFC 8259 number grammar from data[i] and returns
// the offset just past the number. Leading zeros, a leading plus, a bare
// fraction or exponent, hex and NaN never reach strconv.ParseFloat.
func scanNumber(data []byte, i int) (int, error) {
	digits := func(i int) int {
		for i < len(data) && '0' <= data[i] && data[i] <= '9' {
			i++
		}
		return i
	}
	if data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = digits(i + 1)
	default:
		return i, syntaxErr(data, i, "in numeric literal")
	}
	if i < len(data) && data[i] == '.' {
		if j := digits(i + 1); j > i+1 {
			i = j
		} else {
			return j, syntaxErr(data, j, "after decimal point in numeric literal")
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if j := digits(i); j > i {
			i = j
		} else {
			return j, syntaxErr(data, j, "in exponent of numeric literal")
		}
	}
	return i, nil
}

// nestedEnd returns the offset just past the object or array starting at
// data[i], matching brackets outside strings. It does not check the
// grammar inside: encoding/json, which decodes the span, does.
func nestedEnd(data []byte, i int) (int, error) {
	depth := 0
	for j := i; j < len(data); j++ {
		switch data[j] {
		case '"':
			for j++; j < len(data) && data[j] != '"'; j++ {
				if data[j] == '\\' {
					j++
				}
			}
		case '{', '[':
			if depth++; depth > maxNestedDepth {
				return j, fmt.Errorf("exceeded max depth at offset %d", j)
			}
		case '}', ']':
			if depth--; depth == 0 {
				return j + 1, nil
			}
		}
	}
	return len(data), syntaxErr(data, len(data), "in nested value")
}

// str parses the string literal starting at the quote data[i] and returns
// its unescaped bytes, which alias data or the decoder's scratch buffer
// until the next call, and the offset past the closing quote. As in
// encoding/json, an invalid UTF-8 byte becomes U+FFFD, and so does a \u
// escape of a lone surrogate.
func (d *lineDecoder) str(data []byte, i int) ([]byte, int, error) {
	start := i + 1
	j := start
	ascii := true
	for ; j < len(data); j++ {
		c := data[j]
		if c == '"' {
			if ascii || utf8.Valid(data[start:j]) {
				return data[start:j], j + 1, nil
			}
			break
		}
		if c == '\\' || c < ' ' {
			break
		}
		if c >= utf8.RuneSelf {
			ascii = false
		}
	}
	b := d.buf[:0]
	for j = start; j < len(data); {
		c := data[j]
		switch {
		case c == '"':
			d.buf = b
			return b, j + 1, nil
		case c < ' ':
			return nil, j, syntaxErr(data, j, "in string literal")
		case c == '\\':
			if j+1 >= len(data) {
				return nil, j + 1, syntaxErr(data, j+1, "in string escape code")
			}
			switch e := data[j+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := escapedRune(data, j)
				if r < 0 {
					return nil, j, syntaxErr(data, j+2, "in \\u hexadecimal character escape")
				}
				j += 6
				if utf16.IsSurrogate(r) {
					// A pair decodes to one rune; a lone half is U+FFFD and
					// whatever follows it is read on its own.
					if dec := utf16.DecodeRune(r, escapedRune(data, j)); dec != utf8.RuneError {
						b = utf8.AppendRune(b, dec)
						j += 6
						continue
					}
					r = utf8.RuneError
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				return nil, j + 1, syntaxErr(data, j+1, "in string escape code")
			}
			j += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			j++
		default:
			r, size := utf8.DecodeRune(data[j:])
			if r == utf8.RuneError && size == 1 {
				b = utf8.AppendRune(b, utf8.RuneError)
			} else {
				b = append(b, data[j:j+size]...)
			}
			j += size
		}
	}
	d.buf = b
	return nil, j, syntaxErr(data, j, "in string literal")
}

// escapedRune decodes the \uXXXX escape at data[i:i+6], or returns -1.
func escapedRune(data []byte, i int) rune {
	if i+6 > len(data) || data[i] != '\\' || data[i+1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range data[i+2 : i+6] {
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

func skipSpace(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\r', '\n':
			i++
		default:
			return i
		}
	}
	return i
}

// validUTF8 returns s with each byte that is not part of valid UTF-8
// replaced by U+FFFD — what a string becomes on a trip through
// encoding/json, and so through the WAL. strings.ToValidUTF8 would fold a
// run of bad bytes into one replacement instead.
func validUTF8(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 2*utf8.UTFMax)
	for _, r := range s {
		b.WriteRune(r) // ranging yields U+FFFD per invalid byte
	}
	return b.String()
}

// recordEncoder writes WAL records: the bytes json.Marshal(ev) would
// produce, with sorted keys, encoding/json's float format and its
// HTML-safe string escaping. The events of one stream mostly carry the
// same fields, so it keeps the last record's sorted key order and sorts
// again only when the key set changes. Not safe for concurrent use.
type recordEncoder struct {
	buf  []byte
	keys []string
}

// encode returns ev's record in a buffer the next call reuses. A
// non-finite float is an error, as it is for json.Marshal.
func (e *recordEncoder) encode(ev Event) ([]byte, error) {
	if !e.sameKeys(ev) {
		e.keys = e.keys[:0]
		for k := range ev {
			e.keys = append(e.keys, k)
		}
		slices.Sort(e.keys)
	}
	dst := append(e.buf[:0], '{')
	for n, k := range e.keys {
		if n > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, k)
		dst = append(dst, ':')
		switch v := ev[k].(type) {
		case nil:
			dst = append(dst, "null"...)
		case string:
			dst = appendJSONString(dst, v)
		case bool:
			dst = strconv.AppendBool(dst, v)
		case float64:
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("field %q: unsupported value %v", k, v)
			}
			dst = appendJSONFloat(dst, v)
		default:
			b, err := json.Marshal(v)
			if err != nil {
				return nil, fmt.Errorf("field %q: %w", k, err)
			}
			dst = append(dst, b...)
		}
	}
	dst = append(dst, '}')
	if cap(dst) <= maxKeptRecord {
		e.buf = dst
	}
	return dst, nil
}

// sameKeys reports whether ev's fields are exactly the cached keys.
func (e *recordEncoder) sameKeys(ev Event) bool {
	if len(ev) != len(e.keys) {
		return false
	}
	for _, k := range e.keys {
		if _, ok := ev[k]; !ok {
			return false
		}
	}
	return true
}

// maxKeptRecord bounds the buffer a recordEncoder keeps between records.
const maxKeptRecord = 64 << 10

// appendJSONFloat formats f as encoding/json does: the shortest repr, in
// exponent form below 1e-6 and from 1e21, with e-09 shortened to e-9.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes encoding/json writes unescaped when it
// escapes HTML: printable ones except ", backslash, <, > and &.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := byte(' '); c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

// appendJSONString quotes s as encoding/json does with HTML escaping on:
// <, > and & as backslash-u escapes, control bytes escaped, each invalid
// UTF-8 byte as the escape of U+FFFD, and U+2028/U+2029 escaped.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if jsonSafe[c] {
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
		case r == 0x2028 || r == 0x2029:
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
