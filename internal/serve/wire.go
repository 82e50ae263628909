package serve

import (
	"strconv"
	"unicode/utf8"
)

// The streaming paths write verdict and summary lines by appending into
// one per-request buffer instead of reflecting through encoding/json. The
// bytes are json.Encoder's exactly: HTML-escaped strings, U+2028/U+2029
// and invalid UTF-8 escaped, an empty violations list as [], the
// omitempty fields left out, values keys in sorted order and a trailing
// newline. The wire goldens (testdata/wire.golden) and the encoder tests
// hold them to that.

// appendVerdict appends v's NDJSON line. For a rectify line, vals holds
// the repaired row and order its attribute indices sorted by name; the
// line then carries the row as a "values" object.
func appendVerdict(dst []byte, v *verdict, vals *rowBuf, order []int) []byte {
	dst = append(dst, `{"row":`...)
	dst = strconv.AppendInt(dst, int64(v.Row), 10)
	dst = append(dst, `,"flagged":`...)
	dst = strconv.AppendBool(dst, v.Flagged)
	dst = append(dst, `,"violations":[`...)
	for i := range v.Violations {
		x := &v.Violations[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"stmt":`...)
		dst = strconv.AppendInt(dst, int64(x.Stmt), 10)
		dst = append(dst, `,"attr":`...)
		dst = appendJSONString(dst, x.Attr)
		dst = append(dst, `,"expected":`...)
		dst = appendJSONString(dst, x.Expected)
		dst = append(dst, `,"actual":`...)
		dst = appendJSONString(dst, x.Actual)
		dst = append(dst, '}')
	}
	dst = append(dst, ']')
	if v.Changed != 0 {
		dst = append(dst, `,"changed":`...)
		dst = strconv.AppendInt(dst, int64(v.Changed), 10)
	}
	if vals != nil && len(order) > 0 {
		dst = append(dst, `,"values":{`...)
		for i, a := range order {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, vals.schema.Attr(a))
			dst = append(dst, ':')
			dst = appendJSONString(dst, vals.enc.Decode(a, vals.codes[a]))
		}
		dst = append(dst, '}')
	}
	if v.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, v.Error)
	}
	return append(dst, "}\n"...)
}

// appendSummary appends the final {"summary": ...} line of a batch.
func appendSummary(dst []byte, sum batchSummary) []byte {
	dst = append(dst, `{"summary":{"rows":`...)
	dst = strconv.AppendInt(dst, int64(sum.Rows), 10)
	dst = append(dst, `,"flagged":`...)
	dst = strconv.AppendInt(dst, int64(sum.Flagged), 10)
	dst = append(dst, `,"violations":`...)
	dst = strconv.AppendInt(dst, int64(sum.Violations), 10)
	dst = append(dst, `,"changed":`...)
	dst = strconv.AppendInt(dst, int64(sum.Changed), 10)
	return append(dst, "}}\n"...)
}

// jsonSafe marks the ASCII bytes encoding/json writes unescaped with HTML
// escaping on: printable, and none of '"', '\\', '<', '>' or '&'.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a quoted JSON string, escaped as
// encoding/json escapes it.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
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
				// Other control bytes, and <, > and &.
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
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
