package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"unicode/utf8"

	"xpe"
)

// ndjson is an NDJSON response that flushes once per record, after the
// record's last match line, and after the summary or error line: a real
// socket gets one chunk per record, not one per match. Lines stream while
// the request body is still being split, so the response is full duplex:
// an HTTP/1.x server otherwise discards the unread body at the first
// flush, failing the next record's read. A writer without the capability,
// such as a recorder, is unchanged.
//
// Match lines, one per located node, are appended by hand into one reused
// buffer; the summary and error lines go through encoding/json.
type ndjson struct {
	w   io.Writer
	fl  http.Flusher
	buf []byte
}

// newNDJSON starts an NDJSON response on w.
func newNDJSON(w http.ResponseWriter) *ndjson {
	_ = http.NewResponseController(w).EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	fl, _ := w.(http.Flusher)
	return &ndjson{w: w, fl: fl}
}

// match writes one match line of m; the record's last flushes.
func (n *ndjson) match(tenant, query string, m *xpe.StreamMatch) error {
	n.buf = appendMatchLine(n.buf[:0], tenant, query, m.Record, m.RecordPath, m.Path, m.Term)
	if _, err := n.w.Write(n.buf); err != nil {
		return err
	}
	if m.RecordEnd {
		n.flush()
	}
	return nil
}

// value writes v as one line through encoding/json.
func (n *ndjson) value(v any) error {
	if err := json.NewEncoder(n.w).Encode(v); err != nil {
		return err
	}
	n.flush()
	return nil
}

func (n *ndjson) flush() {
	if n.fl != nil {
		n.fl.Flush()
	}
}

// appendMatchLine appends one NDJSON match line, newline included: the
// bytes json.Encoder.Encode writes for
//
//	{"tenant":…,"query":…,"record":…,"recordPath":…,"path":…,"term":…}
//
// with "tenant" omitted when empty.
func appendMatchLine(dst []byte, tenant, query string, record int, recordPath, path, term string) []byte {
	dst = append(dst, '{')
	if tenant != "" {
		dst = append(dst, `"tenant":`...)
		dst = appendJSONString(dst, tenant)
		dst = append(dst, ',')
	}
	dst = append(dst, `"query":`...)
	dst = appendJSONString(dst, query)
	dst = append(dst, `,"record":`...)
	dst = strconv.AppendInt(dst, int64(record), 10)
	dst = append(dst, `,"recordPath":`...)
	dst = appendJSONString(dst, recordPath)
	dst = append(dst, `,"path":`...)
	dst = appendJSONString(dst, path)
	dst = append(dst, `,"term":`...)
	dst = appendJSONString(dst, term)
	return append(dst, "}\n"...)
}

// appendJSONString appends s as a JSON string the way encoding/json's
// default (HTML-escaping) encoder does: '"' and '\\' take a backslash;
// \b, \f, \n, \r and \t their short escapes; other control bytes and the
// HTML-significant '<', '>' and '&' a \u00XX escape; U+2028 and U+2029 are
// escaped; each byte of invalid UTF-8 becomes \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, `\b`...)
			case '\f':
				dst = append(dst, `\f`...)
			case '\n':
				dst = append(dst, `\n`...)
			case '\r':
				dst = append(dst, `\r`...)
			case '\t':
				dst = append(dst, `\t`...)
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
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
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xf])
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
