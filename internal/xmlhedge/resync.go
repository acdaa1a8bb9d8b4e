package xmlhedge

// Byte-level resynchronization for malformed records.
//
// The splitter's tokenizer (tok.go) reports malformed markup as a sticky
// *xml.SyntaxError: nothing after the failure point can be tokenized
// reliably, so a single malformed record would otherwise end the stream.
// With a named split the record delimiter is known, which makes recovery
// possible below the token layer: scan the raw bytes for the next `<name`
// start tag (aware of comments, CDATA, processing instructions, and
// attribute quoting, so a delimiter-looking sequence inside those is not
// mistaken for a record) and start a fresh tokenizer at that offset.
//
// tailReader buffers the live input and remembers the last tailWindow
// consumed bytes, so the scanner and the tokenizer can be re-anchored at
// any recent absolute offset without the underlying reader being
// seekable: replayFrom serves the byte-at-a-time scanner, replaySourceFrom
// a degraded-mode tokenizer placed on a scan hit.

import (
	"fmt"
	"io"
)

// tailWindow is how far back replayFrom can re-anchor. It bounds the
// longest start-tag prefix the scanner consumes before a hit and must
// replay to the tokenizer: `<` + split name + delimiter.
const tailWindow = 256

// tailReader is the splitter's byteSource over the live input: it buffers
// reads from src and remembers the last tailWindow bytes consumed. off is
// the absolute offset of the next byte to consume — equal to the total
// bytes consumed so far.
type tailReader struct {
	src  io.Reader
	buf  []byte
	r, w int
	rerr error // sticky read error from src, delivered after the buffer drains
	off  int64
	tail [tailWindow]byte
}

func newTailReader(r io.Reader) *tailReader {
	return &tailReader{src: r, buf: make([]byte, 4096)}
}

// peek returns the buffered unconsumed bytes, refilling from src when the
// buffer is empty (byteSource for the tokenizer).
func (t *tailReader) peek() ([]byte, error) {
	if t.r == t.w {
		if t.rerr != nil {
			return nil, t.rerr
		}
		t.r, t.w = 0, 0
		for t.w == 0 && t.rerr == nil {
			n, err := t.src.Read(t.buf)
			t.w, t.rerr = n, err
		}
		if t.w == 0 {
			return nil, t.rerr
		}
	}
	return t.buf[t.r:t.w], nil
}

// consume advances past n peeked bytes, remembering them in the tail
// window. Wraparound copies never hand out a stale window: later copies of
// an over-long run overwrite earlier ones in ring order.
func (t *tailReader) consume(n int) {
	src := t.buf[t.r : t.r+n]
	t.r += n
	for len(src) > 0 {
		c := copy(t.tail[t.off%tailWindow:], src)
		t.off += int64(c)
		src = src[c:]
	}
}

// offset is the absolute offset of the next unconsumed byte.
func (t *tailReader) offset() int64 { return t.off }

// ReadByte implements io.ByteReader for the raw resynchronization scanner;
// it routes through peek/consume so the tail window stays consistent.
func (t *tailReader) ReadByte() (byte, error) {
	w, err := t.peek()
	if err != nil {
		return 0, err
	}
	b := w[0]
	t.consume(1)
	return b, nil
}

// Read implements io.Reader for completeness; it routes through ReadByte
// so the tail window stays consistent however the reader is driven.
func (t *tailReader) Read(p []byte) (int, error) {
	for i := range p {
		b, err := t.ReadByte()
		if err != nil {
			if i > 0 {
				return i, nil
			}
			return 0, err
		}
		p[i] = b
	}
	return len(p), nil
}

// replayFrom returns a reader that re-delivers the remembered bytes from
// absolute offset abs and then continues with the live stream. abs must
// lie within the tail window.
func (t *tailReader) replayFrom(abs int64) (*replayReader, error) {
	if abs > t.off || t.off-abs > tailWindow {
		return nil, fmt.Errorf("xmlhedge: resync offset %d outside the replay window ending at %d", abs, t.off)
	}
	pend := make([]byte, 0, t.off-abs)
	for o := abs; o < t.off; o++ {
		pend = append(pend, t.tail[o%tailWindow])
	}
	return &replayReader{t: t, pend: pend}, nil
}

// replayReader serves a copied slice of remembered bytes, then the live
// tailReader. The pending bytes already sit in the tail window at their
// original offsets, so serving them does not advance t.off — a later
// replayFrom during or after the replay still sees consistent offsets.
type replayReader struct {
	t    *tailReader
	pend []byte
}

func (r *replayReader) ReadByte() (byte, error) {
	if len(r.pend) > 0 {
		b := r.pend[0]
		r.pend = r.pend[1:]
		return b, nil
	}
	return r.t.ReadByte()
}

func (r *replayReader) Read(p []byte) (int, error) {
	for i := range p {
		b, err := r.ReadByte()
		if err != nil {
			if i > 0 {
				return i, nil
			}
			return 0, err
		}
		p[i] = b
	}
	return len(p), nil
}

// replaySourceFrom is replayFrom as a byteSource, re-anchoring a tokenizer
// at absolute offset abs for degraded-mode per-record parsing.
func (t *tailReader) replaySourceFrom(abs int64) (*replaySource, error) {
	rep, err := t.replayFrom(abs)
	if err != nil {
		return nil, err
	}
	return &replaySource{t: t, pend: rep.pend}, nil
}

// replaySource serves remembered tail bytes, then the live tailReader.
// Like replayReader, consuming the pending bytes does not advance t.off —
// they already sit in the tail window at their original offsets — so the
// absolute offset is t.off minus what remains pending.
type replaySource struct {
	t    *tailReader
	pend []byte
}

func (r *replaySource) peek() ([]byte, error) {
	if len(r.pend) > 0 {
		return r.pend, nil
	}
	return r.t.peek()
}

func (r *replaySource) consume(n int) {
	if len(r.pend) > 0 {
		r.pend = r.pend[n:]
		return
	}
	r.t.consume(n)
}

func (r *replaySource) offset() int64 { return r.t.off - int64(len(r.pend)) }

// scanForRecord raw-scans from rr.scanPos for the next plausible record
// start (`<` + split name + delimiter) and returns its absolute offset.
// The scan position advances past everything inspected, so a failed scan
// never re-inspects bytes. Returns io.EOF at a clean end of input.
func (rr *RecordReader) scanForRecord() (int64, error) {
	rep, err := rr.tr.replayFrom(rr.scanPos)
	if err != nil {
		return 0, err
	}
	sc := &rawScanner{r: rep, pos: rr.scanPos, rr: rr}
	pos, err := sc.findRecordStart(rr.opts.Split)
	rr.scanPos = sc.pos
	if err != nil {
		return 0, err
	}
	// Resume the next scan after this candidate's '<', so a candidate that
	// fails to parse cannot be found again.
	rr.scanPos = pos + 1
	return pos, nil
}

// rawScanner walks raw bytes looking for a start tag of a given name,
// skipping constructs whose content is not markup: comments, CDATA
// sections, processing instructions, directives, and quoted attribute
// values. It is only ever used in degraded mode, after markup corruption;
// it favors robustness over speed.
type rawScanner struct {
	r   io.ByteReader
	pos int64 // absolute offset of the next unread byte
	rr  *RecordReader
}

func (s *rawScanner) next() (byte, error) {
	if s.pos&1023 == 0 && s.rr != nil {
		if err := s.rr.pollNowAt(s.pos); err != nil {
			return 0, err
		}
	}
	b, err := s.r.ReadByte()
	if err != nil {
		return 0, err
	}
	s.pos++
	return b, nil
}

// findRecordStart returns the absolute offset of the next `<name` whose
// name ends exactly at a tag delimiter ('>', '/', or whitespace).
func (s *rawScanner) findRecordStart(name string) (int64, error) {
	if name == "" {
		return 0, fmt.Errorf("xmlhedge: resynchronization requires a named split")
	}
	var b byte
	pending := false // b holds an already-read byte to reprocess
	for {
		if !pending {
			var err error
			if b, err = s.next(); err != nil {
				return 0, err
			}
		}
		pending = false
		if b != '<' {
			continue
		}
		start := s.pos - 1
		c, err := s.next()
		if err != nil {
			return 0, err
		}
		switch {
		case c == '<':
			// Malformed "<<": the second '<' is a fresh candidate.
			b, pending = c, true
		case c == '!':
			err = s.skipBang()
		case c == '?':
			err = s.skipUntil("?>")
		case c == '/':
			err = s.skipTag()
		case isNameStart(c):
			ok, d, merr := s.matchName(name, c)
			if merr != nil {
				return 0, merr
			}
			if ok && (d == '>' || d == '/' || isXMLSpace(d)) {
				return start, nil
			}
			switch {
			case d == '<':
				// The tag was cut short by another '<'; rescan from it.
				b, pending = d, true
			case d != '>':
				err = s.skipTag()
			}
		default:
			// "<" followed by junk ('=', digits, ...): not a tag; keep
			// scanning from the byte after it. A junk '<'? handled above.
		}
		if err != nil {
			return 0, err
		}
	}
}

// matchName consumes name characters after the already-read first byte c,
// reporting whether they spell exactly name, plus the first non-name byte.
func (s *rawScanner) matchName(name string, c byte) (match bool, delim byte, err error) {
	ok := name[0] == c
	n := 1
	for {
		d, derr := s.next()
		if derr != nil {
			return false, 0, derr
		}
		if !isNameByte(d) {
			return ok && n == len(name), d, nil
		}
		if ok && n < len(name) && name[n] == d {
			n++
		} else {
			ok = false
		}
	}
}

// skipTag consumes bytes until the '>' closing the current tag, honoring
// single- and double-quoted attribute values.
func (s *rawScanner) skipTag() error {
	var q byte
	for {
		b, err := s.next()
		if err != nil {
			return err
		}
		switch {
		case q != 0:
			if b == q {
				q = 0
			}
		case b == '\'' || b == '"':
			q = b
		case b == '>':
			return nil
		}
	}
}

// skipBang handles `<!`: comments (`<!--` ... `-->`), CDATA/conditional
// sections (`<![` ... `]]>`), and directives (naive `>` terminator — a
// DOCTYPE with an internal subset may end the skip early, which only costs
// extra scanning).
func (s *rawScanner) skipBang() error {
	b, err := s.next()
	if err != nil {
		return err
	}
	switch b {
	case '-':
		c, err := s.next()
		if err != nil {
			return err
		}
		if c == '-' {
			return s.skipUntil("-->")
		}
		return s.skipTag()
	case '[':
		return s.skipUntil("]]>")
	case '>':
		return nil
	default:
		return s.skipTag()
	}
}

// skipUntil consumes bytes until the 2–3 byte terminator pat has been
// seen, matching via a sliding window (a naive restart would miss
// overlapping occurrences like "-->" inside "--->").
func (s *rawScanner) skipUntil(pat string) error {
	var w [3]byte
	n := 0
	for {
		b, err := s.next()
		if err != nil {
			return err
		}
		if n < len(w) {
			w[n] = b
			n++
		} else {
			w[0], w[1], w[2] = w[1], w[2], b
		}
		if n >= len(pat) && string(w[n-len(pat):n]) == pat {
			return nil
		}
	}
}

// isNameStart reports whether b can begin an XML name. Multi-byte UTF-8
// sequences (b >= 0x80) are accepted wholesale; the decoder re-validates
// whatever the scanner proposes.
func isNameStart(b byte) bool {
	return b == '_' || b == ':' || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || b >= 0x80
}

// isNameByte reports whether b can appear inside an XML name.
func isNameByte(b byte) bool {
	return isNameStart(b) || b == '-' || b == '.' || (b >= '0' && b <= '9')
}

// isXMLSpace reports whether b is XML whitespace.
func isXMLSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\r' || b == '\n'
}
