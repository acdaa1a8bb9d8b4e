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
// tailReader is the one read buffer every byte path shares. Besides the
// unconsumed bytes it keeps the last tailWindow consumed ones in place,
// just before the read position: compaction never drops them, so the
// scanner and the tokenizer can be re-anchored at any recent absolute
// offset without the underlying reader being seekable. rewind moves the
// read position back onto them, and both simply read on from there.

import (
	"fmt"
	"io"
)

// tailWindow is how far back rewind can re-anchor. It bounds the longest
// start-tag prefix the scanner consumes before a hit and must hand back to
// the tokenizer: `<` + split name + delimiter.
const tailWindow = 256

// tailReader buffers reads from src in buf, unconsumed bytes in buf[r:w],
// for the tokenizer, the prefilter skim, and the resynchronization
// scanner alike. off is the absolute offset of the next byte to consume.
// Everything in buf[:r] was consumed already: compaction keeps the last
// tailWindow consumed bytes there, so rewind can re-deliver them.
type tailReader struct {
	src  io.Reader
	buf  []byte
	r, w int
	rerr error // sticky read error from src, delivered after the buffer drains
	off  int64
}

func newTailReader(r io.Reader) *tailReader {
	return &tailReader{src: r, buf: make([]byte, 4096)}
}

// compact moves the unconsumed bytes and the replay tail before them to
// the front of buf, freeing room for reads at the end.
func (t *tailReader) compact() {
	keep := min(t.r, tailWindow)
	n := copy(t.buf, t.buf[t.r-keep:t.w])
	t.r, t.w = keep, n
}

// peek returns a non-empty slice of the buffered unconsumed bytes,
// reading more input when none are buffered. On failure the slice is empty
// and the error is sticky.
func (t *tailReader) peek() ([]byte, error) {
	if t.r == t.w && !t.refill() {
		return nil, t.rerr
	}
	return t.buf[t.r:t.w], nil
}

// refill is peek's slow path: compact, then read until a byte arrives or
// the source fails. It reports whether any byte is buffered.
func (t *tailReader) refill() bool {
	if t.rerr != nil {
		return false
	}
	t.compact()
	for t.w == t.r && t.rerr == nil {
		n, err := t.src.Read(t.buf[t.w:])
		t.w, t.rerr = t.w+n, err
	}
	return t.w > t.r
}

// fillTo tries to ensure at least n unconsumed bytes are buffered, reading
// more input and growing the buffer as needed, and returns the buffered
// window (shorter than n when the source is exhausted or erroring). It
// consumes nothing: the tokenizer resumes exactly where it was, and a
// relative index into the returned window stays valid across further fills
// (compaction and growth preserve the unconsumed bytes, though they may
// move them: callers re-slice the window after every fill).
func (t *tailReader) fillTo(n int) []byte {
	for t.w-t.r < n && t.rerr == nil {
		if t.w == len(t.buf) {
			if t.r > tailWindow {
				t.compact()
			} else {
				nb := make([]byte, 2*len(t.buf))
				copy(nb, t.buf[:t.w])
				t.buf = nb
			}
		}
		m, err := t.src.Read(t.buf[t.w:])
		t.w += m
		if err != nil {
			t.rerr = err
		}
	}
	return t.buf[t.r:t.w]
}

// consume advances past n peeked bytes. They stay in buf, where rewind
// can reach them, until a compaction moves the read position on.
func (t *tailReader) consume(n int) {
	t.r += n
	t.off += int64(n)
}

// ReadByte implements io.ByteReader for the raw resynchronization scanner.
func (t *tailReader) ReadByte() (byte, error) {
	w, err := t.peek()
	if err != nil {
		return 0, err
	}
	t.consume(1)
	return w[0], nil
}

// rewind moves the read position back to absolute offset abs, so the
// consumed bytes from abs on are read again before the live input. abs
// must lie within the tail window.
func (t *tailReader) rewind(abs int64) error {
	back := t.off - abs
	if back < 0 || back > tailWindow || back > int64(t.r) {
		return fmt.Errorf("xmlhedge: resync offset %d outside the replay window ending at %d", abs, t.off)
	}
	t.r -= int(back)
	t.off = abs
	return nil
}

// scanForRecord raw-scans from rr.scanPos for the next plausible record
// start (`<` + split name + delimiter) and returns its absolute offset.
// The scan position advances past everything inspected, so a failed scan
// never re-inspects bytes. Returns io.EOF at a clean end of input.
func (rr *RecordReader) scanForRecord() (int64, error) {
	if err := rr.tr.rewind(rr.scanPos); err != nil {
		return 0, err
	}
	sc := &rawScanner{r: rr.tr, pos: rr.scanPos, rr: rr}
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
func isNameStart(b byte) bool { return nameStartTab[b] }

// isNameByte reports whether b can appear inside an XML name.
func isNameByte(b byte) bool { return nameByteTab[b] }

// nameStartTab and nameByteTab are isNameStart and isNameByte as tables:
// one load per byte on the scanners' hot loops.
var nameStartTab, nameByteTab = func() (start, inside [256]bool) {
	for i := range start {
		b := byte(i)
		start[i] = b == '_' || b == ':' || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || b >= 0x80
		inside[i] = start[i] || b == '-' || b == '.' || (b >= '0' && b <= '9')
	}
	return start, inside
}()

// isXMLSpace reports whether b is XML whitespace.
func isXMLSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\r' || b == '\n'
}
