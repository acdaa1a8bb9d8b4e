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
// tailReader is the one read buffer every byte path shares. Compaction
// keeps the last tailWindow consumed bytes in place before the read
// position, so rewind can re-anchor the scanner or the tokenizer at any
// recent offset of an unseekable reader; a pin keeps every byte from the
// pinned offset on, so the prefilter skim can return to a record it keeps.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
)

// tailWindow is how far back rewind can re-anchor. It bounds the longest
// start-tag prefix the scanner consumes before a hit and must hand back to
// the tokenizer: `<` + split name + delimiter.
const tailWindow = 256

// errLookahead is fill's failure when a pin's cap leaves no room to read:
// the skim gives up on the record and it parses normally.
var errLookahead = errors.New("xmlhedge: prefilter lookahead exhausted")

// errReleased is fill's failure after release.
var errReleased = errors.New("xmlhedge: read after Release")

// freeBufs holds the read buffers of released readers (see
// RecordReader.Release): a buffer keeps the size its records grew it to, so
// the next run over records alike reads without growing one. Unlike a
// sync.Pool the list survives collections, so a GC between two runs does
// not cost the next one its buffer; it keeps at most maxFreeBufs buffers
// of at most maxFreeBuf bytes, so one huge record does not stay resident.
var freeBufs struct {
	sync.Mutex
	bufs [][]byte
}

const (
	maxFreeBufs = 4
	maxFreeBuf  = 256 << 10
)

// getBuf takes a released buffer, or makes a 4 KB one.
func getBuf() []byte {
	freeBufs.Lock()
	n := len(freeBufs.bufs)
	if n == 0 {
		freeBufs.Unlock()
		return make([]byte, 4096)
	}
	b := freeBufs.bufs[n-1]
	freeBufs.bufs[n-1] = nil
	freeBufs.bufs = freeBufs.bufs[:n-1]
	freeBufs.Unlock()
	return b
}

// putBuf returns b to freeBufs, unless it is too big or the list is full.
func putBuf(b []byte) {
	if cap(b) > maxFreeBuf {
		return
	}
	freeBufs.Lock()
	if len(freeBufs.bufs) < maxFreeBufs {
		freeBufs.bufs = append(freeBufs.bufs, b[:cap(b)])
	}
	freeBufs.Unlock()
}

// tailReader buffers reads from src in buf, unconsumed bytes in buf[r:w],
// for the tokenizer and the resynchronization scanner alike. off is the
// absolute offset of the next byte to consume. Everything in buf[:r] was
// consumed already: compaction keeps the last tailWindow consumed bytes
// there, and every byte from the pin on, so rewind can re-deliver them.
type tailReader struct {
	src  io.Reader
	buf  []byte
	r, w int
	rerr error // sticky read error from src, delivered after the buffer drains
	off  int64

	// nl counts the '\n' bytes before offset nlAt ≤ off: lines are counted
	// in bulk when compaction drops bytes or an error asks, not per byte.
	nl   int
	nlAt int64

	// pin, when not negative, is an absolute offset compaction keeps
	// every byte from; fill buffers at most pinCap bytes past it.
	pin    int64
	pinCap int
}

func newTailReader(r io.Reader) *tailReader {
	return &tailReader{src: r, buf: getBuf(), pin: -1}
}

// release returns the buffer to freeBufs; later reads fail. Nothing a
// reader hands out points into the buffer: node names and text are copied
// into the arena or the heap, and errors and trace events carry copies.
func (t *tailReader) release() {
	if t.buf == nil {
		return
	}
	putBuf(t.buf)
	t.buf, t.r, t.w = nil, 0, 0
	t.rerr = errReleased
}

// window returns the buffered unconsumed bytes, possibly none.
func (t *tailReader) window() []byte { return t.buf[t.r:t.w] }

// idx is the buffer index of absolute offset abs, which must be buffered.
func (t *tailReader) idx(abs int64) int { return t.r - int(t.off-abs) }

// lines returns the number of '\n' bytes consumed so far.
func (t *tailReader) lines() int {
	t.countTo(t.r)
	return t.nl
}

// countTo advances the newline count through buffer index i.
func (t *tailReader) countTo(i int) {
	if from := t.idx(t.nlAt); i > from {
		t.nl += bytes.Count(t.buf[from:i], newline)
		t.nlAt += int64(i - from)
	}
}

// compact moves the unconsumed bytes, the replay tail and any pinned bytes
// to the front of buf, freeing room for reads at the end.
func (t *tailReader) compact() {
	keep := min(t.r, tailWindow)
	if t.pin >= 0 {
		keep = max(keep, int(t.off-t.pin))
	}
	if keep == t.r {
		return
	}
	t.countTo(t.r - keep)
	n := copy(t.buf, t.buf[t.r-keep:t.w])
	t.r, t.w = keep, n
}

// fill reads more input after the buffered bytes, keeping all of them: a
// full or drained buffer is compacted first, and one still full doubles.
// It returns nil once a byte has arrived, the sticky read error at the end
// of input, and errLookahead when a pin's cap is reached.
func (t *tailReader) fill() error {
	if t.rerr != nil {
		return t.rerr
	}
	if t.w == len(t.buf) || t.r == t.w {
		t.compact()
	}
	end := len(t.buf)
	if t.pin >= 0 {
		end = t.idx(t.pin) + t.pinCap
		if t.w >= end {
			return errLookahead
		}
	}
	if t.w == len(t.buf) {
		nb := make([]byte, 2*len(t.buf))
		copy(nb, t.buf[:t.w])
		t.buf = nb
	}
	end = min(end, len(t.buf))
	for {
		n, err := t.src.Read(t.buf[t.w:end])
		t.w, t.rerr = t.w+n, err
		if n > 0 {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// peek returns a non-empty slice of the buffered unconsumed bytes,
// reading more input when none are buffered, or fill's error.
func (t *tailReader) peek() ([]byte, error) {
	if t.r == t.w {
		if err := t.fill(); err != nil {
			return nil, err
		}
	}
	return t.buf[t.r:t.w], nil
}

// consume advances past n peeked bytes. They stay in buf, where rewind
// can reach them, until a compaction moves the read position on.
func (t *tailReader) consume(n int) {
	t.r += n
	t.off += int64(n)
}

// skipTo consumes the window through the first occurrence of pat and
// reports true; failing that, it consumes all but the last len(pat)-1
// bytes, which may begin one, and reports false: fill and search again.
func (t *tailReader) skipTo(pat []byte) bool {
	w := t.window()
	if j := bytes.Index(w, pat); j >= 0 {
		t.consume(j + len(pat))
		return true
	}
	t.consume(max(len(w)-len(pat)+1, 0))
	return false
}

// rewind moves the read position back to absolute offset abs, so the
// consumed bytes from abs on are read again before the live input. abs
// must lie within the tail window.
func (t *tailReader) rewind(abs int64) error {
	back := t.off - abs
	if back < 0 || back > tailWindow || back > int64(t.r) {
		return fmt.Errorf("xmlhedge: resync offset %d outside the replay window ending at %d", abs, t.off)
	}
	t.moveTo(abs)
	return nil
}

// moveTo sets the read position back to the buffered offset abs.
func (t *tailReader) moveTo(abs int64) {
	if t.nlAt > abs {
		t.nl -= bytes.Count(t.buf[t.idx(abs):t.idx(t.nlAt)], newline)
		t.nlAt = abs
	}
	t.r = t.idx(abs)
	t.off = abs
}

// pinHere makes compaction keep every byte from the read position on, at
// most limit of them, until unpin.
func (t *tailReader) pinHere(limit int) { t.pin, t.pinCap = t.off, limit }

// unpin releases the pin, first moving the read position back to it when
// back is set.
func (t *tailReader) unpin(back bool) {
	if back {
		t.moveTo(t.pin)
	}
	t.pin = -1
}

// scanForRecord raw-scans from rr.scanPos for the next plausible record
// start (`<` + split name + delimiter) and returns its absolute offset.
// The scan position advances past everything inspected, so a failed scan
// never re-inspects bytes. Returns io.EOF at a clean end of input.
func (rr *RecordReader) scanForRecord() (int64, error) {
	if err := rr.tr.rewind(rr.scanPos); err != nil {
		return 0, err
	}
	sc := &rawScanner{t: rr.tr, rr: rr}
	pos, err := sc.findRecordStart(rr.opts.Split)
	rr.scanPos = rr.tr.off
	if err != nil {
		return 0, err
	}
	// Resume the next scan after this candidate's '<', so a candidate that
	// fails to parse cannot be found again.
	rr.scanPos = pos + 1
	return pos, nil
}

// rawScanner walks raw bytes looking for a start tag of a given name,
// skipping comments, CDATA sections, processing instructions, directives
// and quoted attribute values. It runs only in degraded mode, after markup
// corruption, and validates nothing: the tokenizer parses what it finds.
type rawScanner struct {
	t  *tailReader
	rr *RecordReader
}

// fill reads the next window of input, polling the reader's context and
// stream budget first: one poll per window.
func (s *rawScanner) fill() error {
	if err := s.rr.pollNowAt(s.t.off); err != nil {
		return err
	}
	return s.t.fill()
}

// peek returns the unconsumed window, filling it when empty.
func (s *rawScanner) peek() ([]byte, error) {
	if s.t.r == s.t.w {
		if err := s.fill(); err != nil {
			return nil, err
		}
	}
	return s.t.window(), nil
}

// findRecordStart returns the absolute offset of the next `<name` whose
// name ends exactly at a tag delimiter ('>', '/', or whitespace).
func (s *rawScanner) findRecordStart(name string) (int64, error) {
	if name == "" {
		return 0, fmt.Errorf("xmlhedge: resynchronization requires a named split")
	}
	for {
		w, err := s.peek()
		if err != nil {
			return 0, err
		}
		i := bytes.IndexByte(w, '<')
		if i < 0 {
			s.t.consume(len(w))
			continue
		}
		start := s.t.off + int64(i)
		s.t.consume(i + 1)
		if w, err = s.peek(); err != nil {
			return 0, err
		}
		switch c := w[0]; {
		case c == '<':
			// Malformed "<<": the second '<' is a fresh candidate.
		case c == '!':
			s.t.consume(1)
			err = s.skipBang()
		case c == '?':
			s.t.consume(1)
			err = s.skipPast(piEnd)
		case c == '/':
			s.t.consume(1)
			err = s.skipTag()
		case isNameStart(c):
			ok, d, merr := s.matchName(name)
			if merr != nil {
				return 0, merr
			}
			if ok && (d == '>' || d == '/' || isXMLSpace(d)) {
				return start, nil
			}
			// A '<' cutting the tag short is rescanned as a candidate.
			if d != '<' {
				s.t.consume(1)
				if d != '>' {
					err = s.skipTag()
				}
			}
		default:
			// "<" followed by junk ('=', digits, ...): not a tag; keep
			// scanning from the byte after it.
			s.t.consume(1)
		}
		if err != nil {
			return 0, err
		}
	}
}

// matchName consumes the name at the read position, reporting whether it
// spells exactly name, and returns the byte after it, unconsumed.
func (s *rawScanner) matchName(name string) (match bool, delim byte, err error) {
	n, ok := 0, true
	for {
		w, err := s.peek()
		if err != nil {
			return false, 0, err
		}
		i := 0
		for ; i < len(w) && isNameByte(w[i]); i++ {
			if ok && n < len(name) && name[n] == w[i] {
				n++
			} else {
				ok = false
			}
		}
		s.t.consume(i)
		if i < len(w) {
			return ok && n == len(name), w[i], nil
		}
	}
}

// skipTag consumes bytes through the '>' closing the current tag, honoring
// single- and double-quoted attribute values.
func (s *rawScanner) skipTag() error {
	for {
		w, err := s.peek()
		if err != nil {
			return err
		}
		i := 0
		for i < len(w) && w[i] != '>' && w[i] != '"' && w[i] != '\'' {
			i++
		}
		if i == len(w) {
			s.t.consume(i)
			continue
		}
		s.t.consume(i + 1)
		if w[i] == '>' {
			return nil
		}
		if err := s.skipPast(quoteEnd[w[i]]); err != nil {
			return err
		}
	}
}

// skipBang handles `<!`: comments (`<!--` ... `-->`), CDATA/conditional
// sections (`<![` ... `]]>`), and directives (naive `>` terminator — a
// DOCTYPE with an internal subset may end the skip early, which only costs
// extra scanning).
func (s *rawScanner) skipBang() error {
	w, err := s.peek()
	if err != nil {
		return err
	}
	s.t.consume(1)
	switch w[0] {
	case '-':
		if w, err = s.peek(); err != nil {
			return err
		}
		if s.t.consume(1); w[0] == '-' {
			return s.skipPast(commentEnd)
		}
	case '[':
		return s.skipPast(cdataEnd)
	case '>':
		return nil
	}
	return s.skipTag()
}

// skipPast consumes input through the next occurrence of pat, with the
// tokenizer's terminator search.
func (s *rawScanner) skipPast(pat []byte) error {
	for !s.t.skipTo(pat) {
		if err := s.fill(); err != nil {
			return err
		}
	}
	return nil
}

// isNameStart reports whether b can begin an XML name. Multi-byte UTF-8
// sequences (b >= 0x80) are accepted wholesale; the decoder re-validates
// whatever the scanner proposes.
func isNameStart(b byte) bool { return nameStartTab[b] }

// isNameByte reports whether b can appear inside an XML name.
func isNameByte(b byte) bool { return nameByteTab[b] }

// isXMLSpace reports whether b is XML whitespace.
func isXMLSpace(b byte) bool { return spaceTab[b] }

// nameStartTab, nameByteTab and spaceTab are isNameStart, isNameByte and
// isXMLSpace as tables: one load per byte on the scanners' hot loops.
var nameStartTab, nameByteTab, spaceTab = func() (start, inside, space [256]bool) {
	for i := range start {
		b := byte(i)
		start[i] = b == '_' || b == ':' || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || b >= 0x80
		inside[i] = start[i] || b == '-' || b == '.' || (b >= '0' && b <= '9')
		space[i] = b == ' ' || b == '\t' || b == '\r' || b == '\n'
	}
	return start, inside, space
}()
