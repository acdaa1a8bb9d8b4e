package xmlhedge

// Byte-level XML tokenization: the package's one reader of XML grammar,
// for Parse, the record splitter and the prefilter skim alike. It builds
// none of encoding/xml's per-token allocations (names are interned,
// attributes dropped, text copied into the record arena): it scans the
// read buffer's window in place with memchr-style searches and name
// tables, consumes each run in one step, and passes bodies of any length
// through the window a piece at a time. Line numbers are the read buffer's
// bulk '\n' count plus the lone '\r' line ends of text and CDATA.
//
// It mirrors encoding/xml where the readers depend on it: the same tokens
// for well-formed input (CDATA runs arrive like the decoder's CharData,
// "\r\n" and "\r" normalize to "\n", entities expand, comments, PIs and
// directives vanish) and *xml.SyntaxError failures at the same
// malformations, which split.go's recovery classifies as resynchronizable.
// Known divergences, pinned in TestParseDivergences: characters and names
// are not validated against the XML charset, attribute values and PI
// targets are not checked, the XML declaration is ignored, and end tags
// match raw prefixed names.

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"
)

// newline is what the read buffer counts lines by.
var newline = []byte{'\n'}

// Terminators the tokenizer searches bodies for, as does the resync
// scanner; quoteEnd[q] ends an attribute value opened by quote q.
var (
	commentEnd = []byte("-->")
	cdataEnd   = []byte("]]>")
	piEnd      = []byte("?>")
	quoteEnd   = [...][]byte{'"': []byte(`"`), '\'': []byte(`'`)}
)

// scanChunk bounds how far a text or CDATA search looks ahead, so the work
// per entity or '\r' stays constant however much a pin has buffered.
const scanChunk = 4096

type tokKind uint8

const (
	tokStart tokKind = iota + 1 // start tag; name holds the local name
	tokEnd                      // end tag (synthesized for self-closing tags)
	tokText                     // character data; text holds the decoded bytes
)

// tokenizer scans XML into the three token kinds the readers consume.
// The name and text slices returned with a token alias internal buffers
// and are valid only until the following next call.
type tokenizer struct {
	src *tailReader
	// crs counts the lone '\r' line ends of text and CDATA; nl0 is the
	// source's '\n' count where the tokenizer started. Together they give
	// the 1-based line of xml.SyntaxError.
	crs, nl0 int

	kind tokKind
	name []byte // tokStart: local name (namespace prefix stripped)
	text []byte // tokText: decoded character data

	selfClose bool // a "/>" start tag was returned; next emits its end

	// Raw names of open elements for end-tag matching, packed into one
	// buffer: openBuf[openOff[i]:] suffixed by later names.
	openBuf []byte
	openOff []int

	scratch []byte // token assembly: names, decoded text
	amp, cr absent // how far text is known free of '&' and '\r'

	// skimming is set while pinned: a text token then holds a digest, each
	// run of plain bytes one byte, ' ' for white space and 'x' otherwise,
	// which keeps what the skim reads (is there text, is it all space).
	skimming bool
	// pinned is the state unpin restores when it rewinds (see pin).
	pinned struct {
		crs, depth, buf int
		selfClose       bool
	}
}

func newTokenizer(src *tailReader) *tokenizer {
	return &tokenizer{src: src, nl0: src.lines()}
}

// reset restarts the tokenizer at its source's read position, keeping its
// buffers.
func (t *tokenizer) reset() {
	*t = tokenizer{src: t.src, nl0: t.src.lines(),
		openBuf: t.openBuf[:0], openOff: t.openOff[:0], scratch: t.scratch[:0]}
}

// off is the absolute input offset of the next unconsumed byte; between
// next calls it is exactly the end of the last token.
func (t *tokenizer) off() int64 { return t.src.off }

func (t *tokenizer) syntax(msg string) error {
	return &xml.SyntaxError{Msg: msg, Line: 1 + t.crs + t.src.lines() - t.nl0}
}

// fail consumes the offending byte at the read position and reports msg,
// so the error's offset and line are those just past it, as the decoder's.
func (t *tokenizer) fail(msg string) error {
	t.src.consume(1)
	return t.syntax(msg)
}

// eof turns a source failure where the input may not end into the
// tokenizer's error, consuming what is left of the window: io.EOF becomes
// the decoder-compatible "unexpected EOF" syntax error, anything else
// passes through.
func (t *tokenizer) eof(err error) error {
	t.src.consume(t.src.w - t.src.r)
	if err == io.EOF {
		return t.syntax("unexpected EOF")
	}
	return err
}

// peekByte returns the byte at the read position without consuming it; the
// input may not end there.
func (t *tokenizer) peekByte() (byte, error) {
	if w := t.src.window(); len(w) > 0 {
		return w[0], nil
	}
	if err := t.src.fill(); err != nil {
		return 0, t.eof(err)
	}
	return t.src.buf[t.src.r], nil
}

// skip consumes the run of class bytes at the read position (names by
// nameByteTab, white space by spaceTab), appending it to scratch when keep
// is set, and returns the byte after it, unconsumed.
func (t *tokenizer) skip(class *[256]bool, keep bool) (byte, error) {
	for {
		w := t.src.window()
		n := 0
		for n < len(w) && class[w[n]] {
			n++
		}
		if keep {
			t.scratch = append(t.scratch, w[:n]...)
		}
		t.src.consume(n)
		if n < len(w) {
			return w[n], nil
		}
		if err := t.src.fill(); err != nil {
			return 0, t.eof(err)
		}
	}
}

// skipPast consumes input through the next occurrence of pat.
func (t *tokenizer) skipPast(pat []byte) error {
	for !t.src.skipTo(pat) {
		if err := t.src.fill(); err != nil {
			return t.eof(err)
		}
	}
	return nil
}

// next advances to the next token; after a nil return kind/name/text
// describe it. A clean end of input (all elements closed) is io.EOF; end
// of input with open elements or inside markup is an *xml.SyntaxError,
// exactly as encoding/xml classifies it.
func (t *tokenizer) next() error {
	if t.selfClose {
		t.selfClose = false
		t.pop()
		t.kind = tokEnd
		return nil
	}
	t.scratch = t.scratch[:0]
	for {
		var b byte // the byte after the '<' of the next markup
		if w := t.src.window(); len(w) > 1 && w[0] == '<' {
			b = w[1]
			t.src.consume(1)
		} else {
			err := t.gatherText()
			if len(t.scratch) > 0 {
				// Pending text is a token even at EOF (the EOF re-surfaces
				// on the next call: source errors are sticky). A syntax
				// error mid-text surfaces immediately, as the decoder's
				// would.
				if err == nil || err == io.EOF {
					t.kind, t.text = tokText, t.scratch
					return nil
				}
				return err
			}
			if err != nil {
				if err == io.EOF && len(t.openOff) > 0 {
					return t.syntax("unexpected EOF")
				}
				return err
			}
			t.src.consume(1) // the '<' gatherText stopped at
			if b, err = t.peekByte(); err != nil {
				return err
			}
		}
		switch {
		case b == '/':
			t.src.consume(1)
			return t.endTag()
		case b == '!':
			t.src.consume(1)
			isCData, err := t.bang()
			if err != nil {
				return err
			}
			if isCData {
				// A CDATA section is its own token, like the decoder's
				// CharData (adjacent plain text was returned before it).
				t.kind, t.text = tokText, t.scratch
				return nil
			}
		case b == '?':
			t.src.consume(1)
			if err := t.skipPast(piEnd); err != nil {
				return err
			}
		case isNameStart(b):
			return t.startTag()
		default:
			return t.fail("expected element name after <")
		}
	}
}

// gatherText accumulates character data into scratch until the next '<'
// (left unconsumed) or end of input, expanding entities and normalizing
// "\r\n" and "\r" to "\n" exactly as encoding/xml does. Source errors,
// io.EOF included, pass through raw.
func (t *tokenizer) gatherText() error {
	for {
		w := t.src.window()
		if len(w) == 0 {
			if err := t.src.fill(); err != nil {
				return err
			}
			continue
		}
		if w[0] == '<' {
			return nil
		}
		w = w[:min(len(w), scanChunk)]
		// Bulk-copy the run up to the next byte needing attention.
		n := len(w)
		if j := bytes.IndexByte(w, '<'); j >= 0 {
			n = j
		}
		n = t.amp.upTo('&', t.src.off, w, n)
		n = t.cr.upTo('\r', t.src.off, w, n)
		t.addText(w[:n])
		t.src.consume(n)
		if n == len(w) {
			continue
		}
		switch w[n] {
		case '<':
			return nil
		case '&':
			t.src.consume(1)
			if err := t.entity(); err != nil {
				return err
			}
		case '\r':
			t.crlf()
		}
	}
}

// addText appends a run of character data to scratch; a skimming
// tokenizer appends its digest instead (see skimming).
func (t *tokenizer) addText(run []byte) {
	switch {
	case !t.skimming:
		t.scratch = append(t.scratch, run...)
	case len(run) == 0:
	case isSpace(run):
		t.scratch = append(t.scratch, ' ')
	default:
		t.scratch = append(t.scratch, 'x')
	}
}

// absent records that no byte of one value occurs in [from, to), to being
// the next one's offset or the end of the last search, so text runs search
// each byte of a window for '&' and '\r' once, not once per run.
type absent struct{ from, to int64 }

// upTo returns the index of the first c in w[:n], w being the window at
// absolute offset off.
func (s *absent) upTo(c byte, off int64, w []byte, n int) int {
	if s.from <= off && s.to-off >= int64(n) {
		return n // known free through w[:n]
	}
	return s.search(c, off, w, n)
}

// search is upTo past what is known.
func (s *absent) search(c byte, off int64, w []byte, n int) int {
	i := 0 // w[:i] is known free
	if s.from <= off && s.to >= off {
		if i = int(s.to - off); w[i] == c {
			return i
		}
	}
	s.from, s.to = off, off+int64(len(w))
	if j := bytes.IndexByte(w[i:], c); j >= 0 {
		s.to = off + int64(i+j)
	}
	return min(int(s.to-off), n)
}

// crlf consumes the '\r' at the read position and a '\n' right after it,
// appending one '\n' to scratch; a lone '\r' counts as a line of its own.
func (t *tokenizer) crlf() {
	t.src.consume(1)
	t.scratch = append(t.scratch, '\n')
	if w, err := t.src.peek(); err == nil && w[0] == '\n' {
		t.src.consume(1)
	} else {
		t.crs++
	}
}

// entity decodes one entity, its '&' consumed, into scratch: the five
// predefined names plus numeric character references, at most 16 bytes
// between '&' and ';'.
func (t *tokenizer) entity() error {
	const noSemi = "invalid character entity & (no semicolon)"
	for {
		w := t.src.window()
		for i := 0; i < len(w) && i <= 16; i++ {
			b := w[i]
			if b == ';' {
				r, ok := entityRune(w[:i])
				t.src.consume(i + 1)
				if !ok {
					return t.syntax(fmt.Sprintf("invalid character entity &%s;", w[:i]))
				}
				t.scratch = utf8.AppendRune(t.scratch, r)
				return nil
			}
			if i == 16 || !(b == '#' || isNameByte(b)) {
				t.src.consume(i)
				return t.fail(noSemi)
			}
		}
		if err := t.src.fill(); err != nil {
			t.src.consume(t.src.w - t.src.r)
			if err == io.EOF {
				return t.syntax(noSemi)
			}
			return err
		}
	}
}

// entityRune decodes an entity's name ('&' and ';' stripped): one of the
// five predefined names, or a decimal or hex character reference.
func entityRune(ent []byte) (rune, bool) {
	if len(ent) > 0 && ent[0] == '#' {
		digits, base := ent[1:], 10
		if len(digits) > 0 && (digits[0] == 'x' || digits[0] == 'X') {
			digits, base = digits[1:], 16
		}
		n, err := strconv.ParseUint(string(digits), base, 32)
		return rune(n), err == nil && n <= utf8.MaxRune
	}
	switch string(ent) {
	case "lt":
		return '<', true
	case "gt":
		return '>', true
	case "amp":
		return '&', true
	case "apos":
		return '\'', true
	case "quot":
		return '"', true
	}
	return 0, false
}

// bang dispatches "<!" (consumed): comments and directives vanish; a CDATA
// section fills scratch and reports true so next returns it as a text
// token.
func (t *tokenizer) bang() (isCData bool, err error) {
	b, err := t.peekByte()
	if err != nil {
		return false, err
	}
	switch b {
	case '-':
		t.src.consume(1)
		if b, err = t.peekByte(); err != nil {
			return false, err
		}
		if t.src.consume(1); b != '-' {
			return false, t.syntax("invalid sequence <!- not part of <!--")
		}
		return false, t.skipPast(commentEnd)
	case '[':
		t.src.consume(1)
		for i := 0; i < len("CDATA["); i++ {
			if b, err = t.peekByte(); err != nil {
				return false, err
			}
			if t.src.consume(1); b != "CDATA["[i] {
				return false, t.syntax("invalid <![ sequence")
			}
		}
		return true, t.cdata()
	}
	return false, t.skipDirective()
}

// cdata appends a CDATA section's content (terminator excluded) to
// scratch, normalizing line endings; no entity expansion happens inside.
func (t *tokenizer) cdata() error {
	for {
		full := t.src.window()
		w := full[:min(len(full), scanChunk)]
		end := bytes.Index(w, cdataEnd)
		n := end
		if end < 0 {
			// Hold back a "]]" the chunk's end may cut off.
			n = max(len(w)-len(cdataEnd)+1, 0)
		}
		cr := bytes.IndexByte(w[:n], '\r')
		if cr >= 0 {
			n = cr
		}
		t.addText(w[:n])
		t.src.consume(n)
		switch {
		case cr >= 0:
			t.crlf()
		case end >= 0:
			t.src.consume(len(cdataEnd))
			return nil
		case len(w) < len(full): // more is buffered past the chunk
		default:
			if err := t.src.fill(); err != nil {
				return t.eof(err)
			}
		}
	}
}

// skipDirective consumes a "<!NAME ...>" directive ("<!" consumed),
// honoring quoted strings, comments and nesting: a DOCTYPE's internal
// subset ("[ <!ELEMENT ...> <!-- ... --> ]") must not end the skip early.
func (t *tokenizer) skipDirective() error {
	var nest [16]byte // stack of '<' / '[' openers, depth-capped
	sp, q, eof := 0, byte(0), false
	for {
		w, i := t.src.window(), 0
	scan:
		for ; i < len(w); i++ {
			switch b := w[i]; {
			case q != 0:
				if b == q {
					q = 0
				}
			case b == '\'' || b == '"':
				q = b
			case b == '<' && len(w)-i < 4 && !eof:
				break scan // too little buffered to tell a comment
			case b == '<' && string(w[i+1:min(i+4, len(w))]) == "!--":
				t.src.consume(i + 4)
				if err := t.skipPast(commentEnd); err != nil {
					return err
				}
				w, i = t.src.window(), -1
			case b == '<' || b == '[':
				if sp < len(nest) {
					nest[sp] = b
				}
				sp++
			case b == ']':
				if sp > 0 && (sp > len(nest) || nest[sp-1] == '[') {
					sp--
				}
			case b == '>':
				if sp == 0 {
					t.src.consume(i + 1)
					return nil
				}
				if sp <= len(nest) && nest[sp-1] == '<' {
					sp--
				}
			}
		}
		t.src.consume(i)
		if err := t.src.fill(); err == io.EOF && !eof {
			eof = true // no comment fits in what is left: scan it plainly
		} else if err != nil {
			return t.eof(err)
		}
	}
}

// startTag parses a start tag whose name begins at the read position (its
// '<' consumed): attributes are validated and dropped, the raw name pushed
// for end-tag matching. A "/>" tag sets selfClose so the next call emits
// the matching end token.
func (t *tokenizer) startTag() error {
	if w := t.src.window(); len(w) > 0 {
		// The common tag, "<name>" whole in the window, in one step.
		n := 1
		for n < len(w) && isNameByte(w[n]) {
			n++
		}
		if n < len(w) && w[n] == '>' {
			t.src.consume(n + 1)
			t.open(w[:n])
			return nil
		}
	}
	t.scratch = t.scratch[:0]
	b, err := t.skip(&nameByteTab, true)
	for {
		if err == nil && isXMLSpace(b) {
			b, err = t.skip(&spaceTab, false)
		}
		if err != nil {
			return err
		}
		switch {
		case b == '>':
			t.src.consume(1)
			t.open(t.scratch)
			return nil
		case b == '/':
			t.src.consume(1)
			if b, err = t.peekByte(); err != nil {
				return err
			}
			if t.src.consume(1); b != '>' {
				return t.syntax("expected /> in element")
			}
			t.selfClose = true
			t.open(t.scratch)
			return nil
		case !isNameStart(b):
			return t.fail("expected attribute name in element")
		}
		// Attribute: name, optional spaces, '=', optional spaces, quoted
		// value.
		if b, err = t.skip(&nameByteTab, false); err == nil && isXMLSpace(b) {
			b, err = t.skip(&spaceTab, false)
		}
		if err != nil {
			return err
		}
		if b != '=' {
			return t.fail("attribute name without = in element")
		}
		t.src.consume(1)
		if b, err = t.skip(&spaceTab, false); err != nil {
			return err
		}
		if b != '\'' && b != '"' {
			return t.fail("unquoted or missing attribute value in element")
		}
		t.src.consume(1)
		if err = t.skipPast(quoteEnd[b]); err == nil {
			b, err = t.peekByte()
		}
	}
}

// open pushes the element of raw name raw and makes it the start token.
func (t *tokenizer) open(raw []byte) {
	n := len(t.openBuf)
	t.openOff = append(t.openOff, n)
	t.openBuf = append(t.openBuf, raw...)
	t.kind = tokStart
	t.name = localName(t.openBuf[n:])
}

// localName is an element's name as records hold it: the raw tag name with
// any prefix stripped at the first colon that is not an end byte.
func localName(raw []byte) []byte {
	for i := 1; i < len(raw)-1; i++ {
		if raw[i] == ':' {
			return raw[i+1:]
		}
	}
	return raw
}

// endTag parses "</name>" (the "</" already consumed), matching it against
// the innermost open element by raw name so the readers observe mismatches
// as the same *xml.SyntaxError shapes encoding/xml reports.
func (t *tokenizer) endTag() error {
	if w, d := t.src.window(), len(t.openOff); d > 0 {
		// The common end tag, "</name>" closing the innermost element
		// whole in the window, in one step.
		top := t.top()
		if n := len(top); n < len(w) && w[n] == '>' && bytes.Equal(w[:n], top) {
			t.src.consume(n + 1)
			t.pop()
			t.kind = tokEnd
			return nil
		}
	}
	b, err := t.peekByte()
	if err != nil {
		return err
	}
	if !isNameStart(b) {
		return t.fail("expected element name after </")
	}
	t.scratch = t.scratch[:0]
	if b, err = t.skip(&nameByteTab, true); err == nil && isXMLSpace(b) {
		b, err = t.skip(&spaceTab, false)
	}
	if err != nil {
		return err
	}
	if b != '>' {
		return t.fail(fmt.Sprintf("invalid characters between </%s and >", t.scratch))
	}
	t.src.consume(1)
	if len(t.openOff) == 0 {
		return t.syntax(fmt.Sprintf("unexpected end element </%s>", t.scratch))
	}
	if top := t.top(); !bytes.Equal(top, t.scratch) {
		return t.syntax(fmt.Sprintf("element <%s> closed by </%s>", top, t.scratch))
	}
	t.pop()
	t.kind = tokEnd
	return nil
}

// top is the raw name of the innermost open element.
func (t *tokenizer) top() []byte { return t.openBuf[t.openOff[len(t.openOff)-1]:] }

func (t *tokenizer) pop() {
	n := len(t.openOff) - 1
	t.openBuf = t.openBuf[:t.openOff[n]]
	t.openOff = t.openOff[:n]
}

// pin marks the read position, just after the start tag next returned, as
// one unpin can rewind to: the source keeps every byte from it on (at most
// limit of them), and the tokenizer notes its state.
func (t *tokenizer) pin(limit int) {
	t.src.pinHere(limit)
	t.skimming = true
	t.pinned.crs, t.pinned.depth, t.pinned.buf = t.crs, len(t.openOff), len(t.openBuf)
	t.pinned.selfClose = t.selfClose
}

// unpin releases the pin. With back set, the tokenizer and its source
// return to the pinned start tag as if nothing since was read. Reslicing
// the open stack to its pinned length restores that element even once it
// closed: nothing is pushed after it, so its entries are still in place.
func (t *tokenizer) unpin(back bool) {
	t.src.unpin(back)
	t.skimming = false
	if !back {
		return
	}
	p := &t.pinned
	t.crs, t.openOff, t.openBuf = p.crs, t.openOff[:p.depth], t.openBuf[:p.buf]
	t.selfClose = p.selfClose
	t.kind, t.name = tokStart, localName(t.top())
}
