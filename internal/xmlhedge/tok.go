package xmlhedge

// Byte-level XML tokenization for the streaming splitter.
//
// encoding/xml spends most of the streaming pipeline's time and nearly all
// of its allocations on token construction: every start tag allocates a
// Name and an attribute slice, every text run a fresh []byte. The record
// splitter needs none of that — names are interned, attributes dropped,
// text copied into the record arena — so it tokenizes the input itself at
// byte level and reuses one scratch buffer for every token.
//
// The tokenizer mirrors encoding/xml's observable behavior where the
// splitter depends on it: the same token stream for well-formed input
// (CDATA runs arrive exactly like the decoder's CharData, "\r\n" and "\r"
// normalize to "\n", entities expand, comments/PIs/directives vanish), and
// *xml.SyntaxError failures at the same malformations (mismatched or stray
// end tags, unquoted attribute values, bad entities, truncated input), so
// the recovery classification in split.go — errors.As(*xml.SyntaxError) ⇒
// resynchronizable — keeps working unchanged. Known divergences, all on
// inputs the decoder also treats as edge cases: end tags match raw
// prefixed names without namespace resolution, character ranges are not
// re-validated against the XML charset, entities inside attribute values
// are not checked (values are dropped wholesale), and unsupported encoding
// declarations are ignored rather than rejected.

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"unicode/utf8"
)

// newline is what bulk runs count lines by: the tokenizer counts each
// '\n' it reads, and each '\r' in text and CDATA that no '\n' follows.
var newline = []byte{'\n'}

type tokKind uint8

const (
	tokStart tokKind = iota + 1 // start tag; name holds the local name
	tokEnd                      // end tag (synthesized for self-closing tags)
	tokText                     // character data; text holds the decoded bytes
)

// tokenizer scans XML into the three token kinds the splitter consumes.
// The name and text slices returned with a token alias internal buffers
// and are valid only until the following next call.
type tokenizer struct {
	src  *tailReader
	line int // 1-based, for xml.SyntaxError compatibility

	kind tokKind
	name []byte // tokStart: local name (namespace prefix stripped)
	text []byte // tokText: decoded character data

	selfClose bool // a "/>" start tag was returned; next emits its end

	// Raw names of open elements for end-tag matching, packed into one
	// buffer: openBuf[openOff[i]:] suffixed by later names.
	openBuf []byte
	openOff []int

	scratch []byte // token assembly: names, decoded text
}

func newTokenizer(src *tailReader) *tokenizer {
	return &tokenizer{src: src, line: 1}
}

// reset restarts the tokenizer at its source's read position, keeping its
// buffers.
func (t *tokenizer) reset() {
	t.line = 1
	t.kind = 0
	t.name, t.text = nil, nil
	t.selfClose = false
	t.openBuf = t.openBuf[:0]
	t.openOff = t.openOff[:0]
	t.scratch = t.scratch[:0]
}

// off is the absolute input offset of the next unconsumed byte; between
// next calls it is exactly the end of the last token.
func (t *tokenizer) off() int64 { return t.src.off }

func (t *tokenizer) syntax(msg string) error {
	return &xml.SyntaxError{Msg: msg, Line: t.line}
}

// readByte consumes and returns one byte; io.EOF passes through raw.
func (t *tokenizer) readByte() (byte, error) {
	w, err := t.src.peek()
	if err != nil {
		return 0, err
	}
	b := w[0]
	if b == '\n' {
		t.line++
	}
	t.src.consume(1)
	return b, nil
}

// mustByte is readByte for positions where the input may not end: EOF
// becomes the decoder-compatible "unexpected EOF" syntax error.
func (t *tokenizer) mustByte() (byte, error) {
	b, err := t.readByte()
	if err == io.EOF {
		return 0, t.syntax("unexpected EOF")
	}
	return b, err
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
		err := t.gatherText()
		if len(t.scratch) > 0 {
			// Pending text is a token even at EOF (the EOF re-surfaces on
			// the next call: source errors are sticky). A syntax error
			// mid-text surfaces immediately, as the decoder's would.
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
		b, err := t.mustByte()
		if err != nil {
			return err
		}
		switch {
		case b == '/':
			return t.endTag()
		case b == '!':
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
			if err := t.skipPI(); err != nil {
				return err
			}
		case isNameStart(b):
			return t.startTag(b)
		default:
			return t.syntax("expected element name after <")
		}
	}
}

// gatherText accumulates character data into scratch until the next '<'
// (left unconsumed) or end of input, expanding entities and normalizing
// "\r\n" and "\r" to "\n" exactly as encoding/xml does.
func (t *tokenizer) gatherText() error {
	for {
		w, err := t.src.peek()
		if err != nil {
			return err
		}
		if w[0] == '<' {
			return nil
		}
		// Bulk-copy the run up to the next byte needing attention.
		if n := textEnd(w); n > 0 {
			t.line += bytes.Count(w[:n], newline)
			t.scratch = append(t.scratch, w[:n]...)
			t.src.consume(n)
			if n == len(w) {
				continue
			}
			w = w[n:]
		}
		switch w[0] {
		case '<':
			return nil
		case '&':
			t.src.consume(1)
			if err := t.entity(); err != nil {
				return err
			}
		case '\r':
			t.src.consume(1)
			t.line++
			if w2, err2 := t.src.peek(); err2 == nil && w2[0] == '\n' {
				t.src.consume(1) // "\r\n" is one line ending, counted above
			}
			t.scratch = append(t.scratch, '\n')
		}
	}
}

// textEnd returns the index of the first '<', '&' or '\r' in w, or len(w).
func textEnd(w []byte) int {
	n := len(w)
	if j := bytes.IndexByte(w, '<'); j >= 0 {
		n = j
	}
	if j := bytes.IndexByte(w[:n], '&'); j >= 0 {
		n = j
	}
	if j := bytes.IndexByte(w[:n], '\r'); j >= 0 {
		n = j
	}
	return n
}

// nameRun consumes the rest of an XML name, appending it to scratch when
// keep is set, then consumes and returns the byte after it.
func (t *tokenizer) nameRun(keep bool) (byte, error) {
	for {
		w, err := t.src.peek()
		if err != nil {
			if err == io.EOF {
				return 0, t.syntax("unexpected EOF")
			}
			return 0, err
		}
		n := 0
		for n < len(w) && isNameByte(w[n]) {
			n++
		}
		if keep {
			t.scratch = append(t.scratch, w[:n]...)
		}
		if n == len(w) {
			t.src.consume(n)
			continue
		}
		d := w[n]
		if d == '\n' {
			t.line++
		}
		t.src.consume(n + 1)
		return d, nil
	}
}

// skipPast consumes input through the next c, counting the lines it
// passes; c itself must not be '\n'.
func (t *tokenizer) skipPast(c byte) error {
	for {
		w, err := t.src.peek()
		if err != nil {
			if err == io.EOF {
				return t.syntax("unexpected EOF")
			}
			return err
		}
		n := bytes.IndexByte(w, c)
		if n < 0 {
			n = len(w)
		}
		t.line += bytes.Count(w[:n], newline)
		if n < len(w) {
			t.src.consume(n + 1)
			return nil
		}
		t.src.consume(n)
	}
}

// entity decodes one entity (its '&' already consumed) into scratch: the
// five predefined names plus numeric character references.
func (t *tokenizer) entity() error {
	var buf [16]byte
	n := 0
	for {
		b, err := t.readByte()
		if err != nil {
			if err == io.EOF {
				return t.syntax("invalid character entity & (no semicolon)")
			}
			return err
		}
		if b == ';' {
			break
		}
		if n == len(buf) || !(b == '#' || isNameByte(b)) {
			return t.syntax("invalid character entity & (no semicolon)")
		}
		buf[n] = b
		n++
	}
	ent := buf[:n]
	if n > 0 && ent[0] == '#' {
		digits := ent[1:]
		base := rune(10)
		if len(digits) > 0 && (digits[0] == 'x' || digits[0] == 'X') {
			base, digits = 16, digits[1:]
		}
		var r rune
		ok := len(digits) > 0
		for _, d := range digits {
			var v rune
			switch {
			case d >= '0' && d <= '9':
				v = rune(d - '0')
			case base == 16 && d >= 'a' && d <= 'f':
				v = rune(d-'a') + 10
			case base == 16 && d >= 'A' && d <= 'F':
				v = rune(d-'A') + 10
			default:
				ok = false
			}
			if r = r*base + v; r > utf8.MaxRune {
				ok = false
			}
			if !ok {
				break
			}
		}
		if !ok {
			return t.syntax(fmt.Sprintf("invalid character entity &%s;", ent))
		}
		t.scratch = utf8.AppendRune(t.scratch, r)
		return nil
	}
	switch string(ent) {
	case "lt":
		t.scratch = append(t.scratch, '<')
	case "gt":
		t.scratch = append(t.scratch, '>')
	case "amp":
		t.scratch = append(t.scratch, '&')
	case "apos":
		t.scratch = append(t.scratch, '\'')
	case "quot":
		t.scratch = append(t.scratch, '"')
	default:
		return t.syntax(fmt.Sprintf("invalid character entity &%s;", ent))
	}
	return nil
}

// bang dispatches "<!": comments and directives vanish; a CDATA section
// fills scratch and reports true so next returns it as a text token.
func (t *tokenizer) bang() (isCData bool, err error) {
	b, err := t.mustByte()
	if err != nil {
		return false, err
	}
	switch b {
	case '-':
		c, err := t.mustByte()
		if err != nil {
			return false, err
		}
		if c != '-' {
			return false, t.syntax("invalid sequence <!- not part of <!--")
		}
		return false, t.skipComment()
	case '[':
		for i := 0; i < len("CDATA["); i++ {
			c, err := t.mustByte()
			if err != nil {
				return false, err
			}
			if c != "CDATA["[i] {
				return false, t.syntax("invalid <![ sequence")
			}
		}
		return true, t.cdata()
	default:
		return false, t.skipDirective(b)
	}
}

func (t *tokenizer) skipComment() error {
	var w [2]byte
	have := 0
	for {
		b, err := t.mustByte()
		if err != nil {
			return err
		}
		if b == '>' && have == 2 && w[0] == '-' && w[1] == '-' {
			return nil
		}
		if have < 2 {
			w[have] = b
			have++
		} else {
			w[0], w[1] = w[1], b
		}
	}
}

// cdata appends a CDATA section's content (terminator excluded) to
// scratch, normalizing line endings; no entity expansion happens inside.
func (t *tokenizer) cdata() error {
	start := len(t.scratch)
	for {
		b, err := t.mustByte()
		if err != nil {
			return err
		}
		if b == '\r' {
			t.line++
			if w, err2 := t.src.peek(); err2 == nil && w[0] == '\n' {
				t.src.consume(1)
			}
			b = '\n'
		}
		t.scratch = append(t.scratch, b)
		if n := len(t.scratch); b == '>' && n-start >= 3 &&
			t.scratch[n-2] == ']' && t.scratch[n-3] == ']' {
			t.scratch = t.scratch[:n-3]
			return nil
		}
	}
}

// skipPI consumes a processing instruction up to its "?>" ('<?' already
// consumed); the splitter has no use for PI content.
func (t *tokenizer) skipPI() error {
	prev := byte(0)
	for {
		b, err := t.mustByte()
		if err != nil {
			return err
		}
		if prev == '?' && b == '>' {
			return nil
		}
		prev = b
	}
}

// skipDirective consumes a "<!NAME ...>" directive, honoring quoted
// strings and nesting — a DOCTYPE's internal subset ("[ <!ELEMENT ...> ]")
// must not end the skip early. b is the first byte after "<!".
func (t *tokenizer) skipDirective(b byte) error {
	var nest [16]byte // stack of '<' / '[' openers, depth-capped
	sp := 0
	var q byte
	for {
		switch {
		case q != 0:
			if b == q {
				q = 0
			}
		case b == '\'' || b == '"':
			q = b
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
				return nil
			}
			if sp <= len(nest) && nest[sp-1] == '<' {
				sp--
			}
		}
		var err error
		if b, err = t.mustByte(); err != nil {
			return err
		}
	}
}

// startTag parses a start tag whose name begins with the already-consumed
// b: attributes are validated and dropped, the raw name pushed for
// end-tag matching. A "/>" tag sets selfClose so the next call emits the
// matching end token.
func (t *tokenizer) startTag(b byte) error {
	t.scratch = append(t.scratch[:0], b)
	d, err := t.nameRun(true)
	if err != nil {
		return err
	}
attrs:
	for {
		for isXMLSpace(d) {
			if d, err = t.mustByte(); err != nil {
				return err
			}
		}
		switch d {
		case '>':
			break attrs
		case '/':
			c, err := t.mustByte()
			if err != nil {
				return err
			}
			if c != '>' {
				return t.syntax("expected /> in element")
			}
			t.selfClose = true
			break attrs
		}
		if !isNameStart(d) {
			return t.syntax("expected attribute name in element")
		}
		if d, err = t.nameRun(false); err != nil {
			return err
		}
		for isXMLSpace(d) {
			if d, err = t.mustByte(); err != nil {
				return err
			}
		}
		if d != '=' {
			return t.syntax("attribute name without = in element")
		}
		if d, err = t.mustByte(); err != nil {
			return err
		}
		for isXMLSpace(d) {
			if d, err = t.mustByte(); err != nil {
				return err
			}
		}
		if d != '\'' && d != '"' {
			return t.syntax("unquoted or missing attribute value in element")
		}
		if err = t.skipPast(d); err != nil {
			return err
		}
		if d, err = t.mustByte(); err != nil {
			return err
		}
	}
	t.openOff = append(t.openOff, len(t.openBuf))
	t.openBuf = append(t.openBuf, t.scratch...)
	t.kind = tokStart
	t.name = localName(t.scratch)
	return nil
}

// localName is an element's name as records hold it: the raw tag name with
// any namespace prefix stripped at the first colon after its first byte.
// The tokenizer and the prefilter skim both take names through it, so a
// label the skim finds is exactly a name the parse produces.
func localName(raw []byte) []byte {
	for i := 1; i < len(raw); i++ {
		if raw[i] == ':' {
			return raw[i+1:]
		}
	}
	return raw
}

// endTag parses "</name>" (the "</" already consumed), matching it against
// the innermost open element by raw name so the splitter observes
// mismatches as the same *xml.SyntaxError shapes encoding/xml reports.
func (t *tokenizer) endTag() error {
	b, err := t.mustByte()
	if err != nil {
		return err
	}
	if !isNameStart(b) {
		return t.syntax("expected element name after </")
	}
	t.scratch = append(t.scratch[:0], b)
	d, err := t.nameRun(true)
	if err != nil {
		return err
	}
	for isXMLSpace(d) {
		if d, err = t.mustByte(); err != nil {
			return err
		}
	}
	if d != '>' {
		return t.syntax(fmt.Sprintf("invalid characters between </%s and >", t.scratch))
	}
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
