package xmlhedge

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"xpe/internal/hedge"
)

// splitAll drives a RecordReader over doc with the default split,
// collecting records until the first error.
func splitAll(t *testing.T, doc string, opts RecordOptions) ([]Record, error) {
	t.Helper()
	rr := NewRecordReader(strings.NewReader(doc), opts)
	var recs []Record
	for {
		rec, err := rr.Read(nil)
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}

// oracleParse is the test oracle: doc decoded by encoding/xml into a
// hedge, elements to nodes named by their local name and character data to
// text leaves, whitespace-only text dropped unless opts.KeepWhitespace and
// always outside the document element. The package itself reads XML only
// through its tokenizer; this is the independent reading it is held to.
func oracleParse(doc string, opts Options) (hedge.Hedge, error) {
	dec := xml.NewDecoder(strings.NewReader(doc))
	var stack []*hedge.Node
	var top hedge.Hedge
	appendNode := func(n *hedge.Node) {
		if len(stack) == 0 {
			top = append(top, n)
			return
		}
		parent := stack[len(stack)-1]
		parent.Children = append(parent.Children, n)
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := hedge.NewElem(t.Name.Local)
			appendNode(n)
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("unbalanced end element %s", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			text := string(t)
			if !opts.KeepWhitespace && strings.TrimSpace(text) == "" {
				continue
			}
			if len(stack) == 0 {
				if strings.TrimSpace(text) == "" {
					continue // prolog/epilog whitespace
				}
				return nil, errors.New("character data outside the document element")
			}
			n := hedge.NewVar(hedge.TextVar)
			n.Text = text
			appendNode(n)
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("unexpected end of input inside <%s>", stack[len(stack)-1].Name)
	}
	if len(top) == 0 {
		return nil, errors.New("no document element")
	}
	return top, nil
}

// sameHedge is Hedge.Equal with text payloads compared too.
func sameHedge(a, b hedge.Hedge) bool {
	if len(a) != len(b) {
		return false
	}
	for i, n := range a {
		m := b[i]
		if n.Kind != m.Kind || n.Name != m.Name || n.Text != m.Text || !sameHedge(n.Children, m.Children) {
			return false
		}
	}
	return true
}

// oracleCompare parses doc with the encoding/xml oracle and asserts every
// record the tokenizer-based splitter produced is subtree-identical, text
// included, to the node at the record's path in the oracle tree, and that
// Parse returns the oracle tree whole. KeepWhitespace on all sides keeps
// their whitespace policies aligned.
func oracleCompare(t *testing.T, doc string) {
	t.Helper()
	recs, serr := splitAll(t, doc, RecordOptions{KeepWhitespace: true})
	oracle, perr := oracleParse(doc, Options{KeepWhitespace: true})
	if serr != nil || perr != nil {
		// Error agreement is checked by the fuzzer within known-divergence
		// limits; the table entries here are all well-formed.
		t.Fatalf("splitter err = %v, parser err = %v", serr, perr)
	}
	elems := 0
	for _, c := range oracle[0].Children {
		if c.Kind == hedge.Elem {
			elems++
		}
	}
	if len(recs) != elems {
		t.Fatalf("got %d records, oracle has %d element children", len(recs), elems)
	}
	for _, rec := range recs {
		want := oracle.At(rec.Path)
		if want == nil {
			t.Fatalf("record %d path %s not in oracle tree", rec.Index, rec.Path)
		}
		if !sameHedge(rec.Hedge, hedge.Hedge{want}) {
			t.Fatalf("record %d at %s differs from oracle subtree", rec.Index, rec.Path)
		}
	}
	if h, err := ParseString(doc, Options{KeepWhitespace: true}); err != nil || !sameHedge(h, oracle) {
		t.Fatalf("Parse = %s, %v; oracle %s", h, err, oracle)
	}
}

func TestTokenizerAgainstParseOracle(t *testing.T) {
	docs := map[string]string{
		"plain":       `<f><r><id>1</id></r><r><id>2</id></r></f>`,
		"selfclose":   `<f><r/><r a="1"/><r><x/></r></f>`,
		"attrs":       `<f version='1.0'><r a="x" b='y' c = "z &lt; w"><v k="1"/></r></f>`,
		"entities":    `<f><r>a&lt;b&gt;c&amp;d&apos;e&quot;f</r><r>&#65;&#x42;&#x1F600;</r></f>`,
		"cdata":       "<f><r>pre<![CDATA[raw <&> stuff]]>post</r><r><![CDATA[]]></r></f>",
		"comments":    `<f><!-- between --><r>a<!-- inside -->b</r><r><!--<decoy></decoy>--></r></f>`,
		"pis":         `<?xml version="1.0"?><f><?target data?><r>x<?p q?>y</r></f>`,
		"doctype":     `<!DOCTYPE f [ <!ELEMENT f (r*)> <!ENTITY unused "v"> ]><f><r>t</r></f>`,
		"crlf":        "<f>\r\n<r>line1\r\nline2\rline3</r>\r</f>",
		"nested":      `<f><r><r>inner is part of outer</r></r><r>next</r></f>`,
		"prefixed":    `<f xmlns:n="u"><n:r>a</n:r><r n:a="1">b</r></f>`,
		"deep":        `<f><r><a><b><c><d>x</d></c></b></a></r></f>`,
		"mixed":       `<f>  <r>a</r> tail <r>b</r>  </f>`,
		"ws-records":  "<f>\n  <r> </r>\n  <r>\t</r>\n</f>",
		"empty-texts": `<f><r></r><r>x</r></f>`,
		"epilog":      "<f><r>x</r></f>\n<!-- trailing -->\n",
		// A colon that is a name's first or last byte strips no prefix.
		"colon-edges": `<f><a:/><:b>x</:b><r:><c:d/></r:></f>`,
	}
	for name, doc := range docs {
		t.Run(name, func(t *testing.T) { oracleCompare(t, doc) })
	}
}

// TestTokenizerErrors pins the malformations the recovery machinery
// classifies through *xml.SyntaxError: each must fail, and each must be an
// xml.SyntaxError exactly when the encoding/xml decoder reports one.
func TestTokenizerErrors(t *testing.T) {
	cases := map[string]struct {
		doc    string
		syntax bool // must surface as *xml.SyntaxError
	}{
		"mismatched-end":  {`<f><a></b></f>`, true},
		"stray-end":       {`<f></f></x>`, true},
		"unquoted-attr":   {`<f><a x=1></a></f>`, true},
		"missing-eq":      {`<f><a x "1"></a></f>`, true},
		"truncated-elem":  {`<f><a>text`, true},
		"truncated-tag":   {`<f><a`, true},
		"truncated-open":  {`<f><a/>`, true}, // EOF with <f> still open
		"bad-entity":      {`<f>&nosuch;</f>`, true},
		"bare-amp":        {`<f>a & b</f>`, true},
		"bad-numeric":     {`<f>&#xZZ;</f>`, true},
		"double-lt":       {`<f><<a/></f>`, true},
		"bad-name":        {`<f><1a/></f>`, true},
		"half-comment":    {`<f><!-x--></f>`, true},
		"text-at-top":     {`junk<f></f>`, false}, // splitter's own error
		"cross-nesting":   {`<f><a><b></a></b></f>`, true},
		"junk-in-end-tag": {`<f><a></a x></f>`, true},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := splitAll(t, tc.doc, RecordOptions{})
			if err == nil {
				t.Fatalf("no error for %q", tc.doc)
			}
			var se *xml.SyntaxError
			if got := errors.As(err, &se); got != tc.syntax {
				t.Fatalf("errors.As(xml.SyntaxError) = %v, want %v (err: %v)", got, tc.syntax, err)
			}
		})
	}
}

// TestTokenizerErrorLines holds the tokenizer's error line numbers, which
// the read buffer counts in bulk, to encoding/xml's on documents both
// reject at the same place, including ones whose line ends fall inside
// markup, across many buffer refills, and inside a prefiltered record.
// Each error falls before the last line, so a spurious unexpected EOF,
// which reports the last line, cannot pass for it.
func TestTokenizerErrorLines(t *testing.T) {
	long := strings.Repeat("a line of text\n", 1000)
	docs := map[string]string{
		"text":      "<f>\n<r>" + long + "</r>\n<r></x></r>\n</f>",
		"comment":   "<f><!--\n" + long + "--><r>\n</x></r>\n</f>",
		"pi":        "<f><?p\n" + long + "?>\n<r></x></r>\n</f>",
		"cdata":     "<f><r><![CDATA[" + long + "]]></r>\n<r></x></r>\n</f>",
		"attribute": "<f><r a='\n" + long + "'\n b=\"1\"></r><r></x></r>\n</f>",
		"tag-space": "<f><r\n\n\n></r\n\n>\n<r></x></r>\n</f>",
		"crlf":      "<f>\r\n<r>a\r\nb</r>\r\n<r></x></r>\n</f>",
		"entity":    "<f>\n<r>&lt;\n&#65;</r>\n<r>&bad;</r>\n</f>",
		"eof":       "<f>\n<r>" + long,
	}
	for name, doc := range docs {
		t.Run(name, func(t *testing.T) {
			_, oerr := oracleParse(doc, Options{})
			var want *xml.SyntaxError
			if !errors.As(oerr, &want) {
				t.Fatalf("oracle err = %v, want a syntax error", oerr)
			}
			for _, opts := range []RecordOptions{{}, {Prefilter: NewPrefilter([]string{"absent"})}} {
				_, err := splitAll(t, doc, opts)
				var got *xml.SyntaxError
				if !errors.As(err, &got) || got.Line != want.Line {
					t.Errorf("prefilter=%v: err = %v, want line %d (%v)", opts.Prefilter != nil, err, want.Line, oerr)
				}
			}
		})
	}
}

// FuzzSplitVsParse cross-checks the tokenizer-based splitter and Parse
// against the encoding/xml oracle on arbitrary input: whenever the oracle
// and the splitter accept a document, every record must equal the oracle
// subtree at its path, and whenever the oracle and Parse accept it, Parse
// must return the oracle tree. (Error agreement is deliberately not
// asserted — the tokenizer is laxer on attribute-value entities and
// encoding declarations by design; TestParseDivergences pins each
// difference.)
func FuzzSplitVsParse(f *testing.F) {
	f.Add(`<f><r><id>1</id></r><r a="x">t&amp;t</r></f>`)
	f.Add("<f>\r\n<r>a<!--c--><![CDATA[<&]]></r><r/></f>")
	f.Add(`<?xml version="1.0"?><!DOCTYPE f [<!ELEMENT f ANY>]><f><n:r>x</n:r></f>`)
	f.Add(`<f><r>&#x41;&#66;</r> tail <r><a><b/></a></r></f>`)
	f.Add(`<f><a:/><r>x</r></f>`)
	f.Add("\xef\xbb\xbf<?xml version=\"1.0\"?><f><r>x</r></f>")
	f.Fuzz(func(t *testing.T, doc string) {
		oracle, oerr := oracleParse(doc, Options{KeepWhitespace: true})
		if oerr != nil {
			return
		}
		if h, err := ParseString(doc, Options{KeepWhitespace: true}); err == nil && !sameHedge(h, oracle) {
			t.Fatalf("Parse = %s, oracle %s", h, oracle)
		}
		recs, serr := splitAll(t, doc, RecordOptions{KeepWhitespace: true})
		if serr != nil {
			return
		}
		for _, rec := range recs {
			want := oracle.At(rec.Path)
			if want == nil {
				t.Fatalf("record %d path %s not in oracle tree", rec.Index, rec.Path)
			}
			if !sameHedge(rec.Hedge, hedge.Hedge{want}) {
				t.Fatalf("record %d at %s differs from oracle subtree", rec.Index, rec.Path)
			}
		}
	})
}

// TestDirectiveComments: a comment inside a directive, such as a DOCTYPE's
// internal subset, is skipped as encoding/xml skips it, so its quotes and
// '>' neither end the directive nor swallow the document.
func TestDirectiveComments(t *testing.T) {
	for _, doc := range []string{
		`<!DOCTYPE f [ <!-- it's a note --> <!ELEMENT f ANY> ]><f><r>x</r></f>`,
		`<!DOCTYPE f <!-- a > b --> ><f><r/></f>`,
		`<!DOCTYPE f [ <!--]>--> ]><f><r/><!-- x --></f>`,
		// Too few bytes after a '<' to begin a comment, at the end of input.
		`<a/><!X <>>`,
	} {
		oracleCompare(t, doc)
	}
}

// TestByteOrderMark: one UTF-8 byte-order mark at the start of the input,
// before the document element or before an XML declaration, is skipped by
// Parse and by the record reader, unfiltered, prefiltered and under a named
// split, and its three bytes count in the input offset and the stream
// byte budget. A mark anywhere else is character data, and outside the
// document element an error.
func TestByteOrderMark(t *testing.T) {
	const mark = "\xef\xbb\xbf"
	for _, doc := range []string{
		mark + `<f><r>x</r><s/><r>y</r></f>`,
		mark + `<?xml version="1.0"?>` + "\n" + `<f><r>x</r><s/><r>y</r></f>`,
	} {
		h, err := ParseString(doc, Options{})
		if err != nil || h.String() != MustParseString(doc[len(mark):]).String() {
			t.Errorf("Parse(%q) = %s, %v", doc, h, err)
		}
		for name, opts := range map[string]RecordOptions{
			"unfiltered":  {},
			"prefiltered": {Prefilter: NewPrefilter([]string{"r"})},
			"named split": {Split: "r"},
		} {
			rr := NewRecordReader(strings.NewReader(doc), opts)
			var names []string
			for {
				rec, err := rr.Read(nil)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("%s %q: %v", name, doc, err)
				}
				names = append(names, rec.Hedge.String())
			}
			if want := []string{"r<$#text>", "r<$#text>"}; name != "unfiltered" && fmt.Sprint(names) != fmt.Sprint(want) {
				t.Errorf("%s %q: records %q, want %q", name, doc, names, want)
			} else if name == "unfiltered" && len(names) != 3 {
				t.Errorf("%s %q: records %q, want three", name, doc, names)
			}
			if got := rr.InputOffset(); got != int64(len(doc)) {
				t.Errorf("%s %q: input offset %d, want %d", name, doc, got, len(doc))
			}
		}
		// The mark counts against the stream byte budget, which the reader
		// checks before each record: a budget one byte short of the end of
		// the first record stops the second.
		end := int64(strings.Index(doc, "</r>") + len("</r>"))
		var le *LimitError
		if recs, err := splitAll(t, doc, RecordOptions{MaxStreamBytes: end - 1}); len(recs) != 1 || !errors.As(err, &le) {
			t.Errorf("%q: MaxStreamBytes %d read %d records, then %v; want one, then the stream limit", doc, end-1, len(recs), err)
		}
	}
	for _, doc := range []string{
		`<f><r>x</r></f>` + mark,
		mark + mark + `<f><r>x</r></f>`,
		` ` + mark + `<f><r>x</r></f>`,
	} {
		if _, err := ParseString(doc, Options{}); err == nil || !strings.Contains(err.Error(), "character data outside the document element") {
			t.Errorf("Parse(%q) = %v, want character data outside the document element", doc, err)
		}
		if _, err := splitAll(t, doc, RecordOptions{Prefilter: NewPrefilter([]string{"r"})}); err == nil {
			t.Errorf("prefiltered split of %q accepted the misplaced mark", doc)
		}
	}
}

// TestParseDivergences pins each place where Parse, which reads XML with
// the stream tokenizer, differs from the encoding/xml oracle: every entry
// asserts the oracle's verdict, to show the divergence is real, and the
// result Parse gives, which streams share. want is Parse's tree; a nil
// want means Parse rejects the document with an error containing err.
func TestParseDivergences(t *testing.T) {
	elem, text := hedge.NewElem, func(s string) *hedge.Node {
		n := hedge.NewVar(hedge.TextVar)
		n.Text = s
		return n
	}
	cases := []struct {
		name, doc string
		oracleOK  bool // the oracle accepts the document
		want      *hedge.Node
		err       string
	}{
		// The XML declaration is skipped like any PI: its encoding and
		// version are not checked, and the bytes are read as they come.
		{"encoding-declaration", `<?xml version="1.0" encoding="ISO-8859-1"?><a>x</a>`, false, elem("a", text("x")), ""},
		{"version-declaration", `<?xml version="1.1"?><a>x</a>`, false, elem("a", text("x")), ""},
		// Characters are not re-validated against the XML charset, in
		// text, in character references, or as UTF-8.
		{"control-char", "<a>\x01</a>", false, elem("a", text("\x01")), ""},
		{"control-char-ref", "<a>&#1;</a>", false, elem("a", text("\x01")), ""},
		{"invalid-utf8", "<a>\xff</a>", false, elem("a", text("\xff")), ""},
		{"cdata-end-in-text", "<a>]]></a>", false, elem("a", text("]]>")), ""},
		// Attribute values are skipped to their closing quote unchecked.
		{"attribute-entity", `<a x="&bogus;"/>`, false, elem("a"), ""},
		{"attribute-lt", `<a x="<"/>`, false, elem("a"), ""},
		// End tags match the start tag's raw prefixed name, and errors
		// name them so.
		{"end-tag-raw-name", `<p:a xmlns:p="u"></q:a>`, false, nil, "element <p:a> closed by </q:a>"},
		// Names: bytes from 0x80 up are name bytes without a Unicode
		// check, and the prefix is stripped at the first colon.
		{"non-ascii-name-byte", "<a\u00a0/>", false, elem("a\u00a0"), ""},
		{"two-colons", `<a:b:c/>`, false, elem("b:c"), ""},
		// A processing instruction needs no target name.
		{"pi-without-target", `<a><? x?></a>`, false, elem("a"), ""},
		// White space is XML's four bytes: text of other Unicode spaces is
		// kept, where the oracle's strings.TrimSpace drops it.
		{"unicode-space-text", "<a>\u00a0</a>", true, elem("a", text("\u00a0")), ""},
		// One UTF-8 byte-order mark may open the input, as XML allows; the
		// oracle reads it as character data outside the document element.
		{"byte-order-mark", "\xef\xbb\xbf<a>x</a>", false, elem("a", text("x")), ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, oerr := oracleParse(c.doc, Options{}); (oerr == nil) != c.oracleOK {
				t.Fatalf("oracle err = %v, want accepted = %v", oerr, c.oracleOK)
			}
			h, err := ParseString(c.doc, Options{})
			if c.want == nil {
				if err == nil || !strings.Contains(err.Error(), c.err) {
					t.Fatalf("Parse = %s, %v; want an error containing %q", h, err, c.err)
				}
				return
			}
			if err != nil || !sameHedge(h, hedge.Hedge{c.want}) {
				t.Fatalf("Parse = %s, %v; want %s", h, err, hedge.Hedge{c.want})
			}
		})
	}
}
