// Package xmlhedge bridges XML documents and the hedge data model: an XML
// document is an ordered tree (Section 1 of the paper), read here as a
// one-tree hedge whose elements are Σ-labeled nodes and whose character
// data becomes text leaves (variables named hedge.TextVar, with the actual
// characters preserved as payload).
//
// Attributes, comments, processing instructions, and the XML declaration
// are skipped: the paper's framework conditions on element structure (its
// Section 2 sketches how attributes could be folded into the alphabet; that
// extension is out of scope here).
package xmlhedge

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"xpe/internal/hedge"
)

// Options controls parsing.
type Options struct {
	// KeepWhitespace retains whitespace-only text nodes; by default they
	// are dropped (the usual reading for document-oriented schemas).
	KeepWhitespace bool
}

// Parse reads an XML document into a hedge. It is the record splitter
// reading each top-level element as one record, so a document parses
// exactly as a stream of it does (tok.go notes where that differs from
// encoding/xml). The result has one node per top-level element, normally
// just the document element; syntax errors are *xml.SyntaxError values,
// wrapped.
func Parse(r io.Reader, opts Options) (hedge.Hedge, error) {
	rr := NewRecordReader(r, RecordOptions{KeepWhitespace: opts.KeepWhitespace})
	defer rr.Release()
	rr.rootDepth = 0
	var top hedge.Hedge
	for {
		rec, err := rr.Read(nil)
		if err == io.EOF {
			break
		}
		if rpe, ok := err.(*RecordParseError); ok {
			err = rpe.Err // the record is the document: no index to report
		}
		if err != nil {
			return nil, err
		}
		top = append(top, rec.Hedge...)
	}
	if len(top) == 0 {
		return nil, fmt.Errorf("xmlhedge: no document element")
	}
	return top, nil
}

// ParseString is Parse over a string.
func ParseString(s string, opts Options) (hedge.Hedge, error) {
	return Parse(strings.NewReader(s), opts)
}

// MustParseString is ParseString, panicking on error; for tests and
// examples.
func MustParseString(s string) hedge.Hedge {
	h, err := ParseString(s, Options{})
	if err != nil {
		panic(err)
	}
	return h
}

// Write serializes a hedge back to XML. Text leaves emit their payload
// (escaped); non-text variables emit their name as character data;
// substitution symbols are rejected (they have no XML form).
func Write(w io.Writer, h hedge.Hedge) error {
	for _, n := range h {
		if err := writeNode(w, n); err != nil {
			return err
		}
	}
	return nil
}

func writeNode(w io.Writer, n *hedge.Node) error {
	switch n.Kind {
	case hedge.Elem:
		if _, err := fmt.Fprintf(w, "<%s>", n.Name); err != nil {
			return err
		}
		if err := Write(w, n.Children); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "</%s>", n.Name)
		return err
	case hedge.Var:
		text := n.Text
		if text == "" && n.Name != hedge.TextVar {
			text = n.Name
		}
		return xml.EscapeText(w, []byte(text))
	default:
		return fmt.Errorf("xmlhedge: cannot serialize substitution symbol %q", n.Name)
	}
}

// ToString serializes a hedge to an XML string.
func ToString(h hedge.Hedge) (string, error) {
	var b strings.Builder
	if err := Write(&b, h); err != nil {
		return "", err
	}
	return b.String(), nil
}
