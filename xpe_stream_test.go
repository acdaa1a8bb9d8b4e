package xpe

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"xpe/internal/gen"
	"xpe/internal/hedge"
	"xpe/internal/xmlhedge"
)

// buildCorpus generates nDocs random docbook-like documents and serializes
// them back to back under a <corpus> wrapper, so the default record split
// (children of the document element) yields exactly the generated
// documents as records.
func buildCorpus(t testing.TB, nDocs int) ([]hedge.Hedge, string) {
	t.Helper()
	var b strings.Builder
	b.WriteString("<corpus>")
	docs := make([]hedge.Hedge, nDocs)
	for i := range docs {
		cfg := gen.DefaultDocConfig()
		cfg.Seed = int64(i + 1)
		docs[i] = gen.Document(cfg, 150+100*i)
		s, err := xmlhedge.ToString(docs[i])
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(s)
	}
	b.WriteString("</corpus>")
	return docs, b.String()
}

// TestSelectStreamDifferential: streaming a serialized corpus yields
// byte-identical match sets (record, path, term) to in-memory Select over
// each record, for every query family and worker count.
func TestSelectStreamDifferential(t *testing.T) {
	docs, corpus := buildCorpus(t, 8)
	eng := NewEngine()
	// Intern the corpus alphabet before compiling, the same closed-world
	// discipline in-memory callers follow.
	if _, err := eng.ParseXMLString(corpus); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"figure section* [* ; doc ; *]",                      // path expression
		"[* ; figure ; table .] (section|doc)*",              // sibling-sensitive
		"select(figure*; [* ; section ; *] (section|doc)*)",  // subhedge + envelope
		"select(.; [* ; table ; . figure .] (section|doc)*)", // elder-sibling condition
	}
	for _, src := range queries {
		q, err := eng.CompileQuery(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}

		var want strings.Builder
		for i, d := range docs {
			for _, m := range q.Select(eng.FromHedge(d)) {
				fmt.Fprintf(&want, "%d|%s|%s\n", i, m.Path, m.Term)
			}
		}

		for _, workers := range []int{1, 4} {
			var got strings.Builder
			stats, err := eng.SelectStream(context.Background(), strings.NewReader(corpus), q,
				SelectOptions{Workers: workers},
				func(m StreamMatch) error {
					fmt.Fprintf(&got, "%d|%s|%s\n", m.Record, m.Path, m.Term)
					return nil
				})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", src, workers, err)
			}
			if got.String() != want.String() {
				t.Errorf("%s workers=%d: stream and in-memory match sets differ\nstream:\n%s\nselect:\n%s",
					src, workers, got.String(), want.String())
			}
			if stats.Records != int64(len(docs)) {
				t.Errorf("%s workers=%d: records = %d, want %d", src, workers, stats.Records, len(docs))
			}
			if stats.Bytes != int64(len(corpus)) {
				t.Errorf("%s workers=%d: bytes = %d, want %d", src, workers, stats.Bytes, len(corpus))
			}
		}
	}
}

// TestSelectStreamSplitElement: a named split locates records at any
// depth, and RecordPath + Path addresses the match in the whole document.
func TestSelectStreamSplitElement(t *testing.T) {
	input := `<db><group><entry><a/><b/></entry></group><entry><c><a/><b/></c></entry></db>`
	eng := NewEngine()
	whole, err := eng.ParseXMLString(input)
	if err != nil {
		t.Fatal(err)
	}
	q, err := eng.CompileQuery("[* ; a ; b .] (entry|c)*")
	if err != nil {
		t.Fatal(err)
	}
	var seen int
	_, err = eng.SelectStream(context.Background(), strings.NewReader(input), q,
		SelectOptions{SplitElement: "entry"},
		func(m StreamMatch) error {
			seen++
			// Glue the record-relative path onto the record root's path:
			// drop the leading "1" (the record root) from m.Path.
			global := m.RecordPath
			if rest, ok := strings.CutPrefix(m.Path, "1."); ok {
				global += "." + rest
			}
			n := whole.Hedge().At(parseDewey(t, global))
			if n == nil || n.String() != m.Term {
				t.Errorf("match %s in record %s: global path %s resolves to %v, want %s",
					m.Path, m.RecordPath, global, n, m.Term)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 2 {
		t.Fatalf("matches = %d, want 2", seen)
	}
}

func parseDewey(t *testing.T, s string) hedge.Path {
	t.Helper()
	var p hedge.Path
	for _, part := range strings.Split(s, ".") {
		var x int
		if _, err := fmt.Sscan(part, &x); err != nil {
			t.Fatalf("bad dewey %q: %v", s, err)
		}
		p = append(p, x-1)
	}
	return p
}

func TestSelectStreamTypedErrors(t *testing.T) {
	eng := NewEngine()
	q, err := eng.CompileQuery("entry")
	if err != nil {
		t.Fatal(err)
	}

	// Malformed XML surfaces as *ParseError.
	_, err = eng.SelectStream(context.Background(), strings.NewReader("<feed><entry></feed>"), q,
		SelectOptions{}, func(StreamMatch) error { return nil })
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *ParseError", err)
	}

	// A record over the node bound surfaces as *LimitError.
	_, err = eng.SelectStream(context.Background(),
		strings.NewReader("<feed><entry><a/><b/><c/></entry></feed>"), q,
		SelectOptions{MaxRecordNodes: 2}, func(StreamMatch) error { return nil })
	var le *LimitError
	if !errors.As(err, &le) || le.Kind != "nodes" || le.Limit != 2 || le.Record != 0 {
		t.Fatalf("err = %v, want nodes *LimitError", err)
	}

	// ErrStop ends the stream cleanly.
	stats, err := eng.SelectStream(context.Background(),
		strings.NewReader("<feed><entry/><entry/><entry/></feed>"), q,
		SelectOptions{}, func(StreamMatch) error { return ErrStop })
	if err != nil || stats.Matches != 1 {
		t.Fatalf("ErrStop: stats=%+v err=%v", stats, err)
	}

	// Cancellation propagates.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = eng.SelectStream(ctx, strings.NewReader("<feed><entry/></feed>"), q,
		SelectOptions{}, func(StreamMatch) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSelectStreamSeq(t *testing.T) {
	eng := NewEngine()
	q, err := eng.CompileQuery("entry")
	if err != nil {
		t.Fatal(err)
	}
	input := "<feed><entry/><entry/><entry/><entry/></feed>"
	var n int
	seq, stats := eng.SelectStreamSeq(context.Background(), strings.NewReader(input), q, SelectOptions{})
	for m, err := range seq {
		if err != nil {
			t.Fatal(err)
		}
		if m.Record != n {
			t.Fatalf("record %d, want %d", m.Record, n)
		}
		n++
		if n == 2 {
			break // exercises early cancellation through the pull iterator
		}
	}
	if n != 2 {
		t.Fatalf("iterated %d, want 2", n)
	}
	// The stats pointer is populated once iteration ends, even after an
	// early break (the partial run's accounting).
	if stats.Records == 0 || stats.Matches == 0 {
		t.Fatalf("stats not populated after iteration: %+v", *stats)
	}

	// Errors are yielded as the final pair.
	var last error
	errSeq, _ := eng.SelectStreamSeq(context.Background(), strings.NewReader("<feed><bad"), q, SelectOptions{})
	for _, err := range errSeq {
		last = err
	}
	var pe *ParseError
	if !errors.As(last, &pe) {
		t.Fatalf("final err = %v, want *ParseError", last)
	}
}

func TestMatchesIterator(t *testing.T) {
	eng := NewEngine()
	doc, err := eng.ParseXMLString("<doc><sec><fig/><tab/><fig/></sec><sec><fig/><tab/></sec></doc>")
	if err != nil {
		t.Fatal(err)
	}
	q, err := eng.CompileQuery("[* ; fig ; tab .] (sec|doc)*")
	if err != nil {
		t.Fatal(err)
	}
	// Matches and Select agree.
	var collected []Match
	for m := range q.Matches(doc) {
		collected = append(collected, m)
	}
	sel := q.Select(doc)
	if len(collected) != len(sel) || len(sel) != 2 {
		t.Fatalf("matches=%d select=%d, want 2", len(collected), len(sel))
	}
	for i := range sel {
		if collected[i] != sel[i] {
			t.Fatalf("match %d differs: %v vs %v", i, collected[i], sel[i])
		}
	}
	// Early break stops after the first match.
	var first string
	for m := range q.Matches(doc) {
		first = m.Path
		break
	}
	if first != "1.1.1" {
		t.Fatalf("first = %q", first)
	}
}

func TestCompileAndParseTypedErrors(t *testing.T) {
	eng := NewEngine()

	_, err := eng.CompileQuery("[* ; fig")
	var ce *CompileError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CompileError", err)
	}
	if ce.Offset < 0 || ce.Source != "[* ; fig" || ce.Excerpt == "" {
		t.Fatalf("CompileError = %+v, want offset/source/excerpt", ce)
	}

	_, err = eng.ParseXMLString("<doc>\n<oops</doc>")
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *ParseError", err)
	}
	if pe.Line != 2 {
		t.Fatalf("ParseError line = %d, want 2 (%v)", pe.Line, pe)
	}

	if _, err := eng.ParseTerm("doc<"); err != nil {
		if !errors.As(err, &pe) {
			t.Fatalf("term err = %v, want *ParseError", err)
		}
	} else {
		t.Fatal("ParseTerm should fail")
	}
}

// BenchmarkStreaming10kRecords demonstrates the memory bound: streaming a
// 10k-record document evaluates with per-record (not per-document)
// allocation, versus materializing the whole hedge first. Compare allocs/op.
func BenchmarkStreaming10kRecords(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("<feed>")
	for i := 0; i < 10000; i++ {
		if i%3 == 0 {
			sb.WriteString("<entry><a/><b/></entry>")
		} else {
			sb.WriteString("<entry><b/><a/></entry>")
		}
	}
	sb.WriteString("</feed>")
	input := sb.String()

	eng := NewEngine()
	if _, err := eng.ParseXMLString("<feed><entry><a/><b/></entry></feed>"); err != nil {
		b.Fatal(err)
	}
	q, err := eng.CompileQuery("[* ; a ; b .] entry")
	if err != nil {
		b.Fatal(err)
	}

	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var n int64
			stats, err := eng.SelectStream(context.Background(), strings.NewReader(input), q,
				SelectOptions{Workers: 1},
				func(m StreamMatch) error { n++; return nil })
			if err != nil || n != stats.Matches {
				b.Fatal(err)
			}
		}
	})
	b.Run("whole-document", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			doc, err := eng.ParseXMLString(input)
			if err != nil {
				b.Fatal(err)
			}
			var n int
			for range q.Matches(doc) {
				n++
			}
			_ = n
		}
	})
}
