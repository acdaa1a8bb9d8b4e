package xpe

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestSelectStreamBatchSize: the streamed match set is invariant over the
// handoff batch size, for both worker shapes, including record-at-a-time
// and batches larger than the stream.
func TestSelectStreamBatchSize(t *testing.T) {
	docs, corpus := buildCorpus(t, 6)
	eng := NewEngine()
	if _, err := eng.ParseXMLString(corpus); err != nil {
		t.Fatal(err)
	}
	q, err := eng.CompileQuery("select(figure*; [* ; section ; *] (section|doc)*)")
	if err != nil {
		t.Fatal(err)
	}

	var want strings.Builder
	for i, d := range docs {
		for _, m := range q.Select(eng.FromHedge(d)) {
			fmt.Fprintf(&want, "%d|%s|%s\n", i, m.Path, m.Term)
		}
	}

	for _, workers := range []int{1, 4} {
		for _, bs := range []int{0, 1, 3, 1000} {
			var got strings.Builder
			stats, err := eng.SelectStream(context.Background(), strings.NewReader(corpus), q,
				SelectOptions{Workers: workers, BatchSize: bs},
				func(m StreamMatch) error {
					fmt.Fprintf(&got, "%d|%s|%s\n", m.Record, m.Path, m.Term)
					return nil
				})
			if err != nil {
				t.Fatalf("workers=%d batch=%d: %v", workers, bs, err)
			}
			if got.String() != want.String() {
				t.Errorf("workers=%d batch=%d: match set differs from in-memory Select", workers, bs)
			}
			if stats.Records != int64(len(docs)) {
				t.Errorf("workers=%d batch=%d: records = %d, want %d", workers, bs, stats.Records, len(docs))
			}
		}
	}
}

// TestSelectStreamReuseBuffers: with ReuseBuffers the Path/Term views are
// correct while the yield callback runs — copying them there must
// reproduce the default run exactly — even though the backing buffers are
// recycled between yields.
func TestSelectStreamReuseBuffers(t *testing.T) {
	_, corpus := buildCorpus(t, 4)
	eng := NewEngine()
	if _, err := eng.ParseXMLString(corpus); err != nil {
		t.Fatal(err)
	}
	q, err := eng.CompileQuery("[* ; figure ; table .] (section|doc)*")
	if err != nil {
		t.Fatal(err)
	}

	run := func(opts SelectOptions) []string {
		var lines []string
		_, err := eng.SelectStream(context.Background(), strings.NewReader(corpus), q, opts,
			func(m StreamMatch) error {
				// strings.Clone materializes the view inside its validity
				// window — the documented pattern for retaining a match.
				lines = append(lines, fmt.Sprintf("%d|%s|%s|%s",
					m.Record, strings.Clone(m.RecordPath), strings.Clone(m.Path), strings.Clone(m.Term)))
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return lines
	}

	for _, workers := range []int{1, 4} {
		plain := run(SelectOptions{Workers: workers})
		reused := run(SelectOptions{Workers: workers, ReuseBuffers: true})
		if len(plain) == 0 {
			t.Fatalf("workers=%d: no matches; the corpus should produce some", workers)
		}
		if strings.Join(plain, "\n") != strings.Join(reused, "\n") {
			t.Errorf("workers=%d: ReuseBuffers run differs from the default run\nplain:\n%s\nreused:\n%s",
				workers, strings.Join(plain, "\n"), strings.Join(reused, "\n"))
		}
	}
}

// TestEngineSelect: the shared Select entry point matches Query.Select,
// honors ctx cancellation, and populates Explanation / Trace / Metrics
// from the options subset that applies in memory.
func TestEngineSelect(t *testing.T) {
	eng := NewEngine()
	doc, err := eng.ParseXMLString(`<doc><section><figure/><table/></section><section><figure/></section></doc>`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := eng.CompileQuery("[* ; figure ; table .] (section|doc)*")
	if err != nil {
		t.Fatal(err)
	}

	want := q.Select(doc)
	got, err := eng.Select(context.Background(), doc, q, SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("Select returned %d matches, Query.Select %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Path != want[i].Path || got[i].Term != want[i].Term {
			t.Errorf("match %d: got %s %s, want %s %s", i, got[i].Path, got[i].Term, want[i].Path, want[i].Term)
		}
		if got[i].Explanation != nil {
			t.Errorf("match %d: Explanation set without Explain", i)
		}
	}

	t.Run("explain", func(t *testing.T) {
		ms, err := eng.Select(context.Background(), doc, q, SelectOptions{Explain: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != len(want) {
			t.Fatalf("explain run returned %d matches, want %d", len(ms), len(want))
		}
		for i, m := range ms {
			if m.Explanation == nil || m.Explanation.String() == "" {
				t.Errorf("match %d: missing explanation", i)
			}
		}
	})

	t.Run("trace", func(t *testing.T) {
		fr := NewFlightRecorder(8)
		if _, err := eng.Select(context.Background(), doc, q, SelectOptions{Trace: fr}); err != nil {
			t.Fatal(err)
		}
		if fr.Total() != 1 {
			t.Fatalf("recorder committed %d traces, want 1 per document", fr.Total())
		}
		rt := fr.Traces()[0]
		if rt.Matches != len(want) || rt.Outcome != "ok" {
			t.Errorf("doc trace = %+v, want ok with %d matches", rt, len(want))
		}
	})

	t.Run("metrics", func(t *testing.T) {
		sink := NewMetricsSink()
		if _, err := eng.Select(context.Background(), doc, q, SelectOptions{Metrics: sink}); err != nil {
			t.Fatal(err)
		}
		if sink.Stats().Eval.Docs == 0 {
			t.Error("per-run metrics sink saw no evaluated documents")
		}
	})

	t.Run("canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := eng.Select(ctx, doc, q, SelectOptions{}); !errors.Is(err, context.Canceled) {
			t.Errorf("Select with a canceled context: err = %v, want context.Canceled", err)
		}
	})
}
