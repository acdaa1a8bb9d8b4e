package xmlhedge

import (
	"errors"
	"io"
	"strings"
	"testing"

	"xpe/internal/hedge"
)

// readAll drains a RecordReader, failing the test on any non-EOF error.
func readAll(t *testing.T, input string, opts RecordOptions, a *Arena) []Record {
	t.Helper()
	rr := NewRecordReader(strings.NewReader(input), opts)
	var out []Record
	for {
		rec, err := rr.Read(a)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		// Snapshot: records sharing an arena are only valid until the next
		// Read, so clone for later comparison.
		rec.Hedge = rec.Hedge.Clone()
		out = append(out, rec)
	}
}

// mustOracle is the encoding/xml oracle's tree of input, which must parse.
func mustOracle(t *testing.T, input string) hedge.Hedge {
	t.Helper()
	h, err := oracleParse(input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestRecordReaderDefaultSplit(t *testing.T) {
	input := "<feed><entry><a/><b>hi</b></entry><meta/><entry><a/></entry></feed>"
	recs := readAll(t, input, RecordOptions{}, nil)
	if len(recs) != 3 {
		t.Fatalf("records = %d, want 3", len(recs))
	}
	whole := mustOracle(t, input)
	for i, rec := range recs {
		if got, want := rec.Path.String(), (hedge.Path{0, i}).String(); got != want {
			t.Errorf("record %d path = %s, want %s", i, got, want)
		}
		n := whole.At(rec.Path)
		if n == nil || !rec.Hedge.Equal(hedge.Hedge{n}) {
			t.Errorf("record %d = %s, want subtree %s", i, rec.Hedge, n)
		}
		if rec.Nodes != rec.Hedge.Size() {
			t.Errorf("record %d nodes = %d, want %d", i, rec.Nodes, rec.Hedge.Size())
		}
	}
}

func TestRecordReaderNamedSplit(t *testing.T) {
	input := "<db><group><item><x/></item>noise<item/></group><item/></db>"
	recs := readAll(t, input, RecordOptions{Split: "item"}, nil)
	if len(recs) != 3 {
		t.Fatalf("records = %d, want 3", len(recs))
	}
	whole := mustOracle(t, input)
	wantPaths := []string{"1.1.1", "1.1.3", "1.2"}
	for i, rec := range recs {
		if rec.Path.String() != wantPaths[i] {
			t.Errorf("record %d path = %s, want %s", i, rec.Path, wantPaths[i])
		}
		n := whole.At(rec.Path)
		if n == nil || !rec.Hedge.Equal(hedge.Hedge{n}) {
			t.Errorf("record %d = %s, want subtree at %s", i, rec.Hedge, rec.Path)
		}
	}
}

func TestRecordReaderNestedSplitOutermostWins(t *testing.T) {
	input := "<db><item><item><a/></item></item></db>"
	recs := readAll(t, input, RecordOptions{Split: "item"}, nil)
	if len(recs) != 1 {
		t.Fatalf("records = %d, want 1 (outermost item)", len(recs))
	}
	if recs[0].Nodes != 3 {
		t.Fatalf("nodes = %d, want 3", recs[0].Nodes)
	}
}

func TestRecordReaderArenaReuse(t *testing.T) {
	input := "<feed><e><a/><b/>text</e><e><c><d/></c></e><e/></feed>"
	var a Arena
	rr := NewRecordReader(strings.NewReader(input), RecordOptions{})
	whole := mustOracle(t, input)
	for i := 0; ; i++ {
		a.Reset()
		rec, err := rr.Read(&a)
		if err == io.EOF {
			if i != 3 {
				t.Fatalf("records = %d, want 3", i)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		n := whole.At(rec.Path)
		if !rec.Hedge.Equal(hedge.Hedge{n}) {
			t.Fatalf("record %d = %s, want %s", i, rec.Hedge, n)
		}
	}
}

func TestRecordReaderLimits(t *testing.T) {
	input := "<feed><e><a/><b/><c/></e></feed>"
	rr := NewRecordReader(strings.NewReader(input), RecordOptions{MaxNodes: 3})
	_, err := rr.Read(nil)
	var le *LimitError
	if !errors.As(err, &le) || le.Kind != "nodes" || le.Limit != 3 {
		t.Fatalf("err = %v, want nodes LimitError", err)
	}
	// Sticky after a limit violation.
	if _, err2 := rr.Read(nil); !errors.Is(err2, err) {
		t.Fatalf("second read err = %v, want sticky %v", err2, err)
	}

	rr = NewRecordReader(strings.NewReader("<feed><e><a><b/></a></e></feed>"),
		RecordOptions{MaxDepth: 2})
	_, err = rr.Read(nil)
	if !errors.As(err, &le) || le.Kind != "depth" || le.Limit != 2 {
		t.Fatalf("err = %v, want depth LimitError", err)
	}
}

func TestRecordReaderMalformed(t *testing.T) {
	rr := NewRecordReader(strings.NewReader("<feed><e></feed>"), RecordOptions{})
	if _, err := rr.Read(nil); err == nil || err == io.EOF {
		t.Fatalf("err = %v, want syntax error", err)
	}
	rr = NewRecordReader(strings.NewReader("<feed><e/>"), RecordOptions{})
	if _, err := rr.Read(nil); err != nil {
		t.Fatalf("first record: %v", err)
	}
	if _, err := rr.Read(nil); err == nil || err == io.EOF {
		t.Fatalf("err = %v, want truncation error", err)
	}
}
