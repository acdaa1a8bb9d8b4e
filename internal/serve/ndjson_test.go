package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"testing"

	"xpe"
)

// matchLine is one NDJSON match as encoding/json encodes it: the reference
// appendMatchLine reproduces byte for byte, and the shape tests decode.
type matchLine struct {
	Tenant     string `json:"tenant,omitempty"`
	Query      string `json:"query"`
	Record     int    `json:"record"`
	RecordPath string `json:"recordPath"`
	Path       string `json:"path"`
	Term       string `json:"term"`
}

// encodeMatchLine is the reference: json.Encoder.Encode of the line.
func encodeMatchLine(t testing.TB, m matchLine) string {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestAppendMatchLine(t *testing.T) {
	var controls strings.Builder
	for c := byte(0); c < 0x20; c++ {
		controls.WriteByte(c)
	}
	for _, m := range []matchLine{
		{Tenant: "acme", Query: "topic0", Record: 12, RecordPath: "1.13", Path: "1.4.1", Term: "figure"},
		{Query: "no tenant", Record: 0, RecordPath: "ε", Path: "1", Term: "a"},
		{Tenant: "t", Query: "[* ; a ; b .] (entry|feed)*", Record: -1, RecordPath: "1.2", Path: "1", Term: "a<b<>,%x>"},
		{Tenant: "<script>&amp;</script>", Query: `quote " and backslash \ and /`, Record: 1 << 40},
		{Query: controls.String(), Term: "\x7f del stays raw"},
		{Query: "line\u2028para\u2029end", Term: "\u00e9 \u65e5\u672c \U0001f642 \u2027\u202a"},
		{Query: "invalid \xff byte", Path: "cut \xe2\x80", Term: "surrogate \xed\xa0\x80 and overlong \xc0\xaf"},
		{Tenant: "\ufffd", Query: "\ufffd literal", Term: "tab\tnl\nbs\bff\fcr\r"},
	} {
		want := encodeMatchLine(t, m)
		got := string(appendMatchLine(nil, m.Tenant, m.Query, m.Record, m.RecordPath, m.Path, m.Term))
		if got != want {
			t.Errorf("appendMatchLine(%+v)\n got %q\nwant %q", m, got, want)
		}
	}
}

// FuzzMatchLine holds appendMatchLine to encoding/json on arbitrary
// strings and record numbers.
func FuzzMatchLine(f *testing.F) {
	f.Add("acme", "topic0", 3, "1.4", "1.2.1", "figure")
	f.Add("", "<&>", -7, " ", "\xff\xfe", "\x00\x1f\"\\")
	f.Fuzz(func(t *testing.T, tenant, query string, record int, recordPath, path, term string) {
		m := matchLine{Tenant: tenant, Query: query, Record: record, RecordPath: recordPath, Path: path, Term: term}
		want := encodeMatchLine(t, m)
		if got := string(appendMatchLine(nil, tenant, query, record, recordPath, path, term)); got != want {
			t.Fatalf("appendMatchLine(%+v)\n got %q\nwant %q", m, got, want)
		}
	})
}

// discardWriter is a reusable response writer that keeps nothing but
// the status, so a post's allocations are the server's own.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }
func (w *discardWriter) Flush()                      {}

// selectiveFeed returns a corpus of the given number of doc records,
// shaped like the served selective workload: prose paragraphs, and one
// record in four carrying topicK's figure, K cycling over the topics.
func selectiveFeed(records, topics int) []byte {
	var b bytes.Buffer
	b.WriteString("<corpus>")
	for i := 0; i < records; i++ {
		b.WriteString("<doc>")
		for j := 0; j < 6; j++ {
			fmt.Fprintf(&b, "<para>amber basil cedar %d delta eagle</para>", j)
			if i%4 == 0 && j == 2 {
				k := (i / 4) % topics
				fmt.Fprintf(&b, "<topic%d><figure/><table/></topic%d>", k, k)
			}
		}
		b.WriteString("</doc>")
	}
	b.WriteString("</corpus>")
	return b.Bytes()
}

// TestFeedAllocsFlatInRecords pins the serving telemetry at an exact
// price: with telemetry on as xpeserve ships it (request ids, rollups,
// the feed's flight recorder), a single-worker post of a selective-shaped
// feed — the prefilter skips three records in four, each skip an event on
// the next kept record's trace, and every kept record yields one match
// line — allocates the same at N and 4N records. So neither a trace
// commit, a skip event nor a match line allocates per record.
func TestFeedAllocsFlatInRecords(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool items at random, perturbing AllocsPerRun")
	}
	const topics = 8
	s, err := NewServer(Options{Engine: xpe.NewEngine(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < topics; k++ {
		body := fmt.Sprintf(`{"tenant":"tenant%d","name":"topic%d","query":"figure topic%d doc*","feed":"news"}`, k, k, k)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/queries", strings.NewReader(body)))
		if rec.Code != http.StatusCreated {
			t.Fatalf("register %s: %d %s", body, rec.Code, rec.Body)
		}
	}
	w := &discardWriter{h: make(http.Header)}
	post := func(body []byte) {
		clear(w.h)
		w.status = 0
		s.ServeHTTP(w, httptest.NewRequest("POST", "/v1/feed/news?split=doc", bytes.NewReader(body)))
		if w.status != 0 && w.status != http.StatusOK {
			t.Fatalf("feed post: status %d", w.status)
		}
	}
	// A collection mid-measurement would empty the pools and charge their
	// refill to whichever post it hit.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var got []float64
	for _, records := range []int{256, 1024} {
		body := selectiveFeed(records, topics)
		post(body) // warm the arenas, pools, ring slots and buffers
		got = append(got, testing.AllocsPerRun(10, func() { post(body) }))
	}
	t.Logf("allocs per post at 256 and 1024 records: %v", got)
	if got[0] != got[1] {
		t.Errorf("allocs per post at 256 and 1024 records = %v, want equal", got)
	}
	if n := len(s.rollups.recorder("news").Traces()); n == 0 {
		t.Fatal("the feed's flight recorder holds no trace: telemetry is off")
	}
}
