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
	"xpe/internal/gen"
	"xpe/internal/xmlhedge"
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

// flushCounter is a response writer that keeps the body and counts its
// flushes, and the lines written before each one.
type flushCounter struct {
	h       http.Header
	status  int
	body    bytes.Buffer
	flushed []int // lines written when each flush came
}

func (w *flushCounter) Header() http.Header         { return w.h }
func (w *flushCounter) Write(p []byte) (int, error) { return w.body.Write(p) }
func (w *flushCounter) WriteHeader(code int)        { w.status = code }
func (w *flushCounter) Flush() {
	w.flushed = append(w.flushed, bytes.Count(w.body.Bytes(), []byte("\n")))
}

// TestFlushOncePerRecord pins NDJSON flushing: a feed post or a one-shot
// select flushes after each record's last match line and after the
// summary, not after every match line, so a socket gets one chunk per
// record.
func TestFlushOncePerRecord(t *testing.T) {
	// Records 0, 2 and 3 hold two figures and a table each; 1 and 4 none.
	var b strings.Builder
	b.WriteString("<feed>")
	for i := 0; i < 5; i++ {
		if i == 1 || i == 4 {
			b.WriteString("<doc><para/></doc>")
		} else {
			b.WriteString("<doc><fig/><tab/><fig/></doc>")
		}
	}
	b.WriteString("</feed>")
	body := b.String()
	for _, workers := range []int{1, 4} {
		s, err := NewServer(Options{Engine: xpe.NewEngine(), Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, reg := range []string{
			`{"tenant":"t","name":"figs","query":"fig doc*","feed":"news"}`,
			`{"tenant":"t","name":"tabs","query":"tab doc*","feed":"news"}`,
		} {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/queries", strings.NewReader(reg)))
			if rec.Code != http.StatusCreated {
				t.Fatalf("register %s: %d %s", reg, rec.Code, rec.Body)
			}
		}
		for _, tc := range []struct {
			url  string
			want []int // lines written at each flush: after records 0, 2, 3, then the summary
		}{
			{"/v1/feed/news?split=doc", []int{3, 6, 9, 10}},
			{"/v1/select?split=doc&query=fig+doc*", []int{2, 4, 6, 7}},
		} {
			w := &flushCounter{h: make(http.Header)}
			s.ServeHTTP(w, httptest.NewRequest("POST", tc.url, strings.NewReader(body)))
			if w.status != 0 && w.status != http.StatusOK {
				t.Fatalf("workers=%d %s: status %d: %s", workers, tc.url, w.status, w.body.String())
			}
			if fmt.Sprint(w.flushed) != fmt.Sprint(tc.want) {
				t.Errorf("workers=%d %s: flushes after lines %v, want %v:\n%s",
					workers, tc.url, w.flushed, tc.want, w.body.String())
			}
		}
	}
}

// TestServedStableCompileOrder is the served end of the compile-order
// differential: a feed whose '.'-free queries were registered on a fresh
// engine, before any document brought their labels, answers byte for
// byte as one whose engine parsed the feed before the registrations. The
// queries are the topic and churn shapes and the '.'-free dense sources.
func TestServedStableCompileOrder(t *testing.T) {
	var srcs []string
	for k := 0; k < 8; k++ {
		srcs = append(srcs, fmt.Sprintf("figure topic%d doc*", k))
	}
	srcs = append(srcs, "figure w0001q doc*", "figure w0002q doc*")
	for _, src := range gen.DenseQueries() {
		if !strings.Contains(src, ".") {
			srcs = append(srcs, src)
		}
	}
	var b bytes.Buffer
	b.Write(selectiveFeed(64, 8))
	b.Truncate(b.Len() - len("</corpus>"))
	for i := 0; i < 3; i++ {
		cfg := gen.DefaultDocConfig()
		cfg.Seed = int64(i + 1)
		s, err := xmlhedge.ToString(gen.Document(cfg, 200))
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(s)
	}
	b.WriteString("</corpus>")
	body := b.String()
	serve := func(parseFirst bool) string {
		eng := xpe.NewEngine()
		if parseFirst {
			if _, err := eng.ParseXMLString(body); err != nil {
				t.Fatal(err)
			}
		}
		s, err := NewServer(Options{Engine: eng, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i, src := range srcs {
			reg := fmt.Sprintf(`{"tenant":"t%d","name":"q%02d","query":%q,"feed":"news"}`, i/8, i, src)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/queries", strings.NewReader(reg)))
			if rec.Code != http.StatusCreated {
				t.Fatalf("register %s: %d %s", reg, rec.Code, rec.Body)
			}
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/feed/news?split=doc", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("feed post: %d %s", rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	before, after := serve(false), serve(true)
	if before != after {
		t.Fatalf("served answers differ by compile order:\n%s\n---\n%s", before, after)
	}
	if n := strings.Count(after, "\n"); n < 40 {
		t.Fatalf("the feed located %d nodes: the corpus lost its point", n-1)
	}
}
