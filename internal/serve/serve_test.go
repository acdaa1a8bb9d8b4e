package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"xpe"
	"xpe/internal/faultinject"
)

const feedCorpus = `<corpus>` +
	`<doc><ns:price>10</ns:price><sku>a</sku></doc>` +
	`<doc><Price>20</Price></doc>` +
	`<doc><price currency="EUR">30</price></doc>` +
	`<doc><quote price="yes"><!-- price --></quote></doc>` +
	`<doc><memo>nothing relevant</memo></doc>` +
	`</corpus>`

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Engine == nil {
		opts.Engine = xpe.NewEngine()
	}
	s, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func register(t *testing.T, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/queries", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func mustRegister(t *testing.T, ts *httptest.Server, body string) {
	t.Helper()
	resp := register(t, ts, body)
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("register %s: %d %s", body, resp.StatusCode, msg)
	}
}

// postNDJSON posts a document and decodes the NDJSON response into match
// lines and the trailing summary.
func postNDJSON(t *testing.T, url, doc string) ([]matchLine, summaryLine, *http.Response) {
	t.Helper()
	resp, err := http.Post(url, "application/xml", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: %d %s", url, resp.StatusCode, msg)
	}
	var (
		matches []matchLine
		summary summaryLine
		sawSum  bool
	)
	dec := json.NewDecoder(resp.Body)
	for {
		var raw map[string]json.RawMessage
		if err := dec.Decode(&raw); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("NDJSON decode: %v", err)
		}
		switch {
		case raw["summary"] != nil:
			if sawSum {
				t.Fatal("two summary lines in one response")
			}
			sawSum = true
			if err := json.Unmarshal(raw["summary"], &summary); err != nil {
				t.Fatal(err)
			}
		case raw["error"] != nil:
			var msg string
			json.Unmarshal(raw["error"], &msg)
			t.Fatalf("stream error line: %s", msg)
		default:
			var m matchLine
			b, _ := json.Marshal(raw)
			if err := json.Unmarshal(b, &m); err != nil {
				t.Fatal(err)
			}
			if sawSum {
				t.Fatal("match line after the summary")
			}
			matches = append(matches, m)
		}
	}
	if !sawSum {
		t.Fatal("response had no summary line")
	}
	return matches, summary, resp
}

// TestServeFeedSharedPass is the end-to-end differential, at both pipeline
// shapes (Options.Workers 1 and 4) and over clean and faulted feeds posted
// under the default skip policy. Matches coming back from a multi-tenant
// feed run must equal, per registered query, that query's own SelectStream
// run, and together the library's SelectStreamMulti run line for line;
// the summary's counts must equal that run's StreamStats.
func TestServeFeedSharedPass(t *testing.T) {
	// Five queries across two tenants: three match the corpus, two the
	// faultinject feeds. Each names a required label, so the union
	// prefilter can skip records (an alternation like "(quote|sku)" would
	// register an empty requirement set — a free group — and correctly
	// disable whole-record skipping).
	regs := []struct{ tenant, name, src string }{
		{"t1", "prices", "price doc* *"},
		{"t1", "Prices", "Price doc* *"},
		{"t2", "skus", "sku doc*"},
		{"t2", "pairs", "[* ; a ; b .] rec"},
		{"t1", "ids", "id rec"},
	}
	feedBody := func(spec faultinject.FeedSpec) string {
		b, err := io.ReadAll(spec.Reader())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	inputs := []struct {
		name, split, body string
		seen, skipped     int64 // records the splitter saw; failed records skipped
	}{
		{"corpus", "", feedCorpus, 5, 0},
		// Malformed records early, mid-feed, and at index 32, the default
		// batch size.
		{"malformed", "rec", feedBody(faultinject.FeedSpec{Records: 40,
			Malformed: map[int]bool{3: true, 17: true, 32: true}}), 37, 3},
		{"truncated", "rec", feedBody(faultinject.FeedSpec{Records: 12, Truncated: true}), 11, 1},
		// Many times the read buffer: match lines are flushed while most of
		// the body is still unread.
		{"long", "rec", feedBody(faultinject.FeedSpec{Records: 3000}), 3000, 0},
	}
	line := func(query string, m xpe.StreamMatch) string {
		return fmt.Sprintf("%s|%d|%s|%s|%s", query, m.Record, m.RecordPath, m.Path, m.Term)
	}
	for _, workers := range []int{1, 4} {
		for _, in := range inputs {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, in.name), func(t *testing.T) {
				eng := xpe.NewEngine()
				_, ts := newTestServer(t, Options{Engine: eng, Workers: workers})
				var qs []*xpe.Query
				for _, r := range regs {
					mustRegister(t, ts, fmt.Sprintf(`{"tenant":%q,"name":%q,"query":%q,"feed":"market"}`,
						r.tenant, r.name, r.src))
					q, err := eng.CompileQuery(r.src)
					if err != nil {
						t.Fatal(err)
					}
					qs = append(qs, q)
				}
				matches, summary, _ := postNDJSON(t, ts.URL+"/v1/feed/market?split="+in.split, in.body)
				tenants := map[string]string{}
				var got []string
				for _, m := range matches {
					got = append(got, fmt.Sprintf("%s|%d|%s|%s|%s", m.Query, m.Record, m.RecordPath, m.Path, m.Term))
					tenants[m.Query] = m.Tenant
				}

				// References: the library under the same split and policy,
				// each query alone and all in one shared pass.
				opts := xpe.SelectOptions{Workers: 1, SplitElement: in.split, OnError: xpe.Skip}
				for i, q := range qs {
					var want, mine []string
					if _, err := eng.SelectStream(context.Background(), strings.NewReader(in.body), q, opts,
						func(m xpe.StreamMatch) error {
							want = append(want, line(regs[i].name, m))
							return nil
						}); err != nil {
						t.Fatal(err)
					}
					for _, g := range got {
						if strings.HasPrefix(g, regs[i].name+"|") {
							mine = append(mine, g)
						}
					}
					if strings.Join(mine, "\n") != strings.Join(want, "\n") {
						t.Errorf("query %s: served matches %v != library matches %v", regs[i].name, mine, want)
					}
					if tenant, ok := tenants[regs[i].name]; ok && tenant != regs[i].tenant {
						t.Errorf("match for %s attributed to tenant %s", regs[i].name, tenant)
					}
				}
				var want []string
				st, err := eng.SelectStreamMulti(context.Background(), strings.NewReader(in.body), qs, opts,
					func(m xpe.MultiStreamMatch) error {
						want = append(want, line(regs[m.Query].name, m.StreamMatch))
						return nil
					})
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 {
					t.Fatal("no query matched; fixture lost its point")
				}
				if strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Errorf("served lines != SelectStreamMulti lines:\n%s\n---\n%s",
						strings.Join(got, "\n"), strings.Join(want, "\n"))
				}
				lib := summaryLine{Records: st.Records, Matches: st.Matches, Prefiltered: st.Prefiltered,
					Skipped: st.Skipped, TimedOut: st.TimedOut, Recovered: st.Recovered, Bytes: st.Bytes,
					Queries: len(regs)}
				if summary != lib {
					t.Errorf("summary %+v, library stats %+v", summary, lib)
				}
				// The splitter sees every record once; the skim only moves
				// records between the two buckets.
				if summary.Records+summary.Prefiltered != in.seen || summary.Skipped != in.skipped {
					t.Errorf("records(%d) + prefiltered(%d), skipped %d; want %d seen, %d skipped",
						summary.Records, summary.Prefiltered, summary.Skipped, in.seen, in.skipped)
				}
				if in.name == "corpus" && summary.Prefiltered == 0 {
					t.Error("the memo record satisfies no query; the union prefilter should have skipped it")
				}
			})
		}
	}
}

func TestServeSelectOneShot(t *testing.T) {
	_, ts := newTestServer(t, Options{Engine: xpe.NewEngine()})
	matches, summary, _ := postNDJSON(t,
		ts.URL+"/v1/select?query="+strings.ReplaceAll("price doc* *", " ", "+"), feedCorpus)
	if len(matches) == 0 || summary.Matches == 0 {
		t.Fatalf("one-shot select matched nothing: %d lines, summary %+v", len(matches), summary)
	}
	if summary.Queries != 1 {
		t.Errorf("summary.queries = %d, want 1", summary.Queries)
	}

	// Validation: both query and xpath, and neither, are 400s.
	for _, u := range []string{"/v1/select", "/v1/select?query=a+b*&xpath=/a/b"} {
		resp, err := http.Post(ts.URL+u, "application/xml", strings.NewReader("<a/>"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: %d, want 400", u, resp.StatusCode)
		}
	}
}

func TestServeRegistrationValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Engine: xpe.NewEngine()})
	cases := []struct {
		body string
		want int
	}{
		{`{"tenant":"t","name":"q","query":"a b*"}`, http.StatusCreated},
		{`{"tenant":"t","name":"q","query":"a b*"}`, http.StatusConflict}, // duplicate name
		{`{"tenant":"u","name":"q","query":"a b*"}`, http.StatusCreated},  // same name, other tenant
		{`{"name":"q2","query":"a b*"}`, http.StatusBadRequest},           // no tenant
		{`{"tenant":"t","query":"a b*"}`, http.StatusBadRequest},          // no name
		{`{"tenant":"t","name":"q2"}`, http.StatusBadRequest},             // no source
		{`{"tenant":"t","name":"q2","query":"a b*","xpath":"/a"}`, http.StatusBadRequest},
		{`{"tenant":"t","name":"q2","query":"(((("}`, http.StatusBadRequest}, // compile error
		{`{"tenant":"t","name":"q2","query":"a b*","feed":"x/y"}`, http.StatusBadRequest},
		{`{"tenant":"t","name":"q2","query":"a b*","budgets":{"recordTimeout":"bogus"}}`, http.StatusBadRequest},
		{`{"tenant":"t","name":"q2","query":"a b*","unknown":1}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if resp := register(t, ts, c.body); resp.StatusCode != c.want {
			msg, _ := io.ReadAll(resp.Body)
			t.Errorf("register %s: %d (%s), want %d", c.body, resp.StatusCode, msg, c.want)
		}
	}

	// The list endpoint sees both tenants' registrations, in order.
	resp, err := http.Get(ts.URL + "/v1/queries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var regs []regQuery
	if err := json.NewDecoder(resp.Body).Decode(&regs); err != nil {
		t.Fatal(err)
	}
	if len(regs) != 2 || regs[0].Tenant != "t" || regs[1].Tenant != "u" {
		t.Fatalf("list: %+v", regs)
	}

	// An empty feed is 404, not an empty stream.
	r2, err := http.Post(ts.URL+"/v1/feed/nothing", "application/xml", strings.NewReader("<a/>"))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Errorf("empty feed: %d, want 404", r2.StatusCode)
	}
}

// TestServeTenantBudgets: the posting tenant's MaxRecordBytes budget plus
// the Skip default contain an oversized record to that record.
func TestServeTenantBudgets(t *testing.T) {
	_, ts := newTestServer(t, Options{Engine: xpe.NewEngine()})
	mustRegister(t, ts, `{"tenant":"tiny","name":"q","query":"price doc* *","feed":"f",`+
		`"budgets":{"maxRecordBytes":64,"recordTimeout":"5s"}}`)

	big := strings.Repeat("<pad>x</pad>", 40)
	doc := `<corpus><doc><price>1</price></doc><doc>` + big + `<price>2</price></doc></corpus>`

	// Anonymous post: default (unlimited) budgets, both records match.
	matches, _, _ := postNDJSON(t, ts.URL+"/v1/feed/f", doc)
	if len(matches) != 2 {
		t.Fatalf("unbudgeted post: %d matches, want 2", len(matches))
	}

	// Posting as the budgeted tenant: the oversized record is skipped, the
	// small one still answers.
	matches, summary, _ := postNDJSON(t, ts.URL+"/v1/feed/f?tenant=tiny", doc)
	if len(matches) != 1 {
		t.Fatalf("budgeted post: %d matches, want 1 (oversized record skipped)", len(matches))
	}
	if summary.Skipped != 1 {
		t.Errorf("summary.skipped = %d, want 1", summary.Skipped)
	}

	// on-error=abort surfaces the failure as an NDJSON error line instead.
	resp, err := http.Post(ts.URL+"/v1/feed/f?tenant=tiny&on-error=abort", "application/xml",
		strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), `"error"`) {
		t.Errorf("abort policy: response carries no error line:\n%s", body)
	}
}

// TestServeAdmission fills the single evaluation slot and the one queue
// slot with stalled requests, then checks the next request bounces with
// 429 + Retry-After rather than queueing unboundedly.
func TestServeAdmission(t *testing.T) {
	s, ts := newTestServer(t, Options{Engine: xpe.NewEngine(), MaxConcurrent: 1, MaxQueueDepth: 1})
	mustRegister(t, ts, `{"tenant":"t","name":"q","query":"a doc*","feed":"f"}`)

	// A pipe-bodied request stalls inside evaluation holding its slot
	// until we close the writer.
	stall := func() (*io.PipeWriter, chan error) {
		pr, pw := io.Pipe()
		done := make(chan error, 1)
		go func() {
			resp, err := http.Post(ts.URL+"/v1/feed/f", "application/xml", pr)
			if resp != nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			done <- err
		}()
		return pw, done
	}

	w1, done1 := stall() // admitted, holds the slot
	waitFor(t, func() bool { return s.Stats().ActiveProbes == 1 })
	w2, done2 := stall() // queued
	waitFor(t, func() bool { return s.Stats().QueueDepth == 1 })

	// Queue full: third concurrent request is refused immediately.
	resp, err := http.Post(ts.URL+"/v1/feed/f", "application/xml", strings.NewReader("<a/>"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity request: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After hint")
	}

	// Release the pipeline; both stalled requests complete.
	w1.Write([]byte("<corpus><doc><a/></doc></corpus>"))
	w1.Close()
	if err := <-done1; err != nil {
		t.Fatal(err)
	}
	w2.Write([]byte("<corpus><doc><a/></doc></corpus>"))
	w2.Close()
	if err := <-done2; err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Rejected != 1 || st.Admitted != 2 {
		t.Errorf("admission counters: %+v", st)
	}
}

// TestServeDrain: BeginDrain turns away new evaluation work with 503 while
// an in-flight stream runs to completion, and Drain observes it finish.
func TestServeDrain(t *testing.T) {
	s, ts := newTestServer(t, Options{Engine: xpe.NewEngine()})
	mustRegister(t, ts, `{"tenant":"t","name":"q","query":"a doc*","feed":"f"}`)

	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/feed/f", "application/xml", pr)
		if resp != nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		done <- err
	}()
	waitFor(t, func() bool { return s.Stats().ActiveProbes == 1 })

	s.BeginDrain()
	for _, u := range []string{"/v1/feed/f", "/v1/select?query=a+doc*", "/v1/healthz"} {
		var resp *http.Response
		var err error
		if strings.HasPrefix(u, "/v1/healthz") {
			resp, err = http.Get(ts.URL + u)
		} else {
			resp, err = http.Post(ts.URL+u, "application/xml", strings.NewReader("<a/>"))
		}
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s while draining: %d, want 503", u, resp.StatusCode)
		}
	}

	// The in-flight stream is untouched by the drain flag.
	drainErr := make(chan error, 1)
	go func() { drainErr <- s.Drain(context.Background()) }()
	select {
	case err := <-drainErr:
		t.Fatalf("Drain returned %v with a stream still active", err)
	case <-time.After(50 * time.Millisecond):
	}
	pw.Write([]byte("<corpus><doc><a/></doc></corpus>"))
	pw.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// And a bounded Drain on a still-active server would time out cleanly.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain on idle server: %v", err)
	}
}

// TestServeNoGoroutineLeak: a burst of concurrent feed posts leaves no
// evaluation goroutines behind once the responses are consumed.
func TestServeNoGoroutineLeak(t *testing.T) {
	s, ts := newTestServer(t, Options{Engine: xpe.NewEngine(), Workers: 2})
	mustRegister(t, ts, `{"tenant":"t","name":"q","query":"price doc* *","feed":"f"}`)
	before := runtime.NumGoroutine()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/feed/f", "application/xml", strings.NewReader(feedCorpus))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Feeds != 8 {
		t.Fatalf("feed runs = %d, want 8", st.Feeds)
	}
	// Keep-alive connections park reader goroutines in the client pool;
	// retire them so the count converges, then catch per-request
	// evaluation leaks (8 runs × workers would dwarf the +4 headroom).
	waitFor(t, func() bool {
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		return runtime.NumGoroutine() <= before+4
	})
}

func TestServeStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Engine: xpe.NewEngine()})
	mustRegister(t, ts, `{"tenant":"t","name":"q","query":"price doc* *"}`)
	if _, _, err := get(ts.URL + "/v1/feed/" + DefaultFeed); err == nil {
		// GET on a POST route is 405; just checking the mux is strict.
	}
	postNDJSON(t, ts.URL+"/v1/feed/"+DefaultFeed, feedCorpus)

	resp, err := http.Get(ts.URL + "/debug/xpe/serve")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Feeds != 1 || st.Registered != 1 || st.Matches == 0 {
		t.Errorf("served stats: %+v", st)
	}
	if st.Records+st.Prefiltered == 0 {
		t.Errorf("served stats counted no records: %+v", st)
	}

	// The engine debug surface is mounted alongside.
	r2, err := http.Get(ts.URL + "/debug/xpe/stats")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Errorf("/debug/xpe/stats: %d, want 200", r2.StatusCode)
	}
}

func get(url string) (int, []byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// waitFor polls cond until true or the deadline, failing the test on
// timeout — the scheduling-tolerant way to observe cross-goroutine state.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
