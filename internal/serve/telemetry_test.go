package serve

// Tests for the serving telemetry surface: the /metrics exposition page
// (golden + strict parse), request-id correlation across header, access
// log, and record traces, the cardinality cap, the disabled
// configuration, and scraping under concurrent load.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"xpe"
	"xpe/internal/telemetry"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/metrics.golden from the fabricated state")

// TestMetricsGolden pins the full exposition page, byte for byte, over a
// hand-fabricated server state: every family, every label, every
// histogram bucket. Rendering is deterministic because the fabricated
// latencies land in fixed power-of-two buckets and the runtime gauges
// are rendered with withRuntime=false. Regenerate with
// go test ./internal/serve -run MetricsGolden -update-golden.
func TestMetricsGolden(t *testing.T) {
	s, err := NewServer(Options{Engine: xpe.NewEngine()})
	if err != nil {
		t.Fatal(err)
	}

	// Server-wide counters.
	s.requests.Store(12)
	s.admitted.Store(9)
	s.rejected.Store(2)
	s.drained.Store(1)
	s.feedRuns.Store(5)
	s.selectRuns.Store(4)
	s.matches.Store(33)
	s.records.Store(120)
	s.prefiltered.Store(40)
	s.skips.Store(2)
	s.breakerTrips.Store(1)
	s.breakerRejects.Store(3)

	// Per-tenant admission state.
	s.adm.mu.Lock()
	q1 := s.adm.queueLocked("acme", 3)
	q1.admitted, q1.rejected = 7, 1
	q2 := s.adm.queueLocked("beta", 0) // weight 0 resolves to 1
	q2.admitted = 2
	s.adm.degraded, s.adm.shed = 4, 1
	s.adm.mu.Unlock()

	// One closed and one open breaker (backoff 5s: still open when the
	// page renders).
	s.breakers.get("orders")
	bad := s.breakers.get("bad")
	bad.mu.Lock()
	bad.tripLocked()
	bad.mu.Unlock()

	// Dimensional rollups. 3ms lands in the 2^22ns bucket
	// (le=0.004194304), 500µs in 2^19 (le=0.000524288), 1µs in 2^10
	// (le=1.024e-06) — fixed buckets, exact sums.
	s.rollups.observe("acme", "orders", 200,
		xpe.StreamStats{Records: 10, Bytes: 2048, Matches: 3, Prefiltered: 4, Skipped: 1},
		3*time.Millisecond)
	s.rollups.observe("acme", "orders", 200,
		xpe.StreamStats{Records: 2, Bytes: 100}, 500*time.Microsecond)
	s.rollups.observe("beta", selectFeedLabel, 400, xpe.StreamStats{}, time.Microsecond)
	s.rollups.queryMatches("acme", "orders", "prices", 3)

	var buf bytes.Buffer
	if err := s.writeMetrics(&buf, false); err != nil {
		t.Fatal(err)
	}
	page := buf.String()
	if err := telemetry.Lint(page); err != nil {
		t.Fatalf("golden page fails strict parse: %v", err)
	}

	path := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if page != string(want) {
		t.Errorf("metrics page drifted from golden (regenerate with -update-golden if intended)\ngot:\n%s\nwant:\n%s",
			page, want)
	}
}

// TestMetricsEndpointLive scrapes a server that did real work and
// strict-parses the page: engine counters, serve counters, per-tenant
// admission, per-feed rollups, and per-query match attribution must all
// be present and well-formed. The library-side /debug/xpe/metrics page
// mounted on the same mux must parse too.
func TestMetricsEndpointLive(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	mustRegister(t, ts, `{"tenant":"t1","name":"prices","query":"price doc* *","feed":"market"}`)
	mustRegister(t, ts, `{"tenant":"t2","name":"skus","query":"sku doc*","feed":"market"}`)

	postNDJSON(t, ts.URL+"/v1/feed/market?tenant=t1", feedCorpus)
	postNDJSON(t, ts.URL+"/v1/select?tenant=t2&query=price+doc*+*", feedCorpus)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	page := string(body)
	if err := telemetry.Lint(page); err != nil {
		t.Fatalf("live page fails strict parse: %v", err)
	}
	for _, want := range []string{
		"xpe_eval_docs_total", // engine family
		"xpe_go_goroutines",   // runtime gauge
		"xpe_serve_feed_runs_total 1\n",
		"xpe_serve_select_runs_total 1\n",
		`xpe_serve_tenant_admitted_total{tenant="t1"} 1` + "\n",
		`xpe_serve_tenant_admitted_total{tenant="t2"} 1` + "\n",
		`xpe_serve_requests_total{tenant="t1",feed="market",code="2xx"} 1` + "\n",
		`xpe_serve_requests_total{tenant="t2",feed="(select)",code="2xx"} 1` + "\n",
		`xpe_serve_request_duration_seconds_count{tenant="t1",feed="market"} 1` + "\n",
		`xpe_serve_query_matches_total{tenant="t1",feed="market",query="prices"} 2` + "\n",
		`xpe_serve_query_matches_total{tenant="t2",feed="market",query="skus"} 1` + "\n",
		"xpe_serve_rollup_overflow_total 0\n",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("page missing %q\n%s", want, page)
		}
	}

	// The engine debug surface is mounted on the serving mux too.
	resp, err = http.Get(ts.URL + "/debug/xpe/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /debug/xpe/metrics: %d", resp.StatusCode)
	}
	if err := telemetry.Lint(string(body)); err != nil {
		t.Fatalf("debug metrics page fails strict parse: %v", err)
	}
}

// syncBuffer is a goroutine-safe log sink for the slog handlers below.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) lines(t *testing.T) []map[string]any {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []map[string]any
	for _, ln := range strings.Split(strings.TrimSpace(b.buf.String()), "\n") {
		if ln == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("log line is not JSON: %q: %v", ln, err)
		}
		out = append(out, m)
	}
	return out
}

// TestRequestIDCorrelation closes the correlation loop: one client-sent
// X-Request-Id must come back in the response header, in the access log
// line, in every slow-record warning, and on every record trace at
// /debug/xpe/serve/traces?feed=.
func TestRequestIDCorrelation(t *testing.T) {
	logbuf := &syncBuffer{}
	_, ts := newTestServer(t, Options{
		Logger:              slog.New(slog.NewJSONHandler(logbuf, nil)),
		SlowRecordThreshold: time.Nanosecond, // every record is "slow"
	})
	mustRegister(t, ts, `{"tenant":"t1","name":"prices","query":"price doc* *","feed":"market"}`)

	req, err := http.NewRequest("POST", ts.URL+"/v1/feed/market?tenant=t1", strings.NewReader(feedCorpus))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "corr-test-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("feed post: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "corr-test-1" {
		t.Errorf("response X-Request-Id = %q, want the client's id echoed", got)
	}

	// The access line and the slow-record warnings carry the id.
	var sawAccess, sawSlow bool
	for _, line := range logbuf.lines(t) {
		switch line["msg"] {
		case "xpe.serve access":
			sawAccess = true
			if line["request_id"] != "corr-test-1" || line["tenant"] != "t1" ||
				line["feed"] != "market" || line["status"] != float64(200) {
				t.Errorf("access line missing correlation fields: %v", line)
			}
			if line["records"] == nil || line["matches"] == nil || line["duration_ms"] == nil {
				t.Errorf("access line missing run figures: %v", line)
			}
		case "xpe.serve slow record":
			sawSlow = true
			if line["request_id"] != "corr-test-1" || line["feed"] != "market" {
				t.Errorf("slow-record line missing correlation fields: %v", line)
			}
		}
	}
	if !sawAccess || !sawSlow {
		t.Fatalf("want both an access line and slow-record warnings; access=%v slow=%v", sawAccess, sawSlow)
	}

	// Every record trace in the feed's flight recorder carries the id.
	resp, err = http.Get(ts.URL + "/debug/xpe/serve/traces?feed=market")
	if err != nil {
		t.Fatal(err)
	}
	var traces []xpe.RecordTrace
	if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(traces) == 0 {
		t.Fatal("feed recorder is empty after a traced run")
	}
	for _, tr := range traces {
		if tr.RequestID != "corr-test-1" {
			t.Errorf("trace record %d: request_id %q, want corr-test-1", tr.Index, tr.RequestID)
		}
	}

	// A garbage client id is replaced, never echoed or logged verbatim.
	req, _ = http.NewRequest("POST", ts.URL+"/v1/feed/market?tenant=t1", strings.NewReader(feedCorpus))
	req.Header.Set("X-Request-Id", "not a token!!")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	got := resp.Header.Get("X-Request-Id")
	if got == "" || strings.Contains(got, " ") || got == "not a token!!" {
		t.Errorf("invalid client id must be replaced with a fresh token, got %q", got)
	}
}

// TestMetricsCardinalityCap drives more label sets than MaxLabelSets
// allows and checks the fold: the page stays bounded, the surplus lands
// in the ("other","other") bucket, and the overflow counter reports it.
func TestMetricsCardinalityCap(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxLabelSets: 2})
	for i := 0; i < 5; i++ {
		postNDJSON(t, fmt.Sprintf("%s/v1/select?tenant=tn%d&query=price+doc*+*", ts.URL, i), feedCorpus)
	}
	var buf bytes.Buffer
	if err := s.writeMetrics(&buf, false); err != nil {
		t.Fatal(err)
	}
	page := buf.String()
	if err := telemetry.Lint(page); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(page, `xpe_serve_requests_total{tenant="other",feed="other",code="2xx"} 3`+"\n") {
		t.Errorf("three folded requests should share the other bucket:\n%s", page)
	}
	if !strings.Contains(page, "xpe_serve_rollup_overflow_total 3\n") {
		t.Errorf("overflow counter should report 3 folds:\n%s", page)
	}
	// Tenants past the cap keep their (uncapped) admission series but get
	// no rollup cells of their own.
	if strings.Contains(page, `xpe_serve_requests_total{tenant="tn3"`) ||
		strings.Contains(page, `xpe_serve_requests_total{tenant="tn4"`) {
		t.Errorf("rollup label sets past the cap must not appear:\n%s", page)
	}
}

// TestMetricsDisabled pins the DisableTelemetry contract: no /metrics, no
// feed traces, no request ids — and evaluation still works.
func TestMetricsDisabled(t *testing.T) {
	_, ts := newTestServer(t, Options{DisableTelemetry: true})
	mustRegister(t, ts, `{"tenant":"t","name":"q","query":"price doc* *","feed":"f"}`)
	_, summary, resp := postNDJSON(t, ts.URL+"/v1/feed/f?tenant=t", feedCorpus)
	if summary.Records == 0 {
		t.Fatal("evaluation must still work with telemetry off")
	}
	if got := resp.Header.Get("X-Request-Id"); got != "" {
		t.Errorf("telemetry off must not assign request ids, got %q", got)
	}
	for _, path := range []string{"/metrics", "/debug/xpe/serve/traces?feed=f"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s with telemetry off: %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestStatsGaugeHygiene pins the counter/gauge split on the breaker
// surface: after a trip, the cumulative trip counter and the
// point-in-time state gauge must agree across the JSON stats and the
// exposition page, including the per-feed breaker_states map.
func TestStatsGaugeHygiene(t *testing.T) {
	s, ts := newTestServer(t, Options{BreakerThreshold: 2, BreakerBackoff: time.Minute})
	mustRegister(t, ts, `{"tenant":"t","name":"q","query":"price doc*","feed":"f"}`)

	poisoned := `<corpus><doc><price>1</price></doc>` +
		`<doc><x></doc><doc><y></doc>` +
		`<doc><price>2</price></doc></corpus>`
	resp, err := http.Post(ts.URL+"/v1/feed/f?split=doc", "application/xml", strings.NewReader(poisoned))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	st := s.Stats()
	if st.BreakerTrips != 1 || st.BreakerOpen != 1 {
		t.Fatalf("after trip: trips=%d open=%d", st.BreakerTrips, st.BreakerOpen)
	}
	if st.BreakerStates["f"] != "open" {
		t.Fatalf("breaker_states = %v, want f open", st.BreakerStates)
	}

	// The JSON surface carries the same split.
	resp, err = http.Get(ts.URL + "/debug/xpe/serve")
	if err != nil {
		t.Fatal(err)
	}
	var js struct {
		BreakerTrips  int64             `json:"breaker_trips"`
		BreakerOpen   int64             `json:"breaker_open_feeds"`
		BreakerStates map[string]string `json:"breaker_states"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if js.BreakerTrips != 1 || js.BreakerOpen != 1 || js.BreakerStates["f"] != "open" {
		t.Fatalf("JSON stats disagree: %+v", js)
	}

	// And so does the exposition page: counter and gauge, by type.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	page := string(body)
	for _, want := range []string{
		"# TYPE xpe_serve_breaker_trips_total counter\n",
		"xpe_serve_breaker_trips_total 1\n",
		"# TYPE xpe_serve_breaker_state gauge\n",
		`xpe_serve_breaker_state{feed="f"} 2` + "\n",
		"# TYPE xpe_serve_breaker_open_feeds gauge\n",
		"xpe_serve_breaker_open_feeds 1\n",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("page missing %q", want)
		}
	}
}

// TestMetricsScrapeUnderLoadLeak hammers feed posts and concurrent
// /metrics scrapes (the whole suite runs under -race via make
// race), strict-parses a final scrape, and then checks that no
// goroutine outlives the server — rollup cells, recorders, and the
// exposition path must not leak or tear.
func TestMetricsScrapeUnderLoadLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	_, ts := newTestServer(t, Options{MaxConcurrent: 4, SlowRecordThreshold: time.Nanosecond,
		Logger: slog.New(slog.NewJSONHandler(io.Discard, nil))})
	chaosRegister(t, ts, `{"tenant":"t1","name":"prices","query":"price doc* *","feed":"market"}`)
	chaosRegister(t, ts, `{"tenant":"t2","name":"skus","query":"sku doc*","feed":"market"}`)

	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				resp, err := http.Post(
					fmt.Sprintf("%s/v1/feed/market?tenant=t%d", ts.URL, p%2+1),
					"application/xml", strings.NewReader(feedCorpus))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(p)
	}
	for sc := 0; sc < 4; sc++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("scrape under load: %d", resp.StatusCode)
					return
				}
				if err := telemetry.Lint(string(body)); err != nil {
					t.Errorf("scrape under load fails strict parse: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := telemetry.Lint(string(body)); err != nil {
		t.Fatalf("final scrape fails strict parse: %v", err)
	}
	if !strings.Contains(string(body), `xpe_serve_requests_total{tenant="t1",feed="market",code="2xx"} 10`+"\n") {
		t.Errorf("rollups lost requests under load:\n%s", body)
	}
	drainLeaks(t, base, ts.Close)
}
