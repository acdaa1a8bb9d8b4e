package serve

// Serving telemetry: the GET /metrics exposition page, request-scoped
// correlation (X-Request-Id assignment and propagation into record
// traces), the structured access log, and the per-feed trace endpoint.
//
// The request-id contract: every evaluation request gets an id — the
// client's X-Request-Id header when it is a sane token, a fresh random
// one otherwise — echoed back in the response's X-Request-Id header,
// stamped onto every record trace the run commits (visible at
// /debug/xpe/serve/traces?feed=), carried by slow-record log lines, and
// closing the loop in the access log line. One id therefore correlates
// the HTTP exchange, the per-record spans, and the logs.

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"xpe"
	"xpe/internal/telemetry"
)

// requestID resolves the request's correlation id and echoes it on the
// response. Client-supplied ids are honored when they look like tokens
// (printable, bounded); anything else is replaced, never trusted into
// log lines verbatim.
func (s *Server) requestID(w http.ResponseWriter, r *http.Request) string {
	if s.rollups == nil {
		return "" // telemetry disabled: no ids, no header
	}
	rid := r.Header.Get("X-Request-Id")
	if !validRequestID(rid) {
		rid = newRequestID()
	}
	w.Header().Set("X-Request-Id", rid)
	return rid
}

// validRequestID accepts 1..128 bytes of [A-Za-z0-9._-].
func validRequestID(rid string) bool {
	if len(rid) == 0 || len(rid) > 128 {
		return false
	}
	for i := 0; i < len(rid); i++ {
		c := rid[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// newRequestID returns a fresh random id ("a1b2...", 16 hex chars).
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; correlation ids are
		// not security tokens, so degrade to a constant rather than 500.
		return "rand-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// statusWriter captures the response status for the access log and the
// rollup response-class counters. It forwards Flush so NDJSON streaming
// keeps its per-record flushing through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(p)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// code is the committed status (200 when the handler returned without
// an explicit WriteHeader — net/http's own default).
func (sw *statusWriter) code() int {
	if sw.status == 0 {
		return http.StatusOK
	}
	return sw.status
}

// finishRequest closes out one evaluation request: the dimensional
// rollups and the one structured access line. Deferred by the select
// and feed handlers, so refusals (429/503) and bad requests are
// accounted and logged exactly like served runs.
func (s *Server) finishRequest(kind, tenant, feed, rid string, queries int, sw *statusWriter, stats *xpe.StreamStats, start time.Time) {
	dur := time.Since(start)
	if s.rollups != nil {
		s.rollups.observe(tenant, feed, sw.code(), *stats, dur)
	}
	if l := s.opts.Logger; l != nil {
		l.Info("xpe.serve access",
			"kind", kind,
			"tenant", tenant,
			"feed", feed,
			"status", sw.code(),
			"queries", queries,
			"records", stats.Records,
			"matches", stats.Matches,
			"duration_ms", float64(dur)/float64(time.Millisecond),
			"request_id", rid,
		)
	}
}

// slowRecordSink builds the per-run slow-record callback: serving
// context (tenant, feed, request id) plus the trace's own figures, on
// the server's logger. Returns nil without a logger — the facade then
// falls back to its own slog warning, which still carries the stamped
// request id.
func (s *Server) slowRecordSink(tenant, feed string) func(xpe.RecordTrace) {
	l := s.opts.Logger
	if l == nil {
		return nil
	}
	return func(rt xpe.RecordTrace) {
		l.Warn("xpe.serve slow record",
			"tenant", tenant,
			"feed", feed,
			"request_id", rt.RequestID,
			"record", rt.Index,
			"path", rt.Path,
			"total_ns", rt.TotalNS,
			"eval_ns", rt.EvalNS,
			"nodes", rt.Nodes,
			"matches", rt.Matches,
			"outcome", rt.Outcome,
		)
	}
}

// handleMetrics serves the Prometheus exposition page: engine counters,
// serve counters and gauges, the dimensional rollups, and process
// runtime gauges.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	if s.rollups == nil {
		http.Error(w, "telemetry disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w, true)
}

// writeMetrics renders the full exposition page. withRuntime gates the
// process gauges (goroutines, heap), whose values no golden file can
// pin; the golden test renders with them off, live scrapes with them
// on.
func (s *Server) writeMetrics(w io.Writer, withRuntime bool) error {
	t := telemetry.NewWriter(w)
	telemetry.AppendEngine(t, s.opts.Engine.Stats())
	s.appendServe(t)
	if s.rollups != nil {
		s.rollups.render(t)
	}
	if withRuntime {
		telemetry.AppendRuntime(t)
	}
	return t.Err()
}

// appendServe renders the server-wide counters and gauges (the Stats
// surface) plus per-tenant admission series and per-feed breaker state.
// The counter/gauge split follows the Stats struct's documented hygiene:
// cumulative totals are counters, point-in-time occupancy is gauges.
func (s *Server) appendServe(t *telemetry.Writer) {
	st := s.Stats()

	t.Counter("xpe_serve_eval_requests_total", "Evaluation requests seen (admitted or refused).", st.Requests)
	t.Counter("xpe_serve_admitted_total", "Requests granted an evaluation slot.", st.Admitted)
	t.Counter("xpe_serve_rejected_total", "Requests bounced by admission control with 429.", st.Rejected)
	t.Counter("xpe_serve_shed_total", "The 429 subset shed by weight under overload.", st.Shed)
	t.Counter("xpe_serve_degraded_total", "Admissions served under tightened (degraded) budgets.", st.Degraded)
	t.Counter("xpe_serve_draining_rejects_total", "Requests bounced with 503 while draining.", st.Draining)
	t.Counter("xpe_serve_breaker_rejects_total", "Feed posts bounced by an open circuit breaker.", st.BreakerRejects)
	t.Counter("xpe_serve_breaker_trips_total", "Circuit breaker closed-to-open transitions.", st.BreakerTrips)
	t.Counter("xpe_serve_feed_runs_total", "Shared-pass feed evaluations started.", st.Feeds)
	t.Counter("xpe_serve_select_runs_total", "One-shot select evaluations started.", st.Selects)
	t.Counter("xpe_serve_eval_matches_total", "NDJSON match lines written across all runs.", st.Matches)
	t.Counter("xpe_serve_eval_records_total", "Records evaluated across all runs.", st.Records)
	t.Counter("xpe_serve_eval_prefiltered_total", "Records skipped by the union prefilter across all runs.", st.Prefiltered)
	t.Counter("xpe_serve_eval_skipped_total", "Failed records dropped by the Skip policy across all runs.", st.Skipped)

	t.Gauge("xpe_serve_queue_depth", "Admission waiters queued right now, all tenants (gauge).", float64(st.QueueDepth))
	t.Gauge("xpe_serve_active_streams", "Streams evaluating right now (gauge).", float64(st.ActiveProbes))
	t.Gauge("xpe_serve_breaker_open_feeds", "Feeds currently refusing service (gauge).", float64(st.BreakerOpen))
	t.Gauge("xpe_serve_registered_queries", "Live query registrations (gauge).", float64(st.Registered))
	t.Gauge("xpe_serve_quarantined_queries", "Replayed registrations that no longer compile (gauge).", float64(st.Quarantined))

	tenants := make([]string, 0, len(st.Tenants))
	for name := range st.Tenants {
		tenants = append(tenants, name)
	}
	sort.Strings(tenants)
	t.Family("xpe_serve_tenant_admitted_total", "Admissions granted, by tenant.", "counter")
	for _, name := range tenants {
		t.Sample("xpe_serve_tenant_admitted_total", float64(st.Tenants[name].Admitted), "tenant", name)
	}
	t.Family("xpe_serve_tenant_rejected_total", "Admissions refused, by tenant.", "counter")
	for _, name := range tenants {
		t.Sample("xpe_serve_tenant_rejected_total", float64(st.Tenants[name].Rejected), "tenant", name)
	}
	t.Family("xpe_serve_tenant_queue_depth", "Admission waiters queued right now, by tenant (gauge).", "gauge")
	for _, name := range tenants {
		t.Sample("xpe_serve_tenant_queue_depth", float64(st.Tenants[name].QueueDepth), "tenant", name)
	}
	t.Family("xpe_serve_tenant_weight", "Fair-admission weight, by tenant (gauge).", "gauge")
	for _, name := range tenants {
		t.Sample("xpe_serve_tenant_weight", float64(st.Tenants[name].Weight), "tenant", name)
	}

	feeds := make([]string, 0, len(st.BreakerStates))
	for feed := range st.BreakerStates {
		feeds = append(feeds, feed)
	}
	sort.Strings(feeds)
	t.Family("xpe_serve_breaker_state", "Circuit breaker state by feed: 0 closed, 1 half-open, 2 open (gauge).", "gauge")
	for _, feed := range feeds {
		t.Sample("xpe_serve_breaker_state", float64(breakerStateValue(st.BreakerStates[feed])), "feed", feed)
	}
}

// breakerStateValue maps a breaker state name to its gauge value.
func breakerStateValue(state string) int {
	switch state {
	case "open":
		return 2
	case "half-open":
		return 1
	default:
		return 0
	}
}

// handleFeedTraces serves one feed's flight-recorder ring as JSON —
// the per-feed "what just happened" surface, request ids included.
func (s *Server) handleFeedTraces(w http.ResponseWriter, r *http.Request) {
	if s.rollups == nil {
		http.Error(w, "telemetry disabled", http.StatusNotFound)
		return
	}
	feed := r.URL.Query().Get("feed")
	if feed == "" {
		http.Error(w, "?feed= is required", http.StatusBadRequest)
		return
	}
	fr := s.rollups.existingRecorder(feed)
	if fr == nil {
		http.Error(w, fmt.Sprintf("feed %q has no recorded traces", feed), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fr.WriteJSON(w)
}
