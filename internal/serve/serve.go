// Package serve is the multi-tenant query-serving layer: a long-lived
// HTTP surface where tenants register compiled queries once and stream
// documents past them, getting NDJSON matches back.
//
// Endpoints:
//
//	POST /v1/queries        register a query (JSON body; compiled eagerly)
//	GET  /v1/queries        list registrations (?tenant= filters)
//	POST /v1/select         one-shot: evaluate an ad-hoc query over the body
//	POST /v1/feed/{feed}    shared pass: every query registered on the feed
//	GET  /v1/healthz        liveness ("draining" while shutting down)
//	GET  /metrics           Prometheus text exposition (engine, serve, rollups)
//	GET  /debug/xpe/serve   serving counters (admission, feeds, matches)
//	GET  /debug/xpe/serve/traces?feed=  one feed's flight-recorder ring
//	/debug/xpe/*, /debug/pprof/*  the engine debug surface (xpe/debug)
//
// A feed run is ONE pass over the posted document however many queries are
// registered: the stream is split and parsed once and every record drives
// all the match automata (xpe.Engine.SelectStreamMulti), with the union
// prefilter gating per-query evaluation. Matches stream back as NDJSON
// lines tagged with tenant and query name, grouped per record by
// registration order; a final {"summary":...} line carries the run's
// stats, in which records+prefiltered always equals the total records the
// splitter saw.
//
// Tenancy is cooperative, not authenticated (bind the listener like a
// pprof port): a tenant is a namespace for query names plus a budget set —
// MaxRecordBytes/MaxRecordNodes/RecordTimeout — applied to the documents
// that tenant posts. Feed runs default to the Skip policy so one poisoned
// record costs that record, not the feed (fault containment); pass
// ?on-error=abort to fail fast instead.
//
// Admission control bounds concurrent evaluation: at most MaxConcurrent
// streams evaluate at once, dispensed fairly across tenants by weighted
// round-robin over per-tenant wait queues of at most MaxQueueDepth each
// (see admission.go) — one tenant's flood can never push another tenant
// to 429. Refusals are machine-actionable: a JSON body with the tenant's
// queue depth and a retry hint derived from the observed drain rate.
// BeginDrain flips new evaluation requests to 503 while in-flight streams
// finish — the graceful-shutdown half that http.Server.Shutdown's
// connection draining does not cover.
//
// With Options.StateDir set, registrations survive restarts: each is
// fsynced to an append-only journal before its 201, and startup replays
// snapshot+journal, quarantining entries that no longer compile (see
// journal.go). Per-feed circuit breakers isolate feeds whose records keep
// failing (see breaker.go).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xpe"
	"xpe/debug"
)

// DefaultFeed is the feed queries register on when the registration names
// none.
const DefaultFeed = "default"

// Budgets are the per-tenant resource bounds applied to documents the
// tenant streams. Zero fields mean unlimited, matching xpe.SelectOptions.
type Budgets struct {
	// MaxRecordBytes bounds the raw input bytes one record may span.
	MaxRecordBytes int64 `json:"maxRecordBytes,omitempty"`
	// MaxRecordNodes bounds one record's node count.
	MaxRecordNodes int `json:"maxRecordNodes,omitempty"`
	// RecordTimeout bounds one record's evaluation wall time — across all
	// queries of a feed pass (it is a record budget, not a per-query one).
	RecordTimeout time.Duration `json:"-"`
	// RecordTimeoutStr is RecordTimeout's JSON form ("150ms").
	RecordTimeoutStr string `json:"recordTimeout,omitempty"`
	// Weight is the tenant's fair-admission share: per round-robin cycle
	// the tenant may take up to Weight evaluation slots before the turn
	// passes, and under shed-level overload lower-weight tenants are
	// rejected first. 0 means 1.
	Weight int `json:"weight,omitempty"`
}

// normalize resolves the JSON duration form, favoring the typed field.
func (b *Budgets) normalize() error {
	if b.RecordTimeout == 0 && b.RecordTimeoutStr != "" {
		d, err := time.ParseDuration(b.RecordTimeoutStr)
		if err != nil {
			return fmt.Errorf("recordTimeout: %w", err)
		}
		b.RecordTimeout = d
	}
	if b.MaxRecordBytes < 0 || b.MaxRecordNodes < 0 || b.RecordTimeout < 0 {
		return errors.New("budgets must be non-negative (0 = unlimited)")
	}
	if b.Weight < 0 {
		return errors.New("weight must be non-negative (0 = default weight 1)")
	}
	if b.RecordTimeout > 0 {
		b.RecordTimeoutStr = b.RecordTimeout.String()
	}
	return nil
}

// Options configures a Server.
type Options struct {
	// Engine compiles and evaluates; required.
	Engine *xpe.Engine
	// MaxConcurrent bounds streams evaluating at once (<=0: 4).
	MaxConcurrent int
	// MaxQueueDepth bounds admission waiters PER TENANT (<=0: 8); a
	// tenant whose queue is full is answered 429 + Retry-After without
	// touching any other tenant's queue.
	MaxQueueDepth int
	// Workers is the per-stream evaluation worker count (xpe
	// SelectOptions.Workers; <=0 = GOMAXPROCS).
	Workers int
	// DefaultBudgets apply to tenants that never set their own, and to
	// anonymous posts.
	DefaultBudgets Budgets
	// MaxQueriesPerTenant caps registrations per tenant (<=0: 256).
	MaxQueriesPerTenant int
	// StateDir, when non-empty, makes registrations crash-safe: an
	// append-only NDJSON journal plus an atomically-compacted snapshot
	// live there, replayed on startup (see journal.go). Empty keeps the
	// registry in memory only.
	StateDir string
	// DegradeQueueDepth is the total queued-waiter count at which the
	// server starts tightening budgets — admitted runs' record timeouts
	// halve — to drain faster under pressure (<=0: 2×MaxQueueDepth).
	DegradeQueueDepth int
	// ShedQueueDepth is the total queued-waiter count at which arrivals
	// from tenants lighter than the heaviest queued tenant are rejected
	// outright — lowest weights shed first (<=0: 4×MaxQueueDepth).
	ShedQueueDepth int
	// BreakerThreshold is the consecutive record-failure count that trips
	// a feed's circuit breaker (0: 8; negative: breakers disabled).
	BreakerThreshold int
	// BreakerBackoff is the initial open interval after a trip, doubling
	// on each failed half-open probe up to BreakerMaxBackoff
	// (<=0: 5s / 2m).
	BreakerBackoff    time.Duration
	BreakerMaxBackoff time.Duration
	// Logger, when non-nil, receives the structured serving log: one
	// access line per evaluation request (tenant, feed, status, records,
	// matches, duration, request id) and slow-record warnings. Nil keeps
	// the server silent (the library-quiet default).
	Logger *slog.Logger
	// SlowRecordThreshold routes records whose split+eval+deliver total
	// meets or exceeds it to the slow-record log, with tenant/feed/
	// request-id context (0 disables).
	SlowRecordThreshold time.Duration
	// MaxLabelSets caps the dimensional rollups' cardinality: at most
	// this many (tenant, feed) cells and (tenant, feed, query) match
	// counters; past the cap, observations fold into an "other" bucket
	// (<=0: 128).
	MaxLabelSets int
	// FeedTraceDepth is the per-feed flight-recorder ring capacity
	// backing /debug/xpe/serve/traces?feed= (<=0: 32).
	FeedTraceDepth int
	// DisableTelemetry turns the serving telemetry off wholesale — no
	// rollups, no request ids, no per-feed recorders; GET /metrics
	// answers 404. The telemetry-overhead gate measures this
	// configuration against the default.
	DisableTelemetry bool
}

// regQuery is one registered query. A quarantined entry survived a
// restart but no longer compiles: it stays listed (with its error) and
// keeps its name reserved, but is excluded from feed passes until
// re-registered over.
type regQuery struct {
	Tenant      string `json:"tenant"`
	Name        string `json:"name"`
	Source      string `json:"query,omitempty"`
	XPath       string `json:"xpath,omitempty"`
	Feed        string `json:"feed"`
	Quarantined bool   `json:"quarantined,omitempty"`
	Error       string `json:"error,omitempty"`
	seq         int    // global registration order: the feed-pass query order
	q           *xpe.Query
}

// tenant is a name namespace plus its budget set.
type tenant struct {
	budgets Budgets
	queries map[string]*regQuery
}

// Stats are the server's serving counters, exposed as JSON at
// /debug/xpe/serve and as Prometheus exposition at /metrics.
//
// The surface mixes two kinds of figure — keep them straight when
// graphing. Cumulative counters only ever rise (rate() them): Requests
// through Skipped below. Point-in-time gauges describe the instant the
// snapshot was taken and move both ways: QueueDepth, ActiveProbes,
// BreakerOpen, Registered, Quarantined, BreakerStates, and the
// per-tenant QueueDepth/Weight. The /metrics page declares the same
// split with # TYPE counter/gauge.
type Stats struct {
	// Cumulative counters.
	Requests       int64 `json:"requests"`             // evaluation requests seen
	Admitted       int64 `json:"admitted"`             // granted an evaluation slot
	Rejected       int64 `json:"rejected_429"`         // bounced by admission (queue full or shed)
	Shed           int64 `json:"shed_429"`             // the rejected_429 subset shed by weight
	Degraded       int64 `json:"degraded"`             // admissions under tightened budgets
	Draining       int64 `json:"draining_503"`         // bounced while draining
	BreakerRejects int64 `json:"rejected_503_breaker"` // feed posts bounced by an open breaker
	BreakerTrips   int64 `json:"breaker_trips"`        // breaker closed→open transitions
	Feeds          int64 `json:"feed_runs"`            // shared-pass feed evaluations
	Selects        int64 `json:"select_runs"`          // one-shot evaluations
	Matches        int64 `json:"matches"`              // NDJSON match lines written
	Records        int64 `json:"records"`              // records evaluated
	Prefiltered    int64 `json:"prefiltered"`          // records skipped by the union prefilter
	Skipped        int64 `json:"skipped"`              // failed records dropped by Skip

	// Point-in-time gauges.
	BreakerOpen   int64             `json:"breaker_open_feeds"`       // feeds currently refusing service
	QueueDepth    int64             `json:"queue_depth"`              // current admission waiters, all tenants
	ActiveProbes  int64             `json:"active"`                   // streams evaluating right now
	Registered    int64             `json:"registered"`               // live query registrations
	Quarantined   int64             `json:"quarantined"`              // replayed registrations that no longer compile
	BreakerStates map[string]string `json:"breaker_states,omitempty"` // per-feed breaker state: closed / half-open / open

	Tenants map[string]TenantStats `json:"tenants,omitempty"` // per-tenant admission counters
}

// TenantStats are one tenant's admission figures: Admitted and Rejected
// are cumulative counters, Weight and QueueDepth point-in-time gauges.
type TenantStats struct {
	Weight     int   `json:"weight"`
	Admitted   int64 `json:"admitted"`
	Rejected   int64 `json:"rejected_429"`
	QueueDepth int64 `json:"queue_depth"`
}

// Server is the serving state machine behind the HTTP surface. It is an
// http.Handler; lifecycle (listening, TLS, connection shutdown) belongs to
// the embedding http.Server — see cmd/xpeserve.
type Server struct {
	opts Options
	mux  *http.ServeMux

	mu      sync.RWMutex
	tenants map[string]*tenant
	feeds   map[string][]*regQuery
	regSeq  int

	adm      *admitter
	breakers *breakerSet
	jnl      *journal
	rollups  *rollups // nil when Options.DisableTelemetry
	draining atomic.Bool
	active   sync.WaitGroup

	requests, admitted, rejected, drained atomic.Int64
	feedRuns, selectRuns                  atomic.Int64
	matches, records, prefiltered, skips  atomic.Int64
	registered, quarantinedN              atomic.Int64
	breakerTrips, breakerRejects          atomic.Int64
}

// NewServer builds the serving surface over eng.
func NewServer(opts Options) (*Server, error) {
	if opts.Engine == nil {
		return nil, errors.New("serve: Options.Engine is required")
	}
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = 4
	}
	if opts.MaxQueueDepth <= 0 {
		opts.MaxQueueDepth = 8
	}
	if opts.MaxQueriesPerTenant <= 0 {
		opts.MaxQueriesPerTenant = 256
	}
	if opts.DegradeQueueDepth <= 0 {
		opts.DegradeQueueDepth = 2 * opts.MaxQueueDepth
	}
	if opts.ShedQueueDepth <= 0 {
		opts.ShedQueueDepth = 4 * opts.MaxQueueDepth
	}
	if opts.BreakerThreshold == 0 {
		opts.BreakerThreshold = 8
	}
	if opts.BreakerBackoff <= 0 {
		opts.BreakerBackoff = 5 * time.Second
	}
	if opts.BreakerMaxBackoff <= 0 {
		opts.BreakerMaxBackoff = 2 * time.Minute
	}
	if err := opts.DefaultBudgets.normalize(); err != nil {
		return nil, fmt.Errorf("serve: default budgets: %w", err)
	}
	s := &Server{
		opts:     opts,
		tenants:  make(map[string]*tenant),
		feeds:    make(map[string][]*regQuery),
		adm:      newAdmitter(opts.MaxConcurrent, opts.MaxQueueDepth, opts.DegradeQueueDepth, opts.ShedQueueDepth),
		breakers: newBreakerSet(opts.BreakerThreshold, opts.BreakerBackoff, opts.BreakerMaxBackoff),
	}
	if !opts.DisableTelemetry {
		s.rollups = newRollups(opts.MaxLabelSets, opts.FeedTraceDepth)
	}
	if opts.StateDir != "" {
		jnl, entries, err := openJournal(opts.StateDir)
		if err != nil {
			return nil, fmt.Errorf("serve: state dir %s: %w", opts.StateDir, err)
		}
		s.jnl = jnl
		s.replay(entries)
		if err := jnl.compact(s.entriesLocked()); err != nil {
			jnl.close()
			return nil, fmt.Errorf("serve: compact %s: %w", opts.StateDir, err)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/queries", s.handleRegister)
	mux.HandleFunc("GET /v1/queries", s.handleList)
	mux.HandleFunc("POST /v1/select", s.handleSelect)
	mux.HandleFunc("POST /v1/feed/{feed}", s.handleFeed)
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/xpe/serve", s.handleStats)
	mux.HandleFunc("GET /debug/xpe/serve/traces", s.handleFeedTraces)
	mux.Handle("/debug/", debug.Handler(debug.Options{Engine: opts.Engine}))
	s.mux = mux
	return s, nil
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close releases the persistence handle (the registry itself needs no
// teardown). Safe without StateDir.
func (s *Server) Close() error {
	if s.jnl != nil {
		return s.jnl.close()
	}
	return nil
}

// replay folds recovered journal entries into the registry, in order. An
// entry that no longer compiles is quarantined, not dropped and not
// fatal: it stays listed with its error and keeps its name reserved. A
// later entry for the same (tenant, name) replaces an earlier one — that
// is how re-registering over a quarantined entry persists.
func (s *Server) replay(entries []journalEntry) {
	for _, e := range entries {
		if e.Feed == "" {
			e.Feed = DefaultFeed
		}
		t := s.tenants[e.Tenant]
		if t == nil {
			t = &tenant{budgets: s.opts.DefaultBudgets, queries: make(map[string]*regQuery)}
			s.tenants[e.Tenant] = t
		}
		if e.Budgets != nil {
			b := *e.Budgets
			if b.normalize() == nil {
				t.budgets = b
			}
		}
		rq := &regQuery{Tenant: e.Tenant, Name: e.Name, Source: e.Query,
			XPath: e.XPath, Feed: e.Feed, seq: s.regSeq}
		s.regSeq++
		var err error
		if e.Query != "" {
			rq.q, err = s.opts.Engine.CompileQuery(e.Query)
		} else {
			rq.q, err = s.opts.Engine.CompileXPath(e.XPath)
		}
		if err != nil {
			rq.Quarantined = true
			rq.Error = err.Error()
			rq.q = nil
		}
		if old := t.queries[e.Name]; old != nil {
			s.dropLocked(old)
		}
		t.queries[e.Name] = rq
		if rq.Quarantined {
			s.quarantinedN.Add(1)
		} else {
			s.feeds[e.Feed] = append(s.feeds[e.Feed], rq)
			s.registered.Add(1)
		}
	}
}

// dropLocked removes a registration from the counters and, when live,
// from its feed list.
func (s *Server) dropLocked(rq *regQuery) {
	if rq.Quarantined {
		s.quarantinedN.Add(-1)
		return
	}
	s.registered.Add(-1)
	regs := s.feeds[rq.Feed]
	for i, x := range regs {
		if x == rq {
			s.feeds[rq.Feed] = append(regs[:i], regs[i+1:]...)
			return
		}
	}
}

// entriesLocked renders the current registry as journal entries in seq
// order — the compaction snapshot. Quarantined entries are included:
// compaction must never silently drop a registration. Tenant budgets ride
// on each tenant's first entry (replay applies them in order, so the
// final state matches). Callers hold no lock during NewServer; live
// callers must hold s.mu.
func (s *Server) entriesLocked() []journalEntry {
	var all []*regQuery
	for _, t := range s.tenants {
		for _, rq := range t.queries {
			all = append(all, rq)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	entries := make([]journalEntry, 0, len(all))
	seenTenant := make(map[string]bool)
	for _, rq := range all {
		e := journalEntry{Tenant: rq.Tenant, Name: rq.Name, Query: rq.Source,
			XPath: rq.XPath, Feed: rq.Feed}
		if !seenTenant[rq.Tenant] {
			seenTenant[rq.Tenant] = true
			if b := s.tenants[rq.Tenant].budgets; b != s.opts.DefaultBudgets {
				bc := b
				e.Budgets = &bc
			}
		}
		entries = append(entries, e)
	}
	return entries
}

// BeginDrain stops admitting new evaluation requests (503) while letting
// in-flight streams run to completion. Registration and debug surfaces
// stay up. Idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain blocks until every admitted stream has finished or ctx expires.
// Call BeginDrain first, or new streams keep being admitted while you
// wait.
func (s *Server) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() { s.active.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats snapshots the serving counters.
func (s *Server) Stats() Stats {
	active, queued, degraded, shed, tenants := s.adm.snapshot()
	return Stats{
		Requests:       s.requests.Load(),
		Admitted:       s.admitted.Load(),
		Rejected:       s.rejected.Load(),
		Shed:           shed,
		Degraded:       degraded,
		Draining:       s.drained.Load(),
		BreakerRejects: s.breakerRejects.Load(),
		BreakerTrips:   s.breakerTrips.Load(),
		BreakerOpen:    s.breakers.openCount(),
		Feeds:          s.feedRuns.Load(),
		Selects:        s.selectRuns.Load(),
		Matches:        s.matches.Load(),
		Records:        s.records.Load(),
		Prefiltered:    s.prefiltered.Load(),
		Skipped:        s.skips.Load(),
		QueueDepth:     int64(queued),
		ActiveProbes:   int64(active),
		Registered:     s.registered.Load(),
		Quarantined:    s.quarantinedN.Load(),
		BreakerStates:  s.breakers.states(),
		Tenants:        tenants,
	}
}

// admit runs the admission gate for one evaluation request: it returns a
// release func on success, or writes the refusal (a machine-actionable
// 429, or 503 while draining) and returns nil plus the status it wrote
// (0 when the client vanished while queued and nothing was written —
// the access log records that as-is). The tenant's weight buys its
// share of the shared pool; see admission.go for the fairness model.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, tenantName string) (func(), int) {
	s.requests.Add(1)
	if s.draining.Load() {
		s.drained.Add(1)
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return nil, http.StatusServiceUnavailable
	}
	release, ref := s.adm.admit(r.Context(), tenantName, s.budgetsFor(tenantName).Weight)
	if release == nil {
		if ref != nil {
			s.rejected.Add(1)
			writeRefusal(w, ref)
			return nil, http.StatusTooManyRequests
		}
		return nil, 0 // context ended while queued: the client is gone
	}
	s.admitted.Add(1)
	s.active.Add(1)
	return func() {
		release()
		s.active.Done()
	}, 0
}

// writeRefusal answers a refused admission: 429, Retry-After in whole
// seconds (rounded up from the drain-rate estimate), and the JSON body
// automation retries on.
func writeRefusal(w http.ResponseWriter, ref *refusal) {
	secs := (ref.RetryAfterMS + 999) / 1000
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTooManyRequests)
	msg := "evaluation queue full"
	if ref.Shed {
		msg = "shed under overload: tenant weight below the queued maximum"
	}
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
		*refusal
	}{msg, ref})
}

// budgetsFor resolves the budget set for the posting tenant ("" means the
// server defaults).
func (s *Server) budgetsFor(name string) Budgets {
	if name != "" {
		s.mu.RLock()
		t := s.tenants[name]
		s.mu.RUnlock()
		if t != nil {
			return t.budgets
		}
	}
	return s.opts.DefaultBudgets
}

// registerRequest is the POST /v1/queries payload. Exactly one of query /
// xpath carries the source. Budgets, when present, replace the tenant's
// budget set (they are tenant-scoped, not query-scoped).
type registerRequest struct {
	Tenant  string   `json:"tenant"`
	Name    string   `json:"name"`
	Query   string   `json:"query,omitempty"`
	XPath   string   `json:"xpath,omitempty"`
	Feed    string   `json:"feed,omitempty"`
	Budgets *Budgets `json:"budgets,omitempty"`
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad registration: "+err.Error(), http.StatusBadRequest)
		return
	}
	switch {
	case req.Tenant == "":
		http.Error(w, "tenant is required", http.StatusBadRequest)
		return
	case req.Name == "":
		http.Error(w, "name is required", http.StatusBadRequest)
		return
	case (req.Query == "") == (req.XPath == ""):
		http.Error(w, "exactly one of query or xpath is required", http.StatusBadRequest)
		return
	case strings.Contains(req.Feed, "/"):
		http.Error(w, "feed names cannot contain '/'", http.StatusBadRequest)
		return
	}
	if req.Feed == "" {
		req.Feed = DefaultFeed
	}
	if req.Budgets != nil {
		if err := req.Budgets.normalize(); err != nil {
			http.Error(w, "bad budgets: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	// Compile outside the registry lock: compilation can be slow and the
	// engine is concurrency-safe. A compile failure is the caller's bug,
	// reported with the engine's diagnostic.
	var q *xpe.Query
	var err error
	if req.Query != "" {
		q, err = s.opts.Engine.CompileQuery(req.Query)
	} else {
		q, err = s.opts.Engine.CompileXPath(req.XPath)
	}
	if err != nil {
		http.Error(w, "compile: "+err.Error(), http.StatusBadRequest)
		return
	}

	s.mu.Lock()
	t := s.tenants[req.Tenant]
	if t == nil {
		t = &tenant{budgets: s.opts.DefaultBudgets, queries: make(map[string]*regQuery)}
		s.tenants[req.Tenant] = t
	}
	// A live duplicate is a conflict; a quarantined one may be registered
	// over — that is the recovery path for entries a restart could no
	// longer compile.
	old := t.queries[req.Name]
	if old != nil && !old.Quarantined {
		s.mu.Unlock()
		http.Error(w, fmt.Sprintf("tenant %q already has a query %q", req.Tenant, req.Name),
			http.StatusConflict)
		return
	}
	if old == nil && len(t.queries) >= s.opts.MaxQueriesPerTenant {
		s.mu.Unlock()
		http.Error(w, fmt.Sprintf("tenant %q is at its %d-query cap", req.Tenant, s.opts.MaxQueriesPerTenant),
			http.StatusForbidden)
		return
	}
	// Durability before acknowledgement: the journal append (fsynced) must
	// succeed before the registration takes effect, so every 201 the
	// client ever sees survives a crash.
	if s.jnl != nil {
		e := journalEntry{Tenant: req.Tenant, Name: req.Name, Query: req.Query,
			XPath: req.XPath, Feed: req.Feed, Budgets: req.Budgets}
		if err := s.jnl.append(e); err != nil {
			s.mu.Unlock()
			http.Error(w, "persist registration: "+err.Error(), http.StatusInternalServerError)
			return
		}
	}
	if req.Budgets != nil {
		t.budgets = *req.Budgets
	}
	if old != nil {
		s.dropLocked(old)
	}
	rq := &regQuery{Tenant: req.Tenant, Name: req.Name, Source: req.Query,
		XPath: req.XPath, Feed: req.Feed, seq: s.regSeq, q: q}
	s.regSeq++
	t.queries[req.Name] = rq
	s.feeds[req.Feed] = append(s.feeds[req.Feed], rq)
	s.registered.Add(1)
	s.mu.Unlock()

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(rq)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	filter := r.URL.Query().Get("tenant")
	s.mu.RLock()
	var out []*regQuery
	for name, t := range s.tenants {
		if filter != "" && name != filter {
			continue
		}
		for _, rq := range t.queries {
			out = append(out, rq)
		}
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Stats())
}

// evalParams are the per-request evaluation knobs shared by select and
// feed: the poster's identity (budgets), split element, and error policy.
func (s *Server) evalOptions(r *http.Request) (xpe.SelectOptions, string, error) {
	qp := r.URL.Query()
	tenantName := r.Header.Get("X-Tenant")
	if t := qp.Get("tenant"); t != "" {
		tenantName = t
	}
	b := s.budgetsFor(tenantName)
	opts := xpe.SelectOptions{
		Workers:        s.opts.Workers,
		SplitElement:   qp.Get("split"),
		MaxRecordBytes: b.MaxRecordBytes,
		MaxRecordNodes: b.MaxRecordNodes,
		RecordTimeout:  b.RecordTimeout,
	}
	switch pol := qp.Get("on-error"); pol {
	case "", "skip":
		// Fault containment is the serving default: a poisoned record
		// costs that record, not the stream.
		opts.OnError = xpe.Skip
	case "abort":
		opts.OnError = xpe.Abort
	default:
		return opts, tenantName, fmt.Errorf("on-error must be skip or abort, not %q", pol)
	}
	return opts, tenantName, nil
}

// matchLine is one NDJSON match.
type matchLine struct {
	Tenant     string `json:"tenant,omitempty"`
	Query      string `json:"query"`
	Record     int    `json:"record"`
	RecordPath string `json:"recordPath"`
	Path       string `json:"path"`
	Term       string `json:"term"`
}

// summaryLine closes every NDJSON stream. Records+Prefiltered is the
// total record count the splitter saw — the invariant the differential
// harness pins — so consumers can compute the skim rate directly.
type summaryLine struct {
	Records     int64 `json:"records"`
	Matches     int64 `json:"matches"`
	Prefiltered int64 `json:"prefiltered"`
	Skipped     int64 `json:"skipped"`
	TimedOut    int64 `json:"timedOut"`
	Recovered   int64 `json:"recovered"`
	Bytes       int64 `json:"bytes"`
	Queries     int   `json:"queries"`
}

// ndjson starts an NDJSON response and returns a line writer that flushes
// at record boundaries. Lines stream while the request body is still being
// split, so the response is full duplex: an HTTP/1.x server otherwise
// discards the unread body at the first flush, failing the next record's
// read. A writer without the capability, such as a recorder, is unchanged.
func ndjson(w http.ResponseWriter) func(v any) error {
	_ = http.NewResponseController(w).EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	fl, _ := w.(http.Flusher)
	return func(v any) error {
		if err := enc.Encode(v); err != nil {
			return err
		}
		if fl != nil {
			fl.Flush()
		}
		return nil
	}
}

// finishStream accounts a finished evaluation and emits the summary (or
// the error, when the run died after the header was committed).
func (s *Server) finishStream(write func(any) error, stats xpe.StreamStats, nq int, err error) {
	s.matches.Add(stats.Matches)
	s.records.Add(stats.Records)
	s.prefiltered.Add(stats.Prefiltered)
	s.skips.Add(stats.Skipped)
	if err != nil {
		write(map[string]string{"error": err.Error()})
		return
	}
	write(struct {
		Summary summaryLine `json:"summary"`
	}{summaryLine{
		Records: stats.Records, Matches: stats.Matches,
		Prefiltered: stats.Prefiltered, Skipped: stats.Skipped,
		TimedOut: stats.TimedOut, Recovered: stats.Recovered,
		Bytes: stats.Bytes, Queries: nq,
	}})
}

// handleSelect evaluates one ad-hoc query (?query= or ?xpath=) over the
// posted document — the single-query end of the serving surface, no
// registration required.
func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w}
	start := time.Now()
	rid := s.requestID(sw, r)
	opts, tenantName, err := s.evalOptions(r)
	var stats xpe.StreamStats
	defer func() { s.finishRequest("select", tenantName, selectFeedLabel, rid, 1, sw, &stats, start) }()
	if err != nil {
		http.Error(sw, err.Error(), http.StatusBadRequest)
		return
	}
	qp := r.URL.Query()
	src, xp := qp.Get("query"), qp.Get("xpath")
	if (src == "") == (xp == "") {
		http.Error(sw, "exactly one of ?query= or ?xpath= is required", http.StatusBadRequest)
		return
	}
	var q *xpe.Query
	if src != "" {
		q, err = s.opts.Engine.CompileQuery(src)
	} else {
		q, err = s.opts.Engine.CompileXPath(xp)
	}
	if err != nil {
		http.Error(sw, "compile: "+err.Error(), http.StatusBadRequest)
		return
	}
	release, _ := s.admit(sw, r, tenantName)
	if release == nil {
		return
	}
	defer release()
	s.degradeBudgets(&opts)
	s.applyTelemetry(&opts, rid, tenantName, selectFeedLabel)
	s.selectRuns.Add(1)
	write := ndjson(sw)
	var werr error
	stats, err = s.opts.Engine.SelectStream(r.Context(), r.Body, q, opts,
		func(m xpe.StreamMatch) error {
			werr = write(matchLine{Tenant: tenantName, Query: src + xp, Record: m.Record,
				RecordPath: m.RecordPath, Path: m.Path, Term: m.Term})
			return werr
		})
	if err == nil {
		err = werr
	}
	s.finishStream(write, stats, 1, err)
}

// applyTelemetry threads the request's observability hooks into the run
// options: the correlation id (stamped onto every record trace), the
// per-feed flight recorder, and the slow-record log with serving
// context. The recorder and id are telemetry-gated; the slow-record
// threshold applies regardless (it is a serving policy, not a scrape
// surface).
func (s *Server) applyTelemetry(opts *xpe.SelectOptions, rid, tenant, feed string) {
	opts.RequestID = rid
	if s.opts.SlowRecordThreshold > 0 {
		opts.SlowRecordThreshold = s.opts.SlowRecordThreshold
		opts.OnSlowRecord = s.slowRecordSink(tenant, feed)
	}
	if s.rollups != nil && feed != selectFeedLabel {
		opts.Trace = s.rollups.recorder(feed)
	}
}

// handleFeed runs the shared pass: every query registered on the feed, in
// registration order, over one split+parse of the posted document. The
// feed's circuit breaker gates the run (see breaker.go): open feeds are
// refused before touching admission, and record failures inside the run
// feed the breaker's streak.
func (s *Server) handleFeed(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w}
	start := time.Now()
	rid := s.requestID(sw, r)
	feed := r.PathValue("feed")
	opts, tenantName, err := s.evalOptions(r)
	var stats xpe.StreamStats
	var nq int
	defer func() { s.finishRequest("feed", tenantName, feed, rid, nq, sw, &stats, start) }()
	if err != nil {
		http.Error(sw, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.RLock()
	regs := append([]*regQuery(nil), s.feeds[feed]...)
	s.mu.RUnlock()
	if len(regs) == 0 {
		http.Error(sw, fmt.Sprintf("feed %q has no registered queries", feed), http.StatusNotFound)
		return
	}
	nq = len(regs)
	qs := make([]*xpe.Query, len(regs))
	for i, rq := range regs {
		qs[i] = rq.q
	}
	br := s.breakers.get(feed)
	if br != nil {
		// Cheap pre-admission refusal while the breaker is open: a broken
		// feed must not consume queue slots other feeds could use.
		if open, retry := br.rejectedNow(); open {
			s.refuseBrokenFeed(sw, feed, retry)
			return
		}
	}
	release, _ := s.admit(sw, r, tenantName)
	if release == nil {
		return
	}
	defer release()
	if br != nil {
		// The authoritative gate (it may start a half-open probe): the
		// breaker can have opened while this request queued.
		ok, retry := br.allow()
		if !ok {
			s.refuseBrokenFeed(sw, feed, retry)
			return
		}
		inner := opts.OnError
		opts.OnError = func(re *xpe.RecordError) error {
			if br.recordFailure(re.Record) {
				s.breakerTrips.Add(1)
				return fmt.Errorf("feed %q circuit breaker opened: %d consecutive record failures",
					feed, s.opts.BreakerThreshold)
			}
			return inner(re)
		}
	}
	s.degradeBudgets(&opts)
	s.applyTelemetry(&opts, rid, tenantName, feed)
	s.feedRuns.Add(1)
	write := ndjson(sw)
	var werr error
	perQuery := make([]int64, len(regs))
	stats, err = s.opts.Engine.SelectStreamMulti(r.Context(), r.Body, qs, opts,
		func(m xpe.MultiStreamMatch) error {
			rq := regs[m.Query]
			perQuery[m.Query]++
			werr = write(matchLine{Tenant: rq.Tenant, Query: rq.Name, Record: m.Record,
				RecordPath: m.RecordPath, Path: m.Path, Term: m.Term})
			return werr
		})
	if err == nil {
		err = werr
	}
	if br != nil {
		br.finish(err == nil && stats.Skipped == 0 && stats.TimedOut == 0)
	}
	if s.rollups != nil {
		for i, n := range perQuery {
			s.rollups.queryMatches(regs[i].Tenant, feed, regs[i].Name, n)
		}
	}
	s.finishStream(write, stats, len(qs), err)
}

// refuseBrokenFeed answers a post to a feed whose breaker is open: 503,
// Retry-After for the remaining backoff, machine-actionable JSON body.
func (s *Server) refuseBrokenFeed(w http.ResponseWriter, feed string, retry time.Duration) {
	s.breakerRejects.Add(1)
	secs := int64((retry + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	json.NewEncoder(w).Encode(struct {
		Error        string `json:"error"`
		Feed         string `json:"feed"`
		RetryAfterMS int64  `json:"retry_after_ms"`
	}{fmt.Sprintf("feed %q circuit breaker open", feed), feed, retry.Milliseconds()})
}

// degradeBudgets applies overload level 1: under sustained queue pressure
// admitted runs get half their record-timeout budget, so in-flight work
// drains faster before shedding (level 2, in admission.go) begins. Only a
// set timeout tightens — halving "unlimited" is meaningless.
func (s *Server) degradeBudgets(opts *xpe.SelectOptions) {
	if opts.RecordTimeout > 0 && s.adm.degradedNow() {
		opts.RecordTimeout /= 2
	}
}
