// Command xpeserve is the long-lived query-serving daemon: tenants
// register compiled queries over HTTP and stream documents past them,
// getting NDJSON matches back from a single shared evaluation pass per
// feed post.
//
//	xpeserve -addr :8080 &
//	curl -d '{"tenant":"t1","name":"prices","query":"price doc* *","feed":"market"}' \
//	     localhost:8080/v1/queries
//	curl --data-binary @feed.xml localhost:8080/v1/feed/market
//
// The surface is internal/serve; this binary adds the process lifecycle:
// flag wiring, the listener, and graceful drain — on SIGTERM/SIGINT it
// stops admitting evaluation requests (503), lets in-flight streams
// finish up to -drain-timeout, then shuts the listener down.
//
// Telemetry is on by default: GET /metrics serves the Prometheus text
// exposition, every evaluation request carries an X-Request-Id (echoed
// or assigned) that appears in the structured access log and the
// per-feed flight recorder, and -slow-record routes slow records to the
// log with tenant/feed/request-id context. -no-telemetry turns all of
// it off.
//
// Like a pprof port, the server is unauthenticated: bind it to loopback
// or a trusted network.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"xpe"
	"xpe/internal/serve"
)

// lazyFlags are -lazy and -lazy-budget, read together by engineOption.
type lazyFlags struct {
	fs     *flag.FlagSet
	lazy   *bool
	budget *int
}

func defineLazyFlags(fs *flag.FlagSet) lazyFlags {
	return lazyFlags{fs,
		fs.Bool("lazy", false, "compile with lazy determinization (default transition-cache budget)"),
		fs.Int("lazy-budget", 0, "lazy transition-cache budget replacing the default (0 = unlimited; needs -lazy)")}
}

// engineOption returns the engine option the flags select and a line for
// the startup log: none without -lazy, WithLazyDeterminization's default
// budget for -lazy alone, and WithLazyTransitionBudget only when
// -lazy-budget is set, where 0 means unlimited. -lazy-budget without -lazy
// is an error.
func (l lazyFlags) engineOption() (xpe.EngineOption, string, error) {
	budgetSet := false
	l.fs.Visit(func(f *flag.Flag) { budgetSet = budgetSet || f.Name == "lazy-budget" })
	switch {
	case !*l.lazy && budgetSet:
		return nil, "", errors.New("-lazy-budget requires -lazy")
	case !*l.lazy:
		return nil, "", nil
	case !budgetSet:
		return xpe.WithLazyDeterminization(), "lazy determinization, default transition budget", nil
	case *l.budget == 0:
		return xpe.WithLazyTransitionBudget(0), "lazy determinization, unlimited transition budget", nil
	}
	return xpe.WithLazyTransitionBudget(*l.budget), fmt.Sprintf("lazy determinization, transition budget %d", *l.budget), nil
}

func main() {
	var (
		addr         = flag.String("addr", "localhost:8080", "listen address")
		workers      = flag.Int("workers", 0, "evaluation workers per stream (0 = GOMAXPROCS)")
		maxConc      = flag.Int("max-concurrent", 4, "streams evaluating at once")
		maxQueue     = flag.Int("max-queue", 8, "admission waiters per tenant before 429")
		stateDir     = flag.String("state-dir", "", "directory for crash-safe registration persistence (empty = in-memory only)")
		breakN       = flag.Int("breaker-threshold", 8, "consecutive record failures tripping a feed's circuit breaker (negative = disabled)")
		breakBackoff = flag.Duration("breaker-backoff", 5*time.Second, "initial open interval after a breaker trip (doubles per failed probe)")
		maxTenantQ   = flag.Int("max-queries-per-tenant", 256, "registrations allowed per tenant")
		recBytes     = flag.Int64("max-record-bytes", 0, "default per-record input byte budget (0 = unlimited)")
		recNodes     = flag.Int("max-record-nodes", 0, "default per-record node budget (0 = unlimited)")
		recTimeout   = flag.Duration("record-timeout", 0, "default per-record evaluation budget across all queries (0 = unlimited)")
		lazy         = defineLazyFlags(flag.CommandLine)
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "grace for in-flight streams on SIGTERM")
		slowRecord   = flag.Duration("slow-record", 0, "log records slower than this, with tenant/feed/request-id context (0 = off)")
		labelSets    = flag.Int("max-label-sets", 0, "dimensional rollup cardinality cap before folding into 'other' (0 = default 128)")
		traceDepth   = flag.Int("trace-depth", 0, "per-feed flight-recorder ring capacity (0 = default 32)")
		noTelemetry  = flag.Bool("no-telemetry", false, "disable serving telemetry wholesale (no /metrics, no request ids, no recorders)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "xpeserve: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}
	lazyOpt, lazyDesc, err := lazy.engineOption()
	if err != nil {
		fmt.Fprintf(os.Stderr, "xpeserve: %v\n", err)
		os.Exit(2)
	}
	var engOpts []xpe.EngineOption
	if lazyOpt != nil {
		engOpts = append(engOpts, lazyOpt)
		log.Printf("xpeserve: %s", lazyDesc)
	}
	srv, err := serve.NewServer(serve.Options{
		Engine:              xpe.NewEngine(engOpts...),
		MaxConcurrent:       *maxConc,
		MaxQueueDepth:       *maxQueue,
		MaxQueriesPerTenant: *maxTenantQ,
		Workers:             *workers,
		StateDir:            *stateDir,
		BreakerThreshold:    *breakN,
		BreakerBackoff:      *breakBackoff,
		Logger:              slog.Default(),
		SlowRecordThreshold: *slowRecord,
		MaxLabelSets:        *labelSets,
		FeedTraceDepth:      *traceDepth,
		DisableTelemetry:    *noTelemetry,
		DefaultBudgets: serve.Budgets{
			MaxRecordBytes: *recBytes,
			MaxRecordNodes: *recNodes,
			RecordTimeout:  *recTimeout,
		},
	})
	if err != nil {
		log.Fatalf("xpeserve: %v", err)
	}
	defer srv.Close()
	if *stateDir != "" {
		st := srv.Stats()
		log.Printf("xpeserve: recovered %d registrations (%d quarantined) from %s",
			st.Registered, st.Quarantined, *stateDir)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("xpeserve: serving on %s", *addr)

	select {
	case err := <-errc:
		log.Fatalf("xpeserve: %v", err)
	case <-ctx.Done():
	}

	// Drain: refuse new evaluation work immediately, give in-flight
	// streams the grace window, then close the listener and connections.
	log.Printf("xpeserve: draining (up to %s)", *drainTimeout)
	srv.BeginDrain()
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		log.Printf("xpeserve: drain incomplete: %v", err)
	}
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("xpeserve: shutdown: %v", err)
	}
	log.Print("xpeserve: stopped")
}
