// Package stream evaluates a compiled selection query over an XML input
// stream record by record: the input is split into records (top-level
// children of the document element, or subtrees rooted at a configured
// split element), each record is parsed into a recycled arena-backed hedge
// and evaluated with Algorithm 1, and the per-record results are delivered
// through a callback in document order — as soon as each record completes.
//
// Peak memory is O(largest record × in-flight records), never O(document):
// with W workers at most W+1 record arenas exist, and a single-worker run
// holds exactly one. Records are independent evaluation units — each is
// treated as its own document, so a query's envelope conditions range over
// the record subtree only (the paper's Algorithm 1 run per record). That is
// the semantics that admits single-pass bounded-memory evaluation: sibling
// conditions of record ancestors would need the not-yet-read remainder of
// the document.
//
// # Fault containment
//
// Record independence also bounds the blast radius of a failure: a
// malformed record, a limit violation, or a panicking evaluation concerns
// exactly one record. Config.OnRecordError decides each failed record's
// fate — consulted in document order, on the caller's goroutine, with a
// typed *RecordError. Returning nil skips the record (the splitter skims
// or resynchronizes past it, see xmlhedge.RecordReader.Recover) and the
// stream continues; returning an error aborts the run with it. A nil
// policy aborts on the first failure, preserving the pre-policy behavior
// exactly. Failures that cannot be contained to a record — reader I/O
// errors, cancellation, the stream byte budget, malformed markup with no
// named split to resynchronize on — bypass the policy and abort.
package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xpe/internal/core"
	"xpe/internal/ha"
	"xpe/internal/hedge"
	"xpe/internal/metrics"
	"xpe/internal/trace"
	"xpe/internal/xmlhedge"
)

// Config tunes a streaming run; the zero value is the default
// configuration.
type Config struct {
	// Split names the record root element; empty splits at the document
	// element's children (see xmlhedge.RecordOptions.Split).
	Split string
	// Workers is the number of concurrent evaluation workers; <=0 means
	// GOMAXPROCS. Results are delivered in document order regardless.
	Workers int
	// BatchSize is the number of records per worker handoff in parallel
	// runs (0 = auto, currently 32; 1 restores record-at-a-time handoff).
	// Larger batches amortize channel and scheduler costs per record but
	// raise peak memory — the bound is O(largest record × BatchSize ×
	// (Workers+2)) — and delivery latency for slow producers. Sequential
	// runs ignore it.
	BatchSize int
	// MaxRecordNodes / MaxRecordDepth bound individual records (0 =
	// unlimited); a violating record fails with *xmlhedge.LimitError,
	// routed through OnRecordError.
	MaxRecordNodes int
	MaxRecordDepth int
	// MaxRecordBytes bounds the raw input bytes one record may span;
	// MaxStreamBytes bounds total input consumption (0 = unlimited).
	// A record over its byte budget is a record-scoped failure; an
	// exhausted stream budget aborts the run regardless of policy.
	MaxRecordBytes int64
	MaxStreamBytes int64
	// RecordTimeout bounds one record's evaluation wall time (0 =
	// unlimited). Enforcement is cooperative — the deadline is checked
	// between matches and after the traversal — so it catches slow
	// records, not a wedged evaluation.
	RecordTimeout time.Duration
	// OnRecordError is the per-record failure policy. Nil aborts the run
	// on the first failure with the raw error (legacy behavior). When set,
	// it is called once per failed record, in document order, on the
	// goroutine running the collector (never concurrently): return nil to
	// skip the record, or an error to abort the run with it.
	OnRecordError func(*RecordError) error
	// Inject, when non-nil, is called at the fault-injection points (test
	// only; see internal/faultinject).
	Inject Injector
	// KeepWhitespace retains whitespace-only text nodes.
	KeepWhitespace bool
	// Prefilter controls the raw-byte record prefilter. PrefilterAuto (the
	// zero value) derives the query's required labels at Run time and skips
	// records whose bytes cannot contain them all — no parse, no eval —
	// falling back to a byte-identical normal parse whenever the skim is
	// unsure. PrefilterOff disables the cascade entirely; results are
	// identical either way, only Stats.Prefiltered and throughput differ.
	Prefilter PrefilterMode
	// Metrics, when non-nil, receives live instrumentation: splitter
	// counters (Metrics.Split, flushed per record by the RecordReader) and
	// per-stage timings plus worker occupancy (Metrics.Stream). Evaluation
	// counters flow through the sink attached to cq (see
	// core.CompiledQuery.SetMetrics). Timing costs two monotonic clock
	// reads per stage per record when attached and one nil check when not.
	Metrics *metrics.Metrics
	// Trace, when non-nil, receives one trace.RecordTrace per record that
	// reaches an in-order verdict — delivered, skipped, or aborting the
	// run (parallel runs may abort without a trace when the failure
	// bypasses the policy). Stage timings are assembled whenever Trace or
	// OnSlow is set, at the same cost as Metrics timing; splitter events
	// ride the trace of the record being produced when they fired, so
	// recovery activity for a skipped record lands on the *following*
	// record's trace (the event detail names the record it concerns).
	// Nil disables trace assembly entirely.
	Trace *trace.Tracer
	// RequestID, when non-empty, is stamped onto every RecordTrace the
	// run commits, correlating record spans with the serving-layer
	// request that caused them (the X-Request-Id contract in
	// internal/serve). Inert unless tracing is enabled.
	RequestID string
	// SlowThreshold routes records whose split+eval+deliver total meets
	// or exceeds it to OnSlow (0 disables the slow-record log).
	SlowThreshold time.Duration
	// OnSlow receives slow records' traces, on the goroutine delivering
	// results (never concurrently), after the trace is committed to Trace.
	OnSlow func(trace.RecordTrace)
	// Explain captures match provenance: each delivered Match carries a
	// Witness reconstructing the envelope evidence level by level (see
	// core.CompiledQuery.ExplainEach). Provenance allocates per match;
	// leave it off for steady-state throughput.
	Explain bool
}

// PrefilterMode selects whether the raw-byte record prefilter runs.
type PrefilterMode uint8

const (
	// PrefilterAuto enables the prefilter whenever the compiled query
	// requires at least one label (the default).
	PrefilterAuto PrefilterMode = iota
	// PrefilterOff never prefilters; every record is parsed and evaluated.
	PrefilterOff
)

// tracing reports whether per-record traces must be assembled: a ring to
// commit into, or a slow-record callback to feed.
func (cfg *Config) tracing() bool { return cfg.Trace != nil || cfg.OnSlow != nil }

// commitTrace finalizes one record trace: totals the stage spans, stores
// the trace in the flight-recorder ring, and routes it to the slow-record
// callback when it crossed the threshold.
func commitTrace(cfg *Config, rt trace.RecordTrace) {
	rt.TotalNS = rt.SplitNS + rt.EvalNS + rt.DeliverNS
	rt.RequestID = cfg.RequestID
	cfg.Trace.Commit(rt)
	if cfg.OnSlow != nil && cfg.SlowThreshold > 0 && rt.TotalNS >= int64(cfg.SlowThreshold) {
		cfg.OnSlow(rt)
	}
}

// Injector is the fault-injection hook: BeforeEval runs at the start of
// each record's evaluation, inside the panic-containment scope, so an
// injected panic or stall exercises exactly the production failure path.
type Injector interface {
	BeforeEval(index int)
}

// Stats aggregates one streaming run.
type Stats struct {
	Records     int64 // records evaluated and delivered
	Nodes       int64 // total nodes across delivered records
	Matches     int64 // total located nodes
	Bytes       int64 // input bytes consumed by the XML decoder
	Skipped     int64 // failed records dropped by the OnRecordError policy
	TimedOut    int64 // records over RecordTimeout, whether skipped or aborting
	Recovered   int64 // evaluation panics caught and converted to errors
	Prefiltered int64 // records skipped by the raw-byte prefilter cascade
	// Lazy-determinization deltas over the run (zero for eagerly compiled
	// queries; approximate when several runs share one compilation).
	LazyStates    int64 // lazy-DHA states materialized during the run
	LazyHits      int64 // lazy transition-cache hits during the run
	LazyEvictions int64 // lazy transition-cache evictions during the run
}

// Match is one located node within a record.
type Match struct {
	// Query is the index (into RunMulti's query slice) of the query that
	// located this node. Always 0 for single-query Run.
	Query int
	// Path is the record-relative Dewey path (the record root is node 1).
	Path hedge.Path
	// Node is the located node; like Result.Hedge it is arena-backed and
	// valid only until the yield callback returns.
	Node *hedge.Node
	// Witness, when Config.Explain is set, is the match's provenance:
	// the envelope evidence level by level. Unlike Node it is freshly
	// allocated and safe to retain. Nil when Explain is off.
	Witness *core.Witness
}

// Result is one evaluated record.
type Result struct {
	// Index is the 0-based record sequence number.
	Index int
	// Path is the Dewey path of the record root within the input document.
	Path hedge.Path
	// Nodes is the record's node count.
	Nodes int
	// Matches lists the located nodes: document order for a single-query
	// run; for RunMulti, grouped by ascending Match.Query with document
	// order within each query's group.
	Matches []Match

	// curQuery is the query index stamped onto matches as they are
	// collected; safeEvaluate sets it before each query's traversal.
	curQuery int
	pathBuf  []int
	// labels holds the record's label ids resolved once per distinct
	// query alphabet (see labelsFor); the buffers outlive reset.
	labels []labelSet
	// collect caches the bound SelectEach match sink. The callback escapes
	// into a pooled walker on every evaluation, so an uncached closure
	// would cost one heap allocation per record; the method value here is
	// allocated once per Result lifetime instead. reset keeps it.
	collect func(p hedge.Path, n *hedge.Node) bool
	// fail marks a contained per-record failure (always a *RecordError)
	// traveling the pipeline in place of matches; the collector routes it
	// through the error policy at the record's in-order position.
	fail error
	// await, on splitter-failure tombstones, carries the policy verdict
	// back to the producer, which is blocked mid-recovery waiting for it.
	await chan error
	// splitNS/evalNS/events carry the producer's and worker's trace
	// contributions to the collector when tracing is on. They are not
	// cleared by reset — the worker resets after the producer has already
	// stamped them — so every tracing-enabled path must set all three.
	splitNS int64
	evalNS  int64
	events  []trace.Event
}

// labelSet is one record's label ids resolved against one query alphabet.
type labelSet struct {
	names *ha.Names
	ids   []int32
}

// reset prepares a recycled Result for reuse.
func (r *Result) reset() {
	r.Matches = r.Matches[:0]
	r.pathBuf = r.pathBuf[:0]
	for i := range r.labels {
		r.labels[i].names = nil
	}
	r.labels = r.labels[:0]
	r.curQuery = 0
	r.fail = nil
	r.await = nil
}

// labelsFor returns h's label ids in names (core.ResolveLabels), resolving
// them at most once per record per distinct Names. Queries compiled at one
// alphabet generation share a snapshot, so a fleet resolves once.
func (r *Result) labelsFor(h hedge.Hedge, names *ha.Names) []int32 {
	for i := range r.labels {
		if r.labels[i].names == names {
			return r.labels[i].ids
		}
	}
	// Reslicing into spare capacity reuses an earlier record's buffer.
	r.labels = slices.Grow(r.labels, 1)[:len(r.labels)+1]
	ls := &r.labels[len(r.labels)-1]
	ls.names = names
	ls.ids = core.ResolveLabels(h, names, ls.ids[:0])
	return ls.ids
}

// addMatch copies the (reused) path into the result's backing buffer and
// appends a match for the query currently being evaluated.
func (r *Result) addMatch(p hedge.Path, n *hedge.Node) {
	start := len(r.pathBuf)
	r.pathBuf = append(r.pathBuf, p...)
	r.Matches = append(r.Matches, Match{Query: r.curQuery,
		Path: r.pathBuf[start:len(r.pathBuf):len(r.pathBuf)], Node: n})
}

// collectMatch is the unbounded match sink: append and keep going.
func (r *Result) collectMatch(p hedge.Path, n *hedge.Node) bool {
	r.addMatch(p, n)
	return true
}

// sink returns the cached bound collectMatch, creating it on first use.
func (r *Result) sink() func(p hedge.Path, n *hedge.Node) bool {
	if r.collect == nil {
		r.collect = r.collectMatch
	}
	return r.collect
}

// ErrStop, returned by a yield callback, ends the stream early with no
// error (mirroring fs.SkipAll). Recognition uses errors.Is, so a wrapped
// stop sentinel works too.
var ErrStop = errors.New("stream: stop")

// ErrRecordTimeout is the cause inside the *RecordError reported for a
// record whose evaluation exceeded Config.RecordTimeout.
var ErrRecordTimeout = errors.New("stream: record evaluation timed out")

// RecordError attributes a contained failure to one record: its index and
// Dewey path in the document, and the cause — a parse error
// (*xmlhedge.RecordParseError in Err's chain), a limit violation
// (*xmlhedge.LimitError), an evaluation panic (*PanicError), or
// ErrRecordTimeout.
type RecordError struct {
	Index int
	Path  hedge.Path
	Err   error
}

func (e *RecordError) Error() string {
	return fmt.Sprintf("stream: record %d at %s: %v", e.Index, e.Path, e.Err)
}

func (e *RecordError) Unwrap() error { return e.Err }

// PanicError is the cause inside the *RecordError reported for a record
// whose evaluation panicked: the recovered value and the stack captured at
// the panic site.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("stream: record evaluation panicked: %v", e.Value)
}

// Run streams records from r, evaluates cq on each, and calls yield once
// per record in document order. Hedge nodes referenced by the Result are
// recycled: they are valid only until yield returns. Run returns the stats
// accumulated over delivered records and the first error among: a parse or
// limit error from the splitter, an evaluation failure, a yield error
// (ErrStop is filtered to nil), or ctx cancellation — except for failures
// the cfg.OnRecordError policy chose to skip.
//
// cq must be resolved against the alphabet generation the caller wants
// before Run is entered: the compilation is shared by every worker and is
// never revalidated or recompiled per record (the facade resolves it once,
// pre-fork).
func Run(ctx context.Context, r io.Reader, cq *core.CompiledQuery, cfg Config, yield func(*Result) error) (Stats, error) {
	return runQueries(ctx, r, []*core.CompiledQuery{cq}, cfg, yield)
}

// RunMulti evaluates every query in cqs over one shared pass: the input is
// split and parsed once, and each record drives all the match automata
// instead of one scan per query. Matches carry Match.Query (the index into
// cqs); within one Result they are grouped by ascending query index, in
// document order within each group. Everything else behaves like Run —
// ordering, fault containment, budgets (Config.RecordTimeout bounds one
// record's evaluation across ALL queries, it is not a per-query budget).
//
// Under PrefilterAuto the skim runs against the union of the queries'
// required-label sets: a record is skipped whole only when no query's
// requirement set is fully present (requiring the union conjunctively
// would be unsound), and kept records carry a per-query verdict
// (xmlhedge.Record.Hint) that gates evaluation to the queries whose
// requirements the record can actually satisfy — the shared-pass scaling
// lever on selective workloads. Stats.Matches counts across all queries.
func RunMulti(ctx context.Context, r io.Reader, cqs []*core.CompiledQuery, cfg Config, yield func(*Result) error) (Stats, error) {
	if len(cqs) == 0 {
		return Stats{}, errors.New("stream: RunMulti needs at least one query")
	}
	return runQueries(ctx, r, cqs, cfg, yield)
}

func runQueries(ctx context.Context, r io.Reader, qs []*core.CompiledQuery, cfg Config, yield func(*Result) error) (Stats, error) {
	ropts := xmlhedge.RecordOptions{
		Split:          cfg.Split,
		MaxNodes:       cfg.MaxRecordNodes,
		MaxDepth:       cfg.MaxRecordDepth,
		MaxBytes:       cfg.MaxRecordBytes,
		MaxStreamBytes: cfg.MaxStreamBytes,
		KeepWhitespace: cfg.KeepWhitespace,
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var ms *metrics.Stream
	if cfg.Metrics != nil {
		ropts.Metrics = &cfg.Metrics.Split
		ms = &cfg.Metrics.Stream
		ms.Runs.Inc()
		ms.Workers.Set(int64(workers))
		start := time.Now()
		defer func() { ms.WallTime.Observe(time.Since(start)) }()
	}
	var sink *trace.EventSink
	if cfg.tracing() {
		sink = trace.NewEventSink()
		ropts.Events = sink
	}
	if cfg.Prefilter == PrefilterAuto {
		if len(qs) == 1 {
			// NewPrefilter returns nil when the query has no required labels
			// (e.g. wildcard-only queries), which disables the cascade.
			ropts.Prefilter = xmlhedge.NewPrefilter(qs[0].RequiredLabels())
		} else {
			// One requirement group per query, indices aligned with qs, so
			// the skim verdict doubles as the per-query evaluation gate.
			groups := make([][]string, len(qs))
			for i, cq := range qs {
				groups[i] = cq.RequiredLabels()
			}
			ropts.Prefilter = xmlhedge.NewMultiPrefilter(groups)
		}
	}
	// Lazy-determinization counters live on the shared compilations; deltas
	// around the run attribute this run's share to its Stats. Repeated
	// pointers (the same compilation registered under several indices)
	// count once.
	lz0 := lazyTotals(qs)
	var stats Stats
	var err error
	if workers <= 1 {
		ropts.Ctx = ctx
		rr := xmlhedge.NewRecordReader(r, ropts)
		stats, err = runSequential(ctx, rr, qs, cfg, ms, sink, yield)
		stats.Prefiltered = rr.Prefiltered()
	} else {
		stats, err = runParallel(ctx, r, ropts, qs, workers, cfg, ms, sink, yield)
	}
	lzd := lazyTotals(qs).Sub(lz0)
	stats.LazyStates = lzd.StatesBuilt
	stats.LazyHits = lzd.Hits
	stats.LazyEvictions = lzd.Evictions
	return stats, err
}

// lazyTotals sums lazy-DHA counters across distinct compilations.
func lazyTotals(qs []*core.CompiledQuery) ha.LazyStats {
	if len(qs) == 1 {
		return qs[0].LazyStats()
	}
	var total ha.LazyStats
	for i, cq := range qs {
		dup := false
		for _, prev := range qs[:i] {
			if prev == cq {
				dup = true
				break
			}
		}
		if !dup {
			total = total.Add(cq.LazyStats())
		}
	}
	return total
}

// safeEvaluate runs every live query over one parsed record with panics
// contained and the evaluation timeout enforced — the timeout budget spans
// the whole record, shared by all queries. A query whose verdict bit in
// rec.Hint is clear is provably matchless here (the prefilter found a
// required label absent) and is skipped without touching its automaton.
// The record's labels are resolved on the first allowed query, once per
// distinct query alphabet (Result.labelsFor). A non-nil return is always a
// *RecordError; on success res holds the matches, grouped by query index.
func safeEvaluate(qs []*core.CompiledQuery, rec *xmlhedge.Record, res *Result, cfg *Config) (fail *RecordError) {
	defer func() {
		if v := recover(); v != nil {
			fail = &RecordError{Index: rec.Index, Path: rec.Path,
				Err: &PanicError{Value: v, Stack: debug.Stack()}}
		}
	}()
	res.reset()
	res.Index, res.Path, res.Nodes = rec.Index, rec.Path, rec.Nodes
	timeout := cfg.RecordTimeout
	var start time.Time
	if timeout > 0 || cfg.Inject != nil {
		start = time.Now()
	}
	if cfg.Inject != nil {
		cfg.Inject.BeforeEval(rec.Index)
	}
	// Cooperative deadline: sampled every 64 matches during a traversal
	// (Algorithm 1 is linear and terminating — the budget targets slow
	// records, not infinite loops), between queries, and once more at the
	// end.
	var deadline time.Time
	if timeout > 0 {
		deadline = start.Add(timeout)
	}
	n, timedOut := 0, false
	for qi, cq := range qs {
		if !rec.Hint.Allows(qi) {
			continue
		}
		if timeout > 0 && time.Now().After(deadline) {
			timedOut = true
			break
		}
		res.curQuery = qi
		switch {
		case cfg.Explain:
			// Provenance capture: ExplainEach locates exactly what
			// SelectEach does, with each match carrying its witness.
			cq.ExplainEach(rec.Hedge, func(w core.Witness, node *hedge.Node) bool {
				res.addMatch(w.Path, node)
				res.Matches[len(res.Matches)-1].Witness = &w
				if timeout > 0 {
					if n++; n&63 == 0 && time.Now().After(deadline) {
						timedOut = true
						return false
					}
				}
				return true
			})
		case timeout <= 0:
			cq.SelectEachResolved(rec.Hedge, res.labelsFor(rec.Hedge, cq.Names), res.sink())
		default:
			cq.SelectEachResolved(rec.Hedge, res.labelsFor(rec.Hedge, cq.Names), func(p hedge.Path, node *hedge.Node) bool {
				res.addMatch(p, node)
				if n++; n&63 == 0 && time.Now().After(deadline) {
					timedOut = true
					return false
				}
				return true
			})
		}
		if timedOut {
			break
		}
	}
	if timeout > 0 && (timedOut || time.Since(start) > timeout) {
		return &RecordError{Index: rec.Index, Path: rec.Path, Err: ErrRecordTimeout}
	}
	return nil
}

// recordFailure attributes a record-scoped splitter failure to its record,
// pulling index and path out of the typed error when present (limit
// violations and in-record parse errors carry them; truncations fall back
// to the reader's next index).
func recordFailure(rr *xmlhedge.RecordReader, err error) *RecordError {
	fail := &RecordError{Index: rr.NextIndex(), Err: err}
	var le *xmlhedge.LimitError
	var pe *xmlhedge.RecordParseError
	switch {
	case errors.As(err, &le):
		fail.Index, fail.Path = le.Record, le.Path
	case errors.As(err, &pe):
		fail.Index, fail.Path = pe.Index, pe.Path
	}
	return fail
}

// runSequential is the single-worker hot loop: one arena, one Result, no
// goroutines — steady-state evaluation allocates nothing, with or without
// a metrics sink (timing is two clock reads per stage per record).
func runSequential(ctx context.Context, rr *xmlhedge.RecordReader, qs []*core.CompiledQuery, cfg Config, ms *metrics.Stream, sink *trace.EventSink, yield func(*Result) error) (Stats, error) {
	// The arena and Result ride in a pooled single-item batch so
	// back-to-back runs reuse warm storage: one short stream never
	// amortizes cold chunk growth on its own.
	st := getBatch(1)
	defer batchPool.Put(st)
	var (
		stats Stats
		t0    time.Time
	)
	arena, res := &st.arena, &st.items[0].res
	pol := cfg.OnRecordError
	tracing := sink.Enabled()
	timed := ms != nil || tracing
	commit := func(rt trace.RecordTrace) {
		rt.Events = sink.Drain()
		commitTrace(&cfg, rt)
	}
	for {
		if err := ctx.Err(); err != nil {
			stats.Bytes = rr.InputOffset()
			return stats, err
		}
		arena.Reset()
		if timed {
			t0 = time.Now()
		}
		rec, err := rr.Read(arena)
		var splitNS int64
		if timed {
			d := time.Since(t0)
			splitNS = int64(d)
			if ms != nil {
				ms.SplitTime.Observe(d)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			stats.Bytes = rr.InputOffset()
			splitTrace := func(outcome string, cause error) {
				if tracing {
					fail := recordFailure(rr, err)
					commit(trace.RecordTrace{Index: fail.Index, Path: fail.Path.String(),
						SplitNS: splitNS, Outcome: outcome, Error: cause.Error()})
				}
			}
			if pol == nil || !rr.CanRecover() {
				splitTrace("aborted", err)
				return stats, err
			}
			if perr := pol(recordFailure(rr, err)); perr != nil {
				splitTrace("aborted", perr)
				return stats, perr
			}
			stats.Skipped++
			if ms != nil {
				ms.RecordsSkipped.Inc()
			}
			splitTrace("skipped", err)
			if rerr := rr.Recover(); rerr != nil {
				return stats, rerr
			}
			continue
		}
		if timed {
			t0 = time.Now()
		}
		evalErr := safeEvaluate(qs, &rec, res, &cfg)
		var evalNS int64
		if timed {
			d := time.Since(t0)
			evalNS = int64(d)
			if ms != nil {
				ms.EvalTime.Observe(d)
				ms.RecordLatency.Observe(d)
			}
		}
		if evalErr != nil {
			if _, isPanic := evalErr.Err.(*PanicError); isPanic {
				stats.Recovered++
				if ms != nil {
					ms.PanicsRecovered.Inc()
				}
			}
			if errors.Is(evalErr.Err, ErrRecordTimeout) {
				stats.TimedOut++
				if ms != nil {
					ms.RecordsTimedOut.Inc()
				}
			}
			evalTrace := func(outcome string, cause error) {
				if tracing {
					commit(trace.RecordTrace{Index: res.Index, Path: res.Path.String(),
						SplitNS: splitNS, EvalNS: evalNS, Nodes: res.Nodes,
						Matches: len(res.Matches), Outcome: outcome, Error: cause.Error()})
				}
			}
			if pol == nil {
				stats.Bytes = rr.InputOffset()
				evalTrace("aborted", evalErr)
				return stats, evalErr
			}
			if perr := pol(evalErr); perr != nil {
				stats.Bytes = rr.InputOffset()
				evalTrace("aborted", perr)
				return stats, perr
			}
			stats.Skipped++
			if ms != nil {
				ms.RecordsSkipped.Inc()
			}
			evalTrace("skipped", evalErr)
			continue
		}
		stats.Records++
		stats.Nodes += int64(res.Nodes)
		stats.Matches += int64(len(res.Matches))
		if timed {
			t0 = time.Now()
		}
		err = yield(res)
		var deliverNS int64
		if timed {
			d := time.Since(t0)
			deliverNS = int64(d)
			if ms != nil {
				ms.DeliverTime.Observe(d)
			}
		}
		if tracing {
			commit(trace.RecordTrace{Index: res.Index, Path: res.Path.String(),
				SplitNS: splitNS, EvalNS: evalNS, DeliverNS: deliverNS,
				Nodes: res.Nodes, Matches: len(res.Matches), Outcome: "ok"})
		}
		if err != nil {
			stats.Bytes = rr.InputOffset()
			if errors.Is(err, ErrStop) {
				return stats, nil
			}
			return stats, err
		}
	}
	stats.Bytes = rr.InputOffset()
	return stats, nil
}

// defaultBatchSize is the auto records-per-handoff for parallel runs: big
// enough to amortize a channel exchange and a scheduler wakeup over many
// records, small enough that a batch of typical records stays cache- and
// memory-friendly.
const defaultBatchSize = 32

// batchItem is one record's slot in a batch: the parsed record and its
// evaluation result, both recycled with the batch.
type batchItem struct {
	rec xmlhedge.Record
	res Result
}

// batch is the unit of producer→worker→collector handoff: up to cap
// records parsed into the batch's own arena, sequence-numbered for the
// reorder ring. Batches are recycled through a free list, so a warm run
// allocates nothing per handoff.
type batch struct {
	seq   int
	n     int // items in use
	items []batchItem
	arena xmlhedge.Arena
}

// batchPool recycles batches across runs so short streams still evaluate
// into warm arenas: one Run sees only a handful of batches, far too few to
// amortize cold chunk and child-slice growth within the run itself.
var batchPool = sync.Pool{New: func() any { return new(batch) }}

// getBatch takes a pooled batch sized for batchSize items. items is
// allocated at full capacity once and never grown, so &items[i] pointers
// taken during fill and eval stay valid.
func getBatch(batchSize int) *batch {
	b := batchPool.Get().(*batch)
	if cap(b.items) < batchSize {
		b.items = make([]batchItem, batchSize)
	}
	b.items = b.items[:batchSize]
	return b
}

// runParallel fans batches of records out to a bounded worker pool and
// reorders them for in-order delivery. Batch objects (workers+2 of them,
// each owning one arena) are the memory bound: the producer blocks until a
// delivered batch is recycled. Workers publish finished batches into a
// sequence-indexed reorder ring with a non-blocking wakeup, so delivery
// order costs no per-record channel exchange and workers never block on a
// slow collector.
//
// Failure containment keeps the policy on the collector: evaluation
// failures replace the worker's matches on the item's Result; splitter
// failures become tombstone items closing out the current batch (so
// in-order delivery never stalls on the failed index) while the producer
// blocks on the tombstone's await channel for the verdict — recovery
// rewires the reader's state, so the producer cannot run ahead of the
// decision.
func runParallel(ctx context.Context, r io.Reader, ropts xmlhedge.RecordOptions, qs []*core.CompiledQuery, workers int, cfg Config, ms *metrics.Stream, sink *trace.EventSink, yield func(*Result) error) (Stats, error) {
	ictx, cancel := context.WithCancel(ctx)
	defer cancel()
	// The splitter polls the internal context, so cancellation (external or
	// failure-induced) interrupts even a mid-record read.
	ropts.Ctx = ictx
	rr := xmlhedge.NewRecordReader(r, ropts)
	pol := cfg.OnRecordError
	tracing := sink.Enabled()
	timed := ms != nil || tracing
	batchSize := cfg.BatchSize
	if batchSize <= 0 {
		batchSize = defaultBatchSize
	}

	nBatches := workers + 2
	free := make(chan *batch, nBatches)
	for i := 0; i < nBatches; i++ {
		free <- getBatch(batchSize)
	}
	jobs := make(chan *batch, nBatches)
	// Reorder ring: slot seq&ringMask holds the finished batch with that
	// sequence number. In-order recycling bounds the in-flight sequence
	// span to nBatches, and the ring is the next power of two above it, so
	// two live batches never share a slot.
	ringSize := 1
	for ringSize <= nBatches {
		ringSize <<= 1
	}
	ringMask := ringSize - 1
	ring := make([]atomic.Pointer[batch], ringSize)
	kick := make(chan struct{}, 1) // non-blocking wakeup: ring slot filled

	var (
		bytes    atomic.Int64
		pre      atomic.Int64
		errMu    sync.Mutex
		firstErr error
	)
	setErr := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		cancel()
	}
	// storeProgress publishes the producer's reader-side counters for the
	// collector; called at every producer exit path (see prodDone ordering).
	storeProgress := func() {
		bytes.Store(rr.InputOffset())
		pre.Store(rr.Prefiltered())
	}

	// Producer: split batches of records into recycled batch arenas.
	// prodDone orders the producer's final storeProgress before the
	// collector's loads — without it the collector could observe a stale
	// offset when cancellation ends the run mid-Read.
	prodDone := make(chan struct{})
	go pprof.Do(ictx, pprof.Labels("xpe.stage", "stream-split"), func(ictx context.Context) {
		defer close(prodDone)
		defer close(jobs)
		verdict := make(chan error, 1) // reused: at most one tombstone is outstanding
		seq := 0
		// flush hands the batch to the workers; jobs' capacity equals the
		// total batch count, so the send cannot block.
		flush := func(b *batch) {
			b.seq = seq
			seq++
			jobs <- b
		}
		var t0 time.Time
		for {
			var b *batch
			select {
			case b = <-free:
			case <-ictx.Done():
				storeProgress()
				return
			}
			b.arena.Reset()
			b.n = 0
			for b.n < batchSize {
				if timed {
					t0 = time.Now()
				}
				rec, err := rr.Read(&b.arena)
				var splitNS int64
				if timed {
					d := time.Since(t0)
					splitNS = int64(d)
					if ms != nil {
						ms.SplitTime.Observe(d)
					}
				}
				if err != nil {
					if err == io.EOF || ictx.Err() != nil {
						// EOF: ship what the batch holds and end the stream.
						// Cancellation: the run's outcome is decided
						// elsewhere; the partial batch is abandoned.
						if err == io.EOF && b.n > 0 {
							flush(b)
						} else {
							free <- b // cap nBatches: never blocks
						}
						storeProgress()
						return
					}
					if pol == nil || !rr.CanRecover() {
						// Stream-fatal: records already split still reach
						// delivery ahead of the abort.
						if b.n > 0 {
							flush(b)
						} else {
							free <- b
						}
						setErr(err)
						storeProgress()
						return
					}
					// Recoverable: close out the batch with a tombstone item
					// and wait for the collector's in-order verdict before
					// touching the reader again.
					fail := recordFailure(rr, err)
					it := &b.items[b.n]
					b.n++
					it.res.reset()
					it.res.Index, it.res.Path, it.res.Nodes = fail.Index, fail.Path, 0
					it.res.splitNS, it.res.evalNS, it.res.events = splitNS, 0, sink.Drain()
					it.res.fail = fail
					it.res.await = verdict
					flush(b)
					select {
					case d := <-verdict:
						if d != nil {
							// The collector aborted with the policy's error.
							storeProgress()
							return
						}
					case <-ictx.Done():
						storeProgress()
						return
					}
					if rerr := rr.Recover(); rerr != nil {
						if ictx.Err() == nil {
							setErr(rerr)
						}
						storeProgress()
						return
					}
					b = nil
					break // batch flushed with the tombstone; start a fresh one
				}
				it := &b.items[b.n]
				b.n++
				it.rec = rec
				// fail/await must be cleared here: the worker's tombstone
				// check reads them before safeEvaluate's reset runs.
				it.res.fail, it.res.await = nil, nil
				it.res.splitNS, it.res.evalNS, it.res.events = splitNS, 0, sink.Drain()
			}
			if b != nil {
				flush(b)
			}
		}
	})

	// Workers: evaluate batches; the mirror automaton and arenas inside cq
	// are concurrency-safe (locked / pooled). All stage-timer updates are
	// atomic (metrics.Timer), so concurrent flushes from workers and
	// snapshot reads race-cleanly. A panicking evaluation is contained in
	// safeEvaluate, so a worker goroutine never dies. Publishing is a ring
	// store plus an optional buffered wakeup — never a blocking send — so
	// workers drain jobs even when the collector has stopped consuming.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go pprof.Do(ictx, pprof.Labels("xpe.stage", "stream-eval", "xpe.worker", strconv.Itoa(w)), func(ictx context.Context) {
			defer wg.Done()
			var t0 time.Time
			for b := range jobs {
				for i := 0; i < b.n; i++ {
					it := &b.items[i]
					if it.res.fail != nil {
						continue // splitter tombstone: nothing to evaluate
					}
					if timed {
						t0 = time.Now()
					}
					if evalErr := safeEvaluate(qs, &it.rec, &it.res, &cfg); evalErr != nil {
						it.res.fail = evalErr
					}
					if timed {
						d := time.Since(t0)
						it.res.evalNS = int64(d)
						if ms != nil {
							ms.EvalTime.Observe(d)
							ms.RecordLatency.Observe(d)
						}
					}
				}
				ring[b.seq&ringMask].Store(b)
				select {
				case kick <- struct{}{}:
				default:
				}
			}
		})
	}
	workersDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(workersDone)
	}()

	// Collector (this goroutine): consume the ring in sequence order, apply
	// the error policy in document order, and deliver. Policy callbacks run
	// here only, so a user-supplied OnRecordError is never invoked
	// concurrently.
	var stats Stats
	var t0 time.Time
	failed := false
	// commit assembles a verdict-bearing record's trace from the
	// contributions stamped on the Result by the producer and worker.
	// Commits happen here only, so the ring sees records in delivery order
	// and OnSlow is never invoked concurrently.
	commit := func(r *Result, outcome string, cause error, deliverNS int64) {
		if !tracing {
			return
		}
		rt := trace.RecordTrace{Index: r.Index, Path: r.Path.String(),
			SplitNS: r.splitNS, EvalNS: r.evalNS, DeliverNS: deliverNS,
			Nodes: r.Nodes, Matches: len(r.Matches), Outcome: outcome,
			Events: r.events}
		if cause != nil {
			rt.Error = cause.Error()
		}
		commitTrace(&cfg, rt)
	}
	// processItem routes one in-order result: the failure policy for
	// tombstones and evaluation failures, the yield callback for healthy
	// records. In failed mode everything is drained undelivered; a blocked
	// tombstone producer is released by the cancellation, not by an answer.
	processItem := func(r *Result) {
		if failed {
			return
		}
		if r.fail != nil {
			rerr := r.fail.(*RecordError)
			if _, isPanic := rerr.Err.(*PanicError); isPanic {
				stats.Recovered++
				if ms != nil {
					ms.PanicsRecovered.Inc()
				}
			}
			if errors.Is(rerr.Err, ErrRecordTimeout) {
				stats.TimedOut++
				if ms != nil {
					ms.RecordsTimedOut.Inc()
				}
			}
			var verdict error
			if pol == nil {
				verdict = r.fail
			} else {
				verdict = pol(rerr)
			}
			if verdict == nil {
				stats.Skipped++
				if ms != nil {
					ms.RecordsSkipped.Inc()
				}
				commit(r, "skipped", rerr, 0)
			} else {
				commit(r, "aborted", verdict, 0)
			}
			if r.await != nil {
				r.await <- verdict
				r.await = nil
			}
			if verdict != nil {
				setErr(verdict)
				failed = true
			}
			return
		}
		stats.Records++
		stats.Nodes += int64(r.Nodes)
		stats.Matches += int64(len(r.Matches))
		if timed {
			t0 = time.Now()
		}
		err := yield(r)
		var deliverNS int64
		if timed {
			d := time.Since(t0)
			deliverNS = int64(d)
			if ms != nil {
				ms.DeliverTime.Observe(d)
			}
		}
		commit(r, "ok", nil, deliverNS)
		if err != nil {
			if !errors.Is(err, ErrStop) {
				setErr(err)
			}
			cancel()
			failed = true
		}
	}
	next := 0
	for {
		b := ring[next&ringMask].Load()
		if b == nil {
			select {
			case <-kick:
			case <-workersDone:
				if ring[next&ringMask].Load() == nil {
					// All workers exited and the next slot is still empty:
					// no batch with this sequence number is coming.
					goto drained
				}
			}
			continue
		}
		ring[next&ringMask].Store(nil)
		next++
		for i := 0; i < b.n; i++ {
			processItem(&b.items[i].res)
			b.items[i].res.events = nil
		}
		// Recycle: free's capacity equals the total batch count, so the
		// send cannot block even after the producer has exited.
		free <- b
	}
drained:
	// Workers exit only after jobs closes or cancellation fires; either way
	// the producer is on its way out, so this wait is bounded.
	<-prodDone
	// Return idle batches to the pool for the next run. Batches the
	// producer abandoned mid-cancellation are simply garbage-collected.
	for drainedFree := false; !drainedFree; {
		select {
		case b := <-free:
			batchPool.Put(b)
		default:
			drainedFree = true
		}
	}
	stats.Bytes = bytes.Load()
	stats.Prefiltered = pre.Load()
	errMu.Lock()
	err := firstErr
	errMu.Unlock()
	if err == nil {
		err = ctx.Err()
	}
	return stats, err
}
