// Package stream evaluates a compiled selection query over an XML input
// stream record by record: the input is split into records (top-level
// children of the document element, or subtrees rooted at a configured
// split element), each record is parsed into a recycled arena-backed hedge
// and evaluated with Algorithm 1, and the per-record results are delivered
// through a callback in document order — as soon as each record completes.
//
// Peak memory is O(largest record × in-flight records), never O(document):
// a parallel run with W workers holds W+2 batch arenas, and a single-worker
// run exactly one. Records are independent evaluation units — each is
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
	// (Workers+2)) — and delivery latency for slow producers. A
	// single-worker run settles each record before splitting the next, so
	// it ignores BatchSize.
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
	// run — at every worker count. Stage timings are assembled whenever
	// Trace or OnSlow is set, at the same cost as Metrics timing; splitter
	// events ride the trace of the record being produced when they fired,
	// so recovery activity for a skipped record lands on the *following*
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

	// first is the query index of the evaluating fleet's first member:
	// member m's matches are stamped with query first+m.
	first   int
	pathBuf []int
	// spare is groupByQuery's scratch; reset keeps it.
	spare []Match
	// collect and bounded cache the bound match sinks (see sink); reset
	// keeps them.
	collect, bounded func(m int, p hedge.Path, n *hedge.Node) bool
	// deadline, seen and timedOut are the record timeout's state, read by
	// the bounded sink. Captured by a closure instead, they would move to
	// the heap on every record.
	deadline time.Time
	seen     int
	timedOut bool
	// fail marks a contained per-record failure traveling the pipeline in
	// place of matches; settle routes it through the error policy at the
	// record's in-order position. On a splitter tombstone, fatal marks a
	// failure no policy may skip, and await (parallel runs only) carries
	// the verdict back to the producer, blocked until it may recover.
	fail  *RecordError
	fatal bool
	await chan error
	// splitNS, evalNS, events and dropped are the split and eval stages'
	// trace contributions, read by settle when tracing is on; reset keeps
	// the events buffer.
	splitNS, evalNS int64
	events          []trace.RawEvent
	dropped         int
}

// reset clears a recycled Result for the next record, keeping its buffers
// and cached sinks.
func (r *Result) reset() {
	*r = Result{Matches: r.Matches[:0], pathBuf: r.pathBuf[:0], spare: r.spare,
		collect: r.collect, bounded: r.bounded, events: r.events[:0]}
}

// collectMatch is the unbounded match sink: it copies the (reused) path
// into the result's backing buffer, appends a match for fleet member m,
// and keeps going.
func (r *Result) collectMatch(m int, p hedge.Path, n *hedge.Node) bool {
	start := len(r.pathBuf)
	r.pathBuf = append(r.pathBuf, p...)
	r.Matches = append(r.Matches, Match{Query: r.first + m,
		Path: r.pathBuf[start:len(r.pathBuf):len(r.pathBuf)], Node: n})
	return true
}

// collectBounded is collectMatch under the record deadline, sampled every
// 64 matches (Algorithm 1 is linear and terminating — the budget targets
// slow records, not infinite loops).
func (r *Result) collectBounded(m int, p hedge.Path, n *hedge.Node) bool {
	r.collectMatch(m, p, n)
	if r.seen++; r.seen&63 == 0 && time.Now().After(r.deadline) {
		r.timedOut = true
		return false
	}
	return true
}

// sink returns the cached match sink, deadline-bounded or not. The sink
// escapes into pooled evaluation scratch on every evaluation, so a fresh
// closure would cost a heap allocation per record; the method values are
// created once per Result lifetime instead.
func (r *Result) sink(bounded bool) func(m int, p hedge.Path, n *hedge.Node) bool {
	if r.collect == nil {
		r.collect, r.bounded = r.collectMatch, r.collectBounded
	}
	if bounded {
		return r.bounded
	}
	return r.collect
}

// groupByQuery reorders the matches from index from on, one fleet's in
// document order with its members interleaved, into ascending query order.
// The counting pass is stable, so each query's matches stay in document
// order, and it allocates nothing once spare has grown.
func (r *Result) groupByQuery(from, members int) {
	ms := r.Matches[from:]
	if slices.IsSortedFunc(ms, func(a, b Match) int { return a.Query - b.Query }) {
		return
	}
	var at [core.MaxFleet + 1]int
	for i := range ms {
		at[ms[i].Query-r.first+1]++
	}
	for m := 1; m < members; m++ {
		at[m] += at[m-1]
	}
	r.spare = slices.Grow(r.spare[:0], len(ms))[:len(ms)]
	for i := range ms {
		m := ms[i].Query - r.first
		r.spare[at[m]] = ms[i]
		at[m]++
	}
	copy(ms, r.spare)
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
// split and parsed once, and each record is evaluated by fleets
// (core.AppendFleets, built once per run): contiguous runs of up to 64
// queries sharing one alphabet snapshot, each fleet making one bottom-up
// pass and one shared mirror walk per record, with a side expression or
// e₁ that several of its queries share stepped once. Matches carry
// Match.Query (the index into cqs); within one Result they are grouped by
// ascending query index, in document order within each group. Everything
// else behaves like Run — ordering, fault containment, budgets
// (Config.RecordTimeout bounds one record's evaluation across ALL queries,
// it is not a per-query budget).
//
// Under PrefilterAuto the skim runs against the union of the queries'
// required-label sets: a record is skipped whole only when no query's
// requirement set is fully present (requiring the union conjunctively
// would be unsound), and kept records carry a per-query verdict
// (xmlhedge.Record.Hint) that gates evaluation to the queries whose
// requirements the record can actually satisfy: a fleet steps only the
// automata its allowed queries read — the shared-pass scaling lever on
// selective workloads. Stats.Matches counts across all queries.
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
	// The fleets are built once, before any worker forks, into storage a
	// previous run lent back, and shared read-only by every worker.
	fleets := fleetPool.Get().(*[]core.Fleet)
	*fleets = core.AppendFleets(*fleets, qs)
	defer fleetPool.Put(fleets)
	p := &pipe{fleets: *fleets, cfg: &cfg, yield: yield}
	if cfg.Metrics != nil {
		ropts.Metrics = &cfg.Metrics.Split
		p.ms = &cfg.Metrics.Stream
		p.ms.Runs.Inc()
		p.ms.Workers.Set(int64(workers))
		start := time.Now()
		defer func() { p.ms.WallTime.Observe(time.Since(start)) }()
	}
	if cfg.Trace != nil || cfg.OnSlow != nil {
		p.sink = sinkPool.Get().(*trace.EventSink)
		p.sink.Reset()
		defer sinkPool.Put(p.sink)
		ropts.Events = p.sink
	}
	p.timed = p.ms != nil || p.sink.Enabled()
	if cfg.Prefilter == PrefilterAuto {
		// One requirement group per query, indices aligned with qs, so the
		// skim verdict doubles as the per-query evaluation gate. With no
		// required label anywhere (e.g. wildcard-only queries) the
		// prefilter is nil, which disables the cascade.
		groups := make([][]string, len(qs))
		for i, cq := range qs {
			groups[i] = cq.RequiredLabels()
		}
		ropts.Prefilter = xmlhedge.NewMultiPrefilter(groups)
	}
	// Lazy-determinization counters live on the shared compilations; deltas
	// around the run attribute this run's share to its Stats.
	lz0 := lazyTotals(qs)
	var err error
	if workers <= 1 {
		err = p.runInline(ctx, r, ropts)
	} else {
		err = p.runParallel(ctx, r, ropts, workers)
	}
	// Both runs have stopped reading, so the reader's counters are final
	// and its buffer can go to the next run.
	p.stats.Bytes = p.rr.InputOffset()
	p.stats.Prefiltered = p.rr.Prefiltered()
	p.rr.Release()
	lzd := lazyTotals(qs).Sub(lz0)
	p.stats.LazyStates = lzd.StatesBuilt
	p.stats.LazyHits = lzd.Hits
	p.stats.LazyEvictions = lzd.Evictions
	return p.stats, err
}

// fleetPool recycles the fleets of finished runs: rebuilding a run's
// fleets into warm storage allocates nothing.
var fleetPool = sync.Pool{New: func() any { return new([]core.Fleet) }}

// sinkPool recycles the event sinks of finished traced runs, so a warm
// run emits into a buffer an earlier run grew.
var sinkPool = sync.Pool{New: func() any { return new(trace.EventSink) }}

// lazyTotals sums lazy-DHA counters across distinct compilations: the same
// compilation registered under several indices counts once.
func lazyTotals(qs []*core.CompiledQuery) ha.LazyStats {
	var total ha.LazyStats
	for i, cq := range qs {
		if !slices.Contains(qs[:i], cq) {
			total = total.Add(cq.LazyStats())
		}
	}
	return total
}

// pipe is one run's per-record pipeline, three stages written once: split
// reads a record, eval runs Algorithm 1 on it, and settle delivers it in
// document order. A single-worker run calls them in turn (runInline); a
// parallel run calls split on its producer, eval on its workers and settle
// on its collector (runParallel).
type pipe struct {
	ctx    context.Context // the splitter's context
	rr     *xmlhedge.RecordReader
	fleets []core.Fleet // the run's queries, in order
	cfg    *Config
	ms     *metrics.Stream  // nil without Config.Metrics
	sink   *trace.EventSink // nil unless tracing
	timed  bool             // stage timing: a metrics sink or tracing
	yield  func(*Result) error
	stats  Stats // settle's counters
}

// split reads the next record into it and stamps the split time and the
// splitter events on its Result. A record-scoped splitter failure becomes
// a tombstone: res.fail is set, and res.fatal when no policy may skip it.
// io.EOF and cancellation are returned with it left unfilled.
func (p *pipe) split(arena *xmlhedge.Arena, it *batchItem) error {
	if err := p.ctx.Err(); err != nil {
		return err
	}
	var t0 time.Time
	if p.timed {
		t0 = time.Now()
	}
	rec, err := p.rr.Read(arena)
	res := &it.res
	res.reset()
	if p.timed {
		d := time.Since(t0)
		res.splitNS = int64(d)
		if p.ms != nil {
			p.ms.SplitTime.Observe(d)
		}
	}
	switch {
	case err == nil:
		it.rec = rec
		res.Index, res.Path, res.Nodes = rec.Index, rec.Path, rec.Nodes
	case err == io.EOF:
		return err
	case p.ctx.Err() != nil:
		return p.ctx.Err()
	default:
		res.fail = recordFailure(p.rr, err)
		res.Index, res.Path = res.fail.Index, res.fail.Path
		res.fatal = p.cfg.OnRecordError == nil || !p.rr.CanRecover()
	}
	res.events, res.dropped = p.sink.Drain(res.events)
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

// eval runs every fleet over a split record and stamps the evaluation
// time; a contained failure replaces the matches (res.fail). Tombstones
// pass through untouched.
func (p *pipe) eval(it *batchItem) {
	if it.res.fail != nil {
		return
	}
	var t0 time.Time
	if p.timed {
		t0 = time.Now()
	}
	it.res.fail = safeEvaluate(p.fleets, &it.rec, &it.res, p.cfg)
	if p.timed {
		d := time.Since(t0)
		it.res.evalNS = int64(d)
		if p.ms != nil {
			p.ms.EvalTime.Observe(d)
			p.ms.RecordLatency.Observe(d)
		}
	}
}

// safeEvaluate runs every fleet over one parsed record with panics
// contained and the evaluation timeout enforced — the timeout budget spans
// the whole record, shared by all queries. A fleet evaluates only the
// members whose verdict bit in rec.Hint is set: a clear bit means the
// prefilter found a required label absent, so the query is provably
// matchless here and its automata are not touched. On success res holds
// the matches, grouped by query index.
func safeEvaluate(fleets []core.Fleet, rec *xmlhedge.Record, res *Result, cfg *Config) (fail *RecordError) {
	defer func() {
		if v := recover(); v != nil {
			fail = &RecordError{Index: rec.Index, Path: rec.Path,
				Err: &PanicError{Value: v, Stack: debug.Stack()}}
		}
	}()
	// The clock starts before the injection point, so an injected stall
	// counts against the budget.
	timeout := cfg.RecordTimeout
	if timeout > 0 {
		res.deadline = time.Now().Add(timeout)
	}
	if cfg.Inject != nil {
		cfg.Inject.BeforeEval(rec.Index)
	}
	// Cooperative deadline: sampled by the bounded sink during a traversal,
	// between fleets, and once more at the end.
	sink := res.sink(timeout > 0)
	for i := range fleets {
		f := &fleets[i]
		allow := rec.Hint.Word(f.First)
		if allow == 0 {
			continue
		}
		if timeout > 0 && time.Now().After(res.deadline) {
			res.timedOut = true
			break
		}
		res.first = f.First
		from := len(res.Matches)
		if cfg.Explain {
			// Provenance capture: ExplainEach locates exactly what Each
			// does, with each match carrying its witness.
			f.ExplainEach(rec.Hedge, allow, func(m int, w core.Witness, node *hedge.Node) bool {
				more := sink(m, w.Path, node)
				res.Matches[len(res.Matches)-1].Witness = &w
				return more
			})
		} else {
			f.Each(rec.Hedge, allow, sink)
		}
		res.groupByQuery(from, f.Len())
		if res.timedOut {
			break
		}
	}
	if timeout > 0 && (res.timedOut || time.Now().After(res.deadline)) {
		return &RecordError{Index: rec.Index, Path: rec.Path, Err: ErrRecordTimeout}
	}
	return nil
}

// settle is the in-order stage: it routes a failed record through the
// policy, updates the counters, commits the record's trace and delivers a
// healthy record. stop reports that the run ends, with err (nil when yield
// stopped it with ErrStop). settle builds every trace the run commits.
func (p *pipe) settle(r *Result) (stop bool, err error) {
	outcome, cause := "ok", error(nil)
	var deliverNS int64
	if f := r.fail; f != nil {
		if _, isPanic := f.Err.(*PanicError); isPanic {
			p.stats.Recovered++
			if p.ms != nil {
				p.ms.PanicsRecovered.Inc()
			}
		}
		if errors.Is(f.Err, ErrRecordTimeout) {
			p.stats.TimedOut++
			if p.ms != nil {
				p.ms.RecordsTimedOut.Inc()
			}
		}
		switch {
		case r.fatal:
			err = f.Err // the raw splitter error: the pre-policy surface
		case p.cfg.OnRecordError == nil:
			err = f
		default:
			err = p.cfg.OnRecordError(f)
		}
		outcome, cause, stop = "skipped", f, err != nil
		if stop {
			outcome, cause = "aborted", err
		} else {
			p.stats.Skipped++
			if p.ms != nil {
				p.ms.RecordsSkipped.Inc()
			}
		}
	} else {
		p.stats.Records++
		p.stats.Nodes += int64(r.Nodes)
		p.stats.Matches += int64(len(r.Matches))
		var t0 time.Time
		if p.timed {
			t0 = time.Now()
		}
		err = p.yield(r)
		if p.timed {
			d := time.Since(t0)
			deliverNS = int64(d)
			if p.ms != nil {
				p.ms.DeliverTime.Observe(d)
			}
		}
		stop = err != nil
		if errors.Is(err, ErrStop) {
			err = nil // a clean early end
		}
	}
	if p.sink.Enabled() {
		// The path and events are committed as they are; the ring renders
		// their text only when read.
		e := trace.Entry{Index: r.Index, Path: r.Path,
			SplitNS: r.splitNS, EvalNS: r.evalNS, DeliverNS: deliverNS,
			TotalNS: r.splitNS + r.evalNS + deliverNS, Nodes: r.Nodes,
			Matches: len(r.Matches), Outcome: outcome, Events: r.events,
			EventsDropped: r.dropped, RequestID: p.cfg.RequestID}
		if cause != nil {
			e.Error = cause.Error()
		}
		p.cfg.Trace.Commit(&e)
		if p.cfg.OnSlow != nil && p.cfg.SlowThreshold > 0 && e.TotalNS >= int64(p.cfg.SlowThreshold) {
			p.cfg.OnSlow(e.Render())
		}
	}
	if r.await != nil {
		r.await <- err // release the producer parked on this tombstone
	}
	return stop, err
}

// runInline is the single-worker run: the three stages in turn on one
// pooled one-item batch, with no goroutines.
func (p *pipe) runInline(ctx context.Context, r io.Reader, ropts xmlhedge.RecordOptions) error {
	ropts.Ctx = ctx
	p.ctx, p.rr = ctx, xmlhedge.NewRecordReader(r, ropts)
	// The pooled batch lets back-to-back runs reuse a warm arena and
	// Result: one short stream never amortizes cold chunk growth alone.
	b := getBatch(1)
	defer batchPool.Put(b)
	it := &b.items[0]
	for {
		b.arena.Reset()
		if err := p.split(&b.arena, it); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		tomb := it.res.fail != nil
		p.eval(it)
		if stop, err := p.settle(&it.res); stop {
			return err
		}
		if tomb {
			// Skipped: resume past the failed record.
			if err := p.rr.Recover(); err != nil {
				return err
			}
		}
	}
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

// fill splits records into b until it is full or a tombstone closes it,
// returning split's io.EOF or cancellation.
func (p *pipe) fill(b *batch) error {
	b.arena.Reset()
	for b.n = 0; b.n < len(b.items); {
		it := &b.items[b.n]
		if err := p.split(&b.arena, it); err != nil {
			return err
		}
		if b.n++; it.res.fail != nil {
			return nil
		}
	}
	return nil
}

// runParallel runs the same three stages on goroutines: a producer splits
// batches of records into recycled batch arenas, workers evaluate whole
// batches, and the collector (this goroutine) settles them in sequence
// order. Batch objects (workers+2 of them, each owning one arena) are the
// memory bound: the producer blocks until a settled batch is recycled.
// Workers publish finished batches into a sequence-indexed reorder ring
// with a non-blocking wakeup, so in-order delivery costs no per-record
// channel exchange and workers never block on a slow collector.
//
// A splitter tombstone closes its batch, so settling never stalls on the
// failed index. A fatal one ends production; otherwise the producer blocks
// on the tombstone's await channel for settle's verdict — recovery rewires
// the reader's state, so the producer cannot run ahead of the decision.
func (p *pipe) runParallel(ctx context.Context, r io.Reader, ropts xmlhedge.RecordOptions, workers int) error {
	// The splitter polls the run's own context, so cancellation (external
	// or a settled abort) interrupts even a mid-record read.
	ictx, cancel := context.WithCancel(ctx)
	defer cancel()
	ropts.Ctx = ictx
	p.ctx, p.rr = ictx, xmlhedge.NewRecordReader(r, ropts)
	batchSize := p.cfg.BatchSize
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

	// Producer. Its exit closes jobs, then prodDone, which orders its last
	// reader state and prodErr before the collector's reads.
	var prodErr error
	prodDone := make(chan struct{})
	go pprof.Do(ictx, pprof.Labels("xpe.stage", "stream-split"), func(context.Context) {
		defer close(prodDone)
		defer close(jobs)
		verdict := make(chan error, 1) // reused: at most one tombstone is outstanding
		for seq := 0; ; seq++ {
			var b *batch
			select {
			case b = <-free:
			case <-ictx.Done():
				return
			}
			err := p.fill(b)
			if b.n == 0 || (err != nil && err != io.EOF) {
				// Nothing split, or canceled: the run's outcome is decided
				// elsewhere, and a partial batch is abandoned.
				free <- b // cap nBatches: never blocks
				return
			}
			// Decide before the handoff: the batch is the workers' after it.
			last := &b.items[b.n-1].res
			done := err != nil || last.fatal // io.EOF, or a fatal tombstone
			wait := last.fail != nil && !last.fatal
			if wait {
				last.await = verdict
			}
			b.seq = seq
			jobs <- b // cap nBatches: never blocks
			if done {
				return
			}
			if !wait {
				continue
			}
			select {
			case v := <-verdict:
				if v != nil {
					return // settle aborted with the policy's error
				}
			case <-ictx.Done():
				return
			}
			if err := p.rr.Recover(); err != nil {
				if ictx.Err() == nil {
					prodErr = err
				}
				return
			}
		}
	})

	// Workers: evaluate batches; cq's evaluation arenas and mirror
	// automaton are concurrency-safe, stage timers are atomic, and a
	// panicking evaluation is contained in safeEvaluate, so a worker never
	// dies. Publishing is a ring store plus an optional buffered wakeup —
	// never a blocking send — so workers drain jobs even when the
	// collector has stopped consuming.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go pprof.Do(ictx, pprof.Labels("xpe.stage", "stream-eval", "xpe.worker", strconv.Itoa(w)), func(context.Context) {
			defer wg.Done()
			for b := range jobs {
				for i := range b.items[:b.n] {
					p.eval(&b.items[i])
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

	// Collector: consume the ring in sequence order and settle each record,
	// so the policy and yield are never invoked concurrently. Once the run
	// stops, the rest is drained unsettled; a producer blocked on a
	// tombstone's verdict is released by the cancellation.
	var err error
	stopped := false
collect:
	for next := 0; ; {
		b := ring[next&ringMask].Load()
		if b == nil {
			select {
			case <-kick:
			case <-workersDone:
				if ring[next&ringMask].Load() == nil {
					// All workers exited and the next slot is still empty:
					// no batch with this sequence number is coming.
					break collect
				}
			}
			continue
		}
		ring[next&ringMask].Store(nil)
		next++
		for i := 0; i < b.n && !stopped; i++ {
			if stopped, err = p.settle(&b.items[i].res); stopped {
				cancel()
			}
		}
		free <- b // cap nBatches: never blocks, even after the producer exits
	}
	// Workers exit only after jobs closes, so the producer is on its way
	// out and this wait is bounded.
	<-prodDone
	for len(free) > 0 {
		batchPool.Put(<-free) // warm batches for the next run
	}
	if err == nil {
		err = prodErr
	}
	if err == nil {
		err = ctx.Err()
	}
	return err
}
