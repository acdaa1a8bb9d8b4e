package xpe

import (
	"context"
	"errors"
	"io"
	"iter"
	"time"
	"unsafe"

	"xpe/internal/core"
	"xpe/internal/hedge"
	"xpe/internal/stream"
)

// SelectOptions tunes streaming evaluation; the zero value is the default
// configuration (split at the document element's children, GOMAXPROCS
// workers, no record limits).
type SelectOptions struct {
	// Workers is the number of concurrent record-evaluation workers; <= 0
	// means GOMAXPROCS. 1 runs the same record pipeline inline on the
	// calling goroutine. Matches are delivered in document order
	// regardless.
	Workers int
	// BatchSize is the number of records per worker handoff in parallel
	// runs: 0 picks the default (currently 32), 1 restores record-at-a-time
	// handoff. Larger batches amortize scheduling costs per record but
	// raise peak memory (O(largest record × BatchSize × (Workers+2))) and
	// delivery latency on slow producers. A single-worker run hands off
	// nothing and ignores it.
	BatchSize int
	// ReuseBuffers opts into zero-copy delivery: StreamMatch.Path, .Term,
	// and .RecordPath are views into per-run buffers recycled between
	// yields, so everything a StreamMatch carries — strings and Node alike
	// — is valid only until the yield callback returns. Copy (or
	// strings.Clone) whatever outlives the callback. Off, the strings are
	// freshly allocated and safe to retain, matching the historical
	// contract.
	ReuseBuffers bool
	// SplitElement names the record root element: every subtree rooted at
	// an element with this name (outermost wins when nested) is one
	// record, e.g. "entry" for a feed. Empty splits the document into the
	// document element's children.
	SplitElement string
	// MaxRecordNodes bounds the node count of a single record (0 =
	// unlimited). A violating record fails with *LimitError (kind "nodes"),
	// routed through OnError.
	MaxRecordNodes int
	// MaxRecordDepth bounds element nesting within a record, counting the
	// record root as depth 1 (0 = unlimited; kind "depth").
	MaxRecordDepth int
	// MaxRecordBytes bounds the raw input bytes one record may span (0 =
	// unlimited; kind "bytes"). The record is abandoned as soon as the
	// budget is crossed, so memory stays bounded even against a
	// multi-gigabyte record.
	MaxRecordBytes int64
	// MaxStreamBytes bounds total input consumption for the run (0 =
	// unlimited). Exceeding it aborts the stream with *LimitError (kind
	// "stream") regardless of OnError: there is no recovery past an
	// exhausted stream budget.
	MaxStreamBytes int64
	// RecordTimeout bounds one record's evaluation wall time (0 =
	// unlimited). A record over budget fails with *LimitError (kind
	// "time"), routed through OnError. Enforcement is cooperative — the
	// deadline is sampled between matches — so it catches slow records,
	// not a wedged evaluation.
	RecordTimeout time.Duration
	// OnError decides the fate of a record that failed — malformed XML,
	// a limit violation, or an evaluation failure. Nil behaves exactly like
	// Abort: the stream stops at the first failure. Policies are called in
	// document order on the caller's goroutine, never concurrently. See
	// ErrorPolicy, Abort, Skip.
	//
	// Not every skip is free: past a record with broken markup the splitter
	// must resynchronize on the next SplitElement start tag (skipping is
	// only possible with a named SplitElement there), and a malformation
	// that swallows the record's own terminator may cost the records it
	// absorbed. Limit violations and evaluation failures skip exactly one
	// record. Failures larger than a record — unreadable input,
	// cancellation, an exhausted stream budget — abort regardless.
	OnError ErrorPolicy
	// KeepWhitespace retains whitespace-only text nodes.
	KeepWhitespace bool
	// Prefilter controls the raw-byte record prefilter cascade. The zero
	// value PrefilterAuto derives the query's required element labels at
	// run start and skips records whose raw bytes provably cannot contain
	// them all, without parsing or evaluating them; whenever the byte skim
	// is unsure, the record is parsed normally. Match sets and errors are
	// identical either way — only StreamStats.Prefiltered and throughput
	// differ. PrefilterOff disables the cascade, e.g. to attribute time
	// precisely in benchmarks or to rule the prefilter out while
	// debugging.
	Prefilter PrefilterMode
	// inject is the test-only fault-injection hook (see
	// internal/faultinject); being unexported it is settable only from
	// this package's tests.
	inject stream.Injector
	// Metrics, when non-nil, collects this run's splitter and stage
	// metrics in isolation (the engine's cumulative Stats receives them
	// too). Nil means engine-level observation only. See MetricsSink.
	Metrics *MetricsSink
	// Trace, when non-nil, records this run's per-record traces into the
	// given flight recorder, overriding the engine-wide recorder
	// (Engine.SetFlightRecorder) for this run. One trace is committed per
	// record that reaches an in-order verdict — delivered, skipped, or
	// aborting — with stage timings and any splitter recovery events.
	// Tracing costs two clock reads per stage per record while attached.
	Trace *FlightRecorder
	// RequestID, when non-empty, is stamped onto every RecordTrace this
	// run commits and onto the slow-record log lines, correlating record
	// spans with the request that caused the run. The serving layer sets
	// it from the X-Request-Id header; library callers may use any
	// correlation token. Inert when no tracing is enabled.
	RequestID string
	// SlowRecordThreshold enables the slow-record log: every record whose
	// split+eval+deliver total meets or exceeds the threshold is routed to
	// OnSlowRecord (0 disables). The threshold works without a recorder
	// attached — slow traces are assembled and routed either way.
	SlowRecordThreshold time.Duration
	// OnSlowRecord receives slow records' traces, in document order on
	// the goroutine delivering results (never concurrently). Nil with a
	// threshold set logs a warning through slog.
	OnSlowRecord func(RecordTrace)
	// Explain attaches provenance to every delivered match:
	// StreamMatch.Explanation names the envelope evidence level by level.
	// Provenance allocates per match; leave it off for throughput.
	Explain bool
}

// PrefilterMode selects the raw-byte prefilter behavior for a streaming
// run; see SelectOptions.Prefilter.
type PrefilterMode = stream.PrefilterMode

const (
	// PrefilterAuto (the default) skips records whose bytes provably lack
	// one of the query's required element labels.
	PrefilterAuto = stream.PrefilterAuto
	// PrefilterOff disables the prefilter cascade for the run.
	PrefilterOff = stream.PrefilterOff
)

// ErrorPolicy decides the fate of one failed record: return nil to skip it
// and continue the stream, or an error to abort the run with it (returning
// the *RecordError itself is the idiomatic abort). The error's Err field
// carries the typed cause: *ParseError for malformed XML, *LimitError for
// a resource bound, *InternalError for a panicking evaluation.
type ErrorPolicy func(*RecordError) error

// Abort stops the stream at the first failed record, returning the typed
// *RecordError. This is also the behavior when SelectOptions.OnError is
// nil (the nil default reports the raw underlying error instead of the
// *RecordError wrapper, for compatibility).
var Abort ErrorPolicy = func(e *RecordError) error { return e }

// Skip drops failed records and continues the stream; skipped records are
// counted in StreamStats.Skipped and the engine's stream metrics.
var Skip ErrorPolicy = func(*RecordError) error { return nil }

// StreamStats aggregates one SelectStream run. The field set mirrors
// stream.Stats exactly (the struct conversion below depends on it).
//
// Invariant: Records + Prefiltered is the total number of records the
// splitter saw, whatever the prefilter mode or (for SelectStreamMulti)
// the query count — prefiltering only moves a record between the two
// buckets, never conjures or drops one. The differential harness pins
// this, and Prefiltered/(Records+Prefiltered) is the run's skim rate.
type StreamStats struct {
	Records     int64 // records evaluated and delivered
	Nodes       int64 // total nodes across delivered records
	Matches     int64 // total located nodes
	Bytes       int64 // input bytes consumed by the XML decoder
	Skipped     int64 // failed records dropped by the OnError policy
	TimedOut    int64 // records over RecordTimeout, whether skipped or aborting
	Recovered   int64 // evaluation panics caught and converted to errors
	Prefiltered int64 // records skipped by the raw-byte prefilter cascade
	// Lazy-determinization deltas for the run (zero under eager
	// compilation; approximate when concurrent runs share one query).
	LazyStates    int64 // lazy-DHA states materialized during the run
	LazyHits      int64 // lazy transition-cache hits during the run
	LazyEvictions int64 // lazy transition-cache evictions during the run
}

// StreamMatch is one located node of a streamed record. Path (and Term)
// are record-relative: the record root is node 1, exactly as if the record
// were parsed as its own document.
type StreamMatch struct {
	Match
	// Record is the 0-based record sequence number.
	Record int
	// RecordPath is the Dewey path of the record root within the input
	// document; RecordPath + Path[1:] addresses the node in the whole
	// document. (The embedded Match carries the provenance when
	// SelectOptions.Explain is set.)
	RecordPath string
	// RecordEnd marks the record's last match: the next match, if any,
	// comes from a later record. A writer that flushes once per record
	// flushes after it.
	RecordEnd bool
}

// ErrStop, returned from a SelectStream yield callback, ends the stream
// early with no error.
var ErrStop = stream.ErrStop

// SelectStream evaluates q over an XML stream record by record: r is
// split into records (see SelectOptions.SplitElement), each record is
// parsed into a recycled arena and evaluated as an independent document
// with Algorithm 1, and yield is called once per located node in document
// order, as soon as the record completes. Peak memory is O(largest record
// × workers), never O(document) — a multi-gigabyte feed streams in
// constant space.
//
// Each record is its own evaluation unit: envelope conditions range over
// the record subtree, not the enclosing document (single-pass streaming
// cannot see the younger siblings of a record's ancestors). StreamMatch.Node
// references recycled storage and is valid only during the callback;
// Path and Term are stable copies. Returning ErrStop from yield ends the
// stream cleanly; any other error aborts it and is returned.
//
// The query is resolved against the engine's current alphabet generation
// once, before the worker pool forks: if the alphabet grew since a
// '.'-bearing or XPath q was compiled, SelectStream transparently
// recompiles (through the engine's compiled-query cache) and every worker
// evaluates the same refreshed automata; a query without '.' keeps its
// compilation, which answers alike at every generation. Within the run
// the alphabet is closed-world — labels first seen mid-stream are record
// text, not interned symbols, so they fail '.'-sides exactly as an
// unknown label does for Select. Streams intern nothing, not even the
// text variable ParseXML interns, so on an engine that has parsed no
// document a '.'-side rejects text leaves that Select would accept. Errors are typed:
// *ParseError for malformed XML, *LimitError for an exceeded resource
// bound, *RecordError (wrapping the cause, including *InternalError for a
// panicking evaluation) when an OnError policy aborted on a failed record.
func (e *Engine) SelectStream(ctx context.Context, r io.Reader, q *Query, opts SelectOptions, yield func(StreamMatch) error) (StreamStats, error) {
	return e.selectStream(ctx, r, []*Query{q}, opts, func(_ int, m StreamMatch) error {
		return yield(m)
	})
}

// MultiStreamMatch is one located node from a multi-query streaming run:
// the match plus the index of the query that located it.
type MultiStreamMatch struct {
	StreamMatch
	// Query is the index into SelectStreamMulti's query slice of the query
	// this node matched.
	Query int
}

// SelectStreamMulti evaluates every query in qs over one shared pass of
// the stream: the input is split and parsed once, and each record is
// evaluated once per fleet of up to 64 queries — one bottom-up pass and
// one shared walk of the match automata, with a side or subhedge
// condition several queries share evaluated once — instead of one scan
// per query: the serving path for N registered queries over one hot feed.
// Matches carry the originating query's index; within one record they
// arrive grouped by ascending query index, in document order within each
// query.
//
// Everything else follows the SelectStream contract — in-order delivery,
// fault containment via OnError, budgets, tracing. Two multi-query
// specifics: RecordTimeout bounds one record's evaluation across ALL
// queries (it is a record budget, not a per-query one), and under
// PrefilterAuto the skim tests the union of the queries' required labels,
// skipping a record only when no query's requirement set is present and
// gating per-record evaluation to the queries whose requirements are —
// per query, exactly the records its own prefiltered run would evaluate.
// StreamStats.Matches counts across all queries; the
// Records+Prefiltered sum is identical to a single-query run over the
// same input (see StreamStats).
func (e *Engine) SelectStreamMulti(ctx context.Context, r io.Reader, qs []*Query, opts SelectOptions, yield func(MultiStreamMatch) error) (StreamStats, error) {
	if len(qs) == 0 {
		return StreamStats{}, errors.New("xpe: SelectStreamMulti needs at least one query")
	}
	return e.selectStream(ctx, r, qs, opts, func(qi int, m StreamMatch) error {
		return yield(MultiStreamMatch{StreamMatch: m, Query: qi})
	})
}

func (e *Engine) selectStream(ctx context.Context, r io.Reader, qs []*Query, opts SelectOptions, yield func(int, StreamMatch) error) (StreamStats, error) {
	cfg := stream.Config{
		Split:          opts.SplitElement,
		Workers:        opts.Workers,
		BatchSize:      opts.BatchSize,
		MaxRecordNodes: opts.MaxRecordNodes,
		MaxRecordDepth: opts.MaxRecordDepth,
		MaxRecordBytes: opts.MaxRecordBytes,
		MaxStreamBytes: opts.MaxStreamBytes,
		RecordTimeout:  opts.RecordTimeout,
		Inject:         opts.inject,
		KeepWhitespace: opts.KeepWhitespace,
		Prefilter:      opts.Prefilter,
		Metrics:        e.metrics,
		RequestID:      opts.RequestID,
		Explain:        opts.Explain,
	}
	// Tracing: the per-run recorder wins; the engine-wide one is the
	// fallback. A slow-record threshold assembles traces even with no
	// recorder attached anywhere.
	fr := opts.Trace
	if fr == nil {
		fr = e.recorder.Load()
	}
	cfg.Trace = fr.tracer()
	if opts.SlowRecordThreshold > 0 {
		cfg.SlowThreshold = opts.SlowRecordThreshold
		if opts.OnSlowRecord != nil {
			cfg.OnSlow = opts.OnSlowRecord
		} else {
			cfg.OnSlow = logSlowRecord
		}
	}
	timeoutMs := int(opts.RecordTimeout / time.Millisecond)
	var perr error // policy-originated abort, passed through unwrapped
	if pol := opts.OnError; pol != nil {
		cfg.OnRecordError = func(se *stream.RecordError) error {
			if err := pol(wrapRecordFailure(se, timeoutMs)); err != nil {
				perr = err
				return err
			}
			return nil
		}
	}
	if sink := opts.Metrics; sink != nil {
		// Route the run's splitter/stage metrics into the sink and merge
		// the delta back into the engine registry afterwards, so a per-run
		// sink never hides the run from Engine.Stats.
		cfg.Metrics = &sink.reg
		before := sink.reg.Snapshot()
		defer func() { e.metrics.AddSnapshot(sink.reg.Snapshot().Sub(before)) }()
	}
	// Resolve the compilations once, pre-fork: workers share one snapshot
	// per query and never recompile per record.
	cqs := make([]*core.CompiledQuery, len(qs))
	for i, q := range qs {
		cqs[i] = q.compiled()
	}
	var yerr error // yield-originated, passed through unwrapped
	// With ReuseBuffers the three strings are serialized into per-run
	// scratch buffers (one per record for the record path, one per match)
	// and handed out as no-copy views, valid only until yield returns.
	var recBuf, matchBuf []byte
	st, err := stream.RunMulti(ctx, r, cqs, cfg, func(res *stream.Result) error {
		var recPath string
		if opts.ReuseBuffers {
			recBuf = res.Path.AppendString(recBuf[:0])
			recPath = bufString(recBuf)
		} else {
			recPath = res.Path.String()
		}
		for i := range res.Matches {
			m := &res.Matches[i]
			sm := StreamMatch{
				Record:     res.Index,
				RecordPath: recPath,
				RecordEnd:  i == len(res.Matches)-1,
			}
			if opts.ReuseBuffers {
				matchBuf = m.Path.AppendString(matchBuf[:0])
				pathLen := len(matchBuf)
				matchBuf = m.Node.AppendString(matchBuf)
				sm.Match = Match{Path: bufString(matchBuf[:pathLen]),
					Term: bufString(matchBuf[pathLen:]), Node: m.Node}
			} else {
				sm.Match = Match{Path: m.Path.String(), Term: m.Node.String(), Node: m.Node}
			}
			if m.Witness != nil {
				sm.Explanation = newExplanation(cqs[m.Query], qs[m.Query].src, m.Witness)
			}
			if err := yield(m.Query, sm); err != nil {
				if !errors.Is(err, ErrStop) {
					yerr = err
				}
				return err
			}
		}
		return nil
	})
	if err != nil && (err == yerr || err == perr) {
		return StreamStats(st), err
	}
	return StreamStats(st), wrapStreamErr(err, timeoutMs)
}

// SelectStreamSeq is the pull form of SelectStream: it returns an iterator
// over (match, error) pairs for use with range-over-func, plus the run's
// statistics. Iteration stops at the first non-nil error (yielded as the
// final pair with a zero match); breaking out of the loop cancels the
// stream. The stream runs only while being iterated — the iterator is
// single-use — and the returned StreamStats is populated when iteration
// finishes (it reads as zero before that, and reflects the partial run
// after an early break).
func (e *Engine) SelectStreamSeq(ctx context.Context, r io.Reader, q *Query, opts SelectOptions) (iter.Seq2[StreamMatch, error], *StreamStats) {
	stats := new(StreamStats)
	seq := func(yield func(StreamMatch, error) bool) {
		st, err := e.SelectStream(ctx, r, q, opts, func(m StreamMatch) error {
			if !yield(m, nil) {
				return ErrStop
			}
			return nil
		})
		*stats = st
		if err != nil {
			yield(StreamMatch{}, err)
		}
	}
	return seq, stats
}

// bufString is a no-copy view of b, used for ReuseBuffers delivery. The
// backing bytes are written once per yield and never mutated while the
// view is live (the documented validity window).
func bufString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// Select evaluates q over an in-memory document under ctx, honoring the
// subset of opts that applies outside the streaming pipeline — Metrics,
// Trace, and Explain — so in-memory and streamed runs share one options
// surface. The stream-only fields (Workers, BatchSize, ReuseBuffers,
// SplitElement, the record limits and RecordTimeout, OnError,
// KeepWhitespace, SlowRecordThreshold, OnSlowRecord) configure the
// splitter pipeline, which an already-parsed document never enters; they
// are ignored here.
//
// Cancellation is cooperative: ctx is checked between matches, so the
// traversal itself is not preempted (use SelectStream for fully cancelable
// evaluation of large inputs). With Explain set every returned Match
// carries its Explanation. A per-run Metrics sink receives the engine
// registry's delta across the run — with concurrent runs on the same
// engine the delta includes their overlapping activity, so isolate
// benchmarked runs.
func (e *Engine) Select(ctx context.Context, d *Document, q *Query, opts SelectOptions) ([]Match, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if sink := opts.Metrics; sink != nil {
		before := e.metrics.Snapshot()
		defer func() { sink.reg.AddSnapshot(e.metrics.Snapshot().Sub(before)) }()
	}
	fr := opts.Trace
	if fr == nil {
		fr = e.recorder.Load()
	}
	cq := q.compiled()
	var t0 time.Time
	if fr != nil {
		t0 = time.Now()
	}
	var out []Match
	if opts.Explain {
		cq.ExplainEach(d.hedge, func(w core.Witness, n *hedge.Node) bool {
			if ctx.Err() != nil {
				return false
			}
			out = append(out, Match{Path: w.Path.String(), Term: n.String(), Node: n,
				Explanation: newExplanation(cq, q.src, &w)})
			return true
		})
	} else {
		cq.SelectEach(d.hedge, func(p hedge.Path, n *hedge.Node) bool {
			if ctx.Err() != nil {
				return false
			}
			out = append(out, Match{Path: p.String(), Term: n.String(), Node: n})
			return true
		})
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if fr != nil {
		fr.commitDoc(q.src, int64(time.Since(t0)), d.Size(), len(out))
	}
	return out, nil
}
