package xpe

import (
	"io"
	"log/slog"

	"xpe/internal/trace"
)

// RecordTrace is the assembled trace of one evaluation unit: a streamed
// record (Index is its sequence number) or an in-memory document
// evaluation (Index -1, Query set). See internal/trace.RecordTrace for
// the field-by-field contract; the JSON encoding is stable.
type RecordTrace = trace.RecordTrace

// TraceEvent is a point-in-time annotation on a record trace: splitter
// recovery activity (token skims, raw resynchronizations, truncation)
// and record boundaries.
type TraceEvent = trace.Event

// FlightRecorder is a bounded ring of the most recent record traces — a
// "what just happened" surface that costs two clock reads per pipeline
// stage while attached and nothing when detached. Attach one per run
// via SelectOptions.Trace, or engine-wide via Engine.SetFlightRecorder
// (which also captures in-memory document evaluations). A FlightRecorder
// is safe for concurrent use; all methods are nil-safe.
type FlightRecorder struct {
	t *trace.Tracer
}

// NewFlightRecorder returns a recorder retaining the last capacity
// traces; capacity <= 0 selects the default of 64.
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = 64
	}
	return &FlightRecorder{t: trace.New(capacity)}
}

// tracer unwraps the internal ring, tolerating a nil receiver.
func (fr *FlightRecorder) tracer() *trace.Tracer {
	if fr == nil {
		return nil
	}
	return fr.t
}

// Traces returns the retained traces, oldest first (a copy).
func (fr *FlightRecorder) Traces() []RecordTrace { return fr.tracer().Traces() }

// Total returns the number of traces ever committed, retained or not.
func (fr *FlightRecorder) Total() int64 { return fr.tracer().Total() }

// Reset drops the retained traces and zeroes the commit count.
func (fr *FlightRecorder) Reset() { fr.tracer().Reset() }

// WriteJSON encodes the retained traces (oldest first) as indented JSON.
func (fr *FlightRecorder) WriteJSON(w io.Writer) error { return fr.tracer().WriteJSON(w) }

// commitDoc records one in-memory document evaluation; Index -1 marks
// the absence of a record stream.
func (fr *FlightRecorder) commitDoc(query string, evalNS int64, nodes, matches int) {
	fr.tracer().Commit(&trace.Entry{Index: -1, Query: query,
		EvalNS: evalNS, TotalNS: evalNS, Nodes: nodes, Matches: matches, Outcome: "ok"})
}

// SetFlightRecorder attaches fr engine-wide: in-memory document
// evaluations (Matches, Select, Engine.Select) commit a trace per call,
// and streaming runs without a per-run SelectOptions.Trace commit their
// record traces, all into fr's ring. Pass nil to detach. Attachment is
// atomic; evaluations in flight keep the recorder they started with.
func (e *Engine) SetFlightRecorder(fr *FlightRecorder) { e.recorder.Store(fr) }

// FlightRecorder returns the engine-wide recorder, nil when detached.
func (e *Engine) FlightRecorder() *FlightRecorder { return e.recorder.Load() }

// logSlowRecord is the default slow-record sink: a structured warning
// through the process-wide slog logger.
func logSlowRecord(rt RecordTrace) {
	args := []any{
		"record", rt.Index,
		"path", rt.Path,
		"total_ns", rt.TotalNS,
		"split_ns", rt.SplitNS,
		"eval_ns", rt.EvalNS,
		"deliver_ns", rt.DeliverNS,
		"nodes", rt.Nodes,
		"matches", rt.Matches,
		"outcome", rt.Outcome,
	}
	if rt.RequestID != "" {
		args = append(args, "request_id", rt.RequestID)
	}
	slog.Warn("xpe: slow record", args...)
}
