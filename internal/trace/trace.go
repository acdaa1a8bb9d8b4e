// Package trace is the engine's per-record tracing substrate: cheap
// monotonic-clock spans, point events from lower layers (the record
// splitter's recovery paths), and a bounded flight-recorder ring of
// recent record traces.
//
// The design contract mirrors internal/metrics: tracing must cost
// nothing when disabled. Every entry point is nil-safe — the stream
// pipeline holds a possibly-nil *Tracer and calls through it without
// guarding, and a nil receiver returns immediately — so the disabled
// path is one pointer test per hook, no clock reads, no allocation
// (`make trace-overhead` prices this budget; TestRunAllocsFlatInRecords
// in internal/stream pins it at zero allocations per record).
//
// Enabled tracing is priced too: it stores integers and renders text
// only when a trace is read. A lower layer emits RawEvents — a kind and
// integer fields — into an EventSink that keeps its buffer; the pipeline
// copies each record's events into an Entry and commits it once, with
// the record path as ints, into a Tracer ring whose slots keep their
// storage. So a warm run commits traces without allocating, and the ring
// sees exactly one trace per record that reached an in-order verdict —
// delivered, skipped, or aborted. Traces, WriteJSON and Entry.Render
// turn slots into RecordTraces.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"xpe/internal/hedge"
)

// Event is a point-in-time annotation attached to a record's trace:
// splitter recovery activity (token skims, raw resynchronizations,
// truncation) and record boundaries. At is nanoseconds since the
// emitting sink was created (run start).
type Event struct {
	At     int64  `json:"at_ns"`
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
}

// RecordTrace is the assembled trace of one streamed record (or, at the
// facade, one in-memory document evaluation): per-stage span durations,
// result counts, the record's fate, and any events the splitter emitted
// while producing it. Field order fixes the JSON encoding.
type RecordTrace struct {
	// Index is the record's 0-based sequence number (-1 for in-memory
	// document evaluations, which have no record stream).
	Index int `json:"record"`
	// Path is the Dewey path of the record root in the input document.
	Path string `json:"path,omitempty"`
	// Query is the query source, set by facade-level document traces
	// (streamed records share one query; repeating it per record would
	// be noise).
	Query string `json:"query,omitempty"`
	// RequestID correlates the trace with the serving-layer request
	// that caused the run (the X-Request-Id contract in internal/serve);
	// "" for library runs that set none.
	RequestID string `json:"request_id,omitempty"`
	// SplitNS / EvalNS / DeliverNS are the stage span durations;
	// TotalNS is their sum (the figure slow-record routing compares
	// against the threshold).
	SplitNS   int64 `json:"split_ns"`
	EvalNS    int64 `json:"eval_ns"`
	DeliverNS int64 `json:"deliver_ns"`
	TotalNS   int64 `json:"total_ns"`
	// Nodes and Matches are the record's node count and located-node
	// count (zero for failed records).
	Nodes   int `json:"nodes"`
	Matches int `json:"matches"`
	// Outcome is the record's fate: "ok" (delivered), "skipped"
	// (failed, dropped by the error policy), or "aborted" (failed, and
	// the policy — or its absence — ended the run).
	Outcome string `json:"outcome"`
	// Error is the failure rendered as text, "" on success.
	Error string `json:"error,omitempty"`
	// Events are the splitter events attributed to this record, oldest
	// first: at most MaxEvents, the newest ones.
	Events []Event `json:"events,omitempty"`
	// EventsDropped counts the older events past MaxEvents that the
	// trace does not hold.
	EventsDropped int `json:"events_dropped,omitempty"`
}

// Begin opens a span: it returns the monotonic reading Since measures
// from. A nil Tracer returns the zero time and the span is inert —
// the disabled path performs no clock read.
func (t *Tracer) Begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// Since closes a span opened by Begin, in nanoseconds; a zero start
// (disabled tracer) reports zero without reading the clock.
func Since(t0 time.Time) int64 {
	if t0.IsZero() {
		return 0
	}
	return int64(time.Since(t0))
}

// Entry is a trace as it is committed: a RecordTrace with the record path
// still as ints and the events unrendered. Tracer.Commit copies it into a
// ring slot that keeps its storage; Render turns it into the RecordTrace
// readers see. It lists RecordTrace's fields rather than holding one, so
// that a ring slot carries no unused Path string or Events slice.
type Entry struct {
	Index int
	// Path renders into RecordTrace.Path for record traces (Index >= 0)
	// only.
	Path hedge.Path

	Query, RequestID                    string
	SplitNS, EvalNS, DeliverNS, TotalNS int64
	Nodes, Matches                      int
	Outcome, Error                      string

	Events        []RawEvent
	EventsDropped int
}

// Render returns the entry as it is read: the record path in Dewey form
// and the events with their text.
func (e *Entry) Render() RecordTrace {
	rt := RecordTrace{Index: e.Index, Query: e.Query, RequestID: e.RequestID,
		SplitNS: e.SplitNS, EvalNS: e.EvalNS, DeliverNS: e.DeliverNS, TotalNS: e.TotalNS,
		Nodes: e.Nodes, Matches: e.Matches, Outcome: e.Outcome, Error: e.Error,
		EventsDropped: e.EventsDropped}
	if e.Index >= 0 {
		rt.Path = e.Path.String()
	}
	if len(e.Events) > 0 {
		rt.Events = make([]Event, len(e.Events))
		for i, ev := range e.Events {
			rt.Events[i] = ev.Render()
		}
	}
	return rt
}

// store copies src into the ring slot e, reusing e's path and event
// storage: a slot grows to the largest trace it has held, and no further.
func (e *Entry) store(src *Entry) {
	path, events := e.Path[:0], e.Events[:0]
	if cap(events) < len(src.Events) {
		events = make([]RawEvent, 0, len(src.Events))
	}
	*e = *src
	e.Path = append(path, src.Path...)
	e.Events = append(events, src.Events...)
}

// Tracer is a bounded flight recorder: a ring of the last capacity
// record traces. All methods are nil-safe and safe for concurrent use
// (the parallel pipeline's collector commits while observers read).
type Tracer struct {
	mu sync.Mutex
	// ring's slots own their Path and Events storage, past len too: a
	// Reset ring refills the slots it had.
	ring  []Entry
	next  int
	total int64
}

// New returns a Tracer retaining the last capacity traces. A capacity
// <= 0 disables retention: Commit still counts records (and the caller
// may still route slow ones), but Traces returns nothing.
func New(capacity int) *Tracer {
	t := &Tracer{}
	if capacity > 0 {
		t.ring = make([]Entry, 0, capacity)
	}
	return t
}

// Commit copies one trace into the ring, evicting the oldest when the
// ring is full; e stays the caller's. Nil-safe: a nil Tracer drops the
// trace.
func (t *Tracer) Commit(e *Entry) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.total++
	if n := cap(t.ring); n > 0 {
		var slot *Entry
		if len(t.ring) < n {
			t.ring = t.ring[:len(t.ring)+1]
			slot = &t.ring[len(t.ring)-1]
		} else {
			slot = &t.ring[t.next]
			t.next = (t.next + 1) % n
		}
		slot.store(e)
	}
	t.mu.Unlock()
}

// Total returns the number of traces ever committed (retained or not).
func (t *Tracer) Total() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Traces renders the retained traces, oldest first, into a fresh slice;
// a nil Tracer returns nil.
func (t *Tracer) Traces() []RecordTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]RecordTrace, 0, len(t.ring))
	oldest := 0
	if len(t.ring) == cap(t.ring) {
		oldest = t.next
	}
	for i := range t.ring {
		out = append(out, t.ring[(oldest+i)%len(t.ring)].Render())
	}
	return out
}

// Reset drops the retained traces and zeroes the commit count, keeping
// the capacity.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ring = t.ring[:0]
	t.next = 0
	t.total = 0
	t.mu.Unlock()
}

// WriteJSON encodes the retained traces (oldest first) as indented
// JSON followed by a newline.
func (t *Tracer) WriteJSON(w io.Writer) error {
	traces := t.Traces()
	if traces == nil {
		traces = []RecordTrace{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(traces)
}

// Kind names what a RawEvent records; it fixes the event's name and the
// template its detail renders from.
type Kind uint8

// The splitter's event kinds. Each lists the RawEvent fields its detail
// reads.
const (
	// EvRecord is a record boundary: Record, Name (the root's label) and
	// Off (the byte offset of its start tag).
	EvRecord Kind = iota + 1
	// EvSkim is a token skim past an over-limit record: Record and N
	// (the open elements left to close).
	EvSkim
	// EvResync is the start of a raw scan past broken markup: Record,
	// Name (the split name) and Off (where the scan starts).
	EvResync
	// EvResyncHit is a record start the raw scan found: Off.
	EvResyncHit
	// EvTruncated is input that ended inside a record: Record.
	EvTruncated
	// EvPrefilter is a record the prefilter skipped: Record, Off (its
	// start) and N (its size in bytes).
	EvPrefilter
)

// RawEvent is an Event as a lower layer emits it: a kind and integer
// fields, whose name and detail text render only when the trace is read.
// Name is a string the emitter already holds (an interned label, the split
// name), so emitting allocates nothing.
type RawEvent struct {
	At     int64
	Record int
	Off    int64
	N      int64
	Name   string
	Kind   Kind
}

// Render returns the event's name and detail text.
func (e RawEvent) Render() Event {
	ev := Event{At: e.At}
	switch e.Kind {
	case EvRecord:
		ev.Name, ev.Detail = "record", fmt.Sprintf("record %d <%s> at byte %d", e.Record, e.Name, e.Off)
	case EvSkim:
		ev.Name, ev.Detail = "skim", fmt.Sprintf("record %d: skimming %d open element(s)", e.Record, e.N)
	case EvResync:
		ev.Name, ev.Detail = "resync", fmt.Sprintf("record %d: raw scan for <%s from byte %d", e.Record, e.Name, e.Off)
	case EvResyncHit:
		ev.Name, ev.Detail = "resync_hit", fmt.Sprintf("record start candidate at byte %d", e.Off)
	case EvTruncated:
		ev.Name, ev.Detail = "truncated", fmt.Sprintf("record %d: input truncated, stream ends", e.Record)
	case EvPrefilter:
		ev.Name, ev.Detail = "prefilter", fmt.Sprintf("record %d skipped by prefilter at byte %d (%d bytes)", e.Record, e.Off, e.N)
	}
	return ev
}

// MaxEvents bounds the events one trace holds. A run over many skipped
// records emits one event per skip before the next kept record takes
// them, so without the bound a sink would hold heap in proportion to the
// records.
const MaxEvents = 64

// EventSink collects point events emitted by a lower layer between
// drains. The splitter owns one per run — single-goroutine, like the
// reader itself — and the pipeline drains it into each record's trace,
// so recovery events land on the record whose production caused them.
// The sink keeps the newest MaxEvents events and counts the older ones it
// drops. Emit and Drain are nil-safe: a detached splitter pays one
// pointer test per would-be event.
type EventSink struct {
	t0 time.Time
	// events grows to MaxEvents and is then a ring whose oldest event is
	// at head; Drain keeps its storage.
	events  []RawEvent
	head    int
	dropped int
}

// NewEventSink returns an empty sink; event offsets count from now.
func NewEventSink() *EventSink { return &EventSink{t0: time.Now()} }

// Reset empties the sink, keeping its buffer, and restarts its clock, so
// a recycled sink serves a new run as a fresh one would.
func (s *EventSink) Reset() {
	s.t0 = time.Now()
	s.events, s.head, s.dropped = s.events[:0], 0, 0
}

// Emit stamps e with the time since the sink was created and collects
// it, overwriting the oldest event when the sink is full. Nil-safe.
func (s *EventSink) Emit(e RawEvent) {
	if s == nil {
		return
	}
	e.At = int64(time.Since(s.t0))
	if len(s.events) < MaxEvents {
		s.events = append(s.events, e)
		return
	}
	s.events[s.head] = e
	s.head = (s.head + 1) % MaxEvents
	s.dropped++
}

// Enabled reports whether events are being collected.
func (s *EventSink) Enabled() bool { return s != nil }

// Drain appends the collected events to dst, oldest first, and empties
// the sink, keeping its buffer. It returns the extended dst and the
// number of events dropped since the last drain. Nil-safe.
func (s *EventSink) Drain(dst []RawEvent) ([]RawEvent, int) {
	if s == nil {
		return dst, 0
	}
	dst = append(append(dst, s.events[s.head:]...), s.events[:s.head]...)
	dropped := s.dropped
	s.events, s.head, s.dropped = s.events[:0], 0, 0
	return dst, dropped
}
