package xpe

import (
	"io"

	"xpe/internal/metrics"
)

// Stats is a point-in-time snapshot of engine instrumentation: evaluation
// counters (documents, nodes visited, marks emitted, automaton transitions
// taken), compiled-query cache counters (hits, misses, evictions — see
// Engine.CompileQuery for the recompile cost model they expose), streaming
// splitter counters (records, nodes, bytes, arena reuse), and streaming
// stage timings (split / eval / deliver, wall time, per-record latency
// histogram, worker occupancy). Snapshots are plain values; encode one
// with WriteJSON for a stable, diff-friendly layout.
type Stats = metrics.Snapshot

// Stats returns a snapshot of the engine's cumulative instrumentation.
// Every query compiled through this engine flushes evaluation counters
// here (one atomic flush per document — the hot path itself carries no
// atomics), and streaming runs without a per-run sink flush their splitter
// and stage metrics here too. Safe to call concurrently with in-flight
// Select / SelectStream work: counters are atomic, so a snapshot taken
// mid-run is a consistent-enough view (each cell is exact; cross-cell skew
// is bounded by one in-flight document).
func (e *Engine) Stats() Stats { return e.metrics.Snapshot() }

// MetricsSink collects per-run streaming metrics. Attach one via
// SelectOptions.Metrics to observe a single SelectStream run in isolation;
// the run's splitter and stage metrics land in the sink, and the engine's
// cumulative Stats still receives them (the facade merges the sink's delta
// back after the run). Evaluation counters (nodes visited, transitions)
// are per-query, not per-run: they flow to the engine registry only.
//
// A sink is reusable across runs (metrics accumulate) and safe for
// concurrent use.
type MetricsSink struct {
	reg metrics.Metrics
}

// NewMetricsSink returns an empty sink.
func NewMetricsSink() *MetricsSink { return &MetricsSink{} }

// Stats returns a snapshot of everything the sink has collected.
func (s *MetricsSink) Stats() Stats { return s.reg.Snapshot() }

// WriteStats encodes a snapshot as indented JSON with a fixed field
// order, suitable for golden files and dashboards.
func WriteStats(w io.Writer, s Stats) error { return s.WriteJSON(w) }
