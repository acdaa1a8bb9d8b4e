package metrics

import (
	"encoding/json"
	"io"
	"math"
	"math/bits"
)

// Eval counts Algorithm-1 work in internal/core: one flush per evaluated
// document or record.
type Eval struct {
	// Docs counts evaluations (whole documents, bulk entries, or
	// streamed records).
	Docs Counter
	// Nodes counts nodes visited by the traversals.
	Nodes Counter
	// Marks counts located nodes emitted.
	Marks Counter
	// Transitions counts automaton transitions taken: component membership
	// DFA steps, mirror-automaton steps, and e₁ marking steps. A fleet
	// (core.Fleet) steps a side or e₁ automaton that several of its
	// queries share once per node and counts that step once, so a shared
	// pass counts fewer transitions than its queries run alone; Docs,
	// Nodes and Marks count per query either way.
	Transitions Counter
	// LazyStates counts determinization states materialized on demand by
	// lazily compiled queries (zero under eager compilation); LazyHits
	// counts lazy transition-cache hits, LazyEvictions budget-forced cache
	// flushes.
	LazyStates    Counter
	LazyHits      Counter
	LazyEvictions Counter
}

// Snapshot returns the current totals.
func (e *Eval) Snapshot() EvalSnapshot {
	return EvalSnapshot{
		Docs:          e.Docs.Load(),
		NodesVisited:  e.Nodes.Load(),
		MarksEmitted:  e.Marks.Load(),
		Transitions:   e.Transitions.Load(),
		LazyStates:    e.LazyStates.Load(),
		LazyHits:      e.LazyHits.Load(),
		LazyEvictions: e.LazyEvictions.Load(),
	}
}

// Cache counts compiled-query cache traffic in the xpe facade: a hit is a
// generation-mismatched evaluation served an already-recompiled query, a
// miss is one that had to recompile, an eviction is a bounded-capacity
// drop of the least-recently-used entry. Fast-path evaluations (alphabet
// generation unchanged since compile) never touch the cache and are not
// counted.
type Cache struct {
	Hits      Counter
	Misses    Counter
	Evictions Counter
}

// Snapshot returns the current totals.
func (c *Cache) Snapshot() CacheSnapshot {
	return CacheSnapshot{
		Hits:      c.Hits.Load(),
		Misses:    c.Misses.Load(),
		Evictions: c.Evictions.Load(),
	}
}

// Split counts record-splitting work in internal/xmlhedge.
type Split struct {
	// Records counts records successfully split off the input.
	Records Counter
	// Nodes counts nodes across split records.
	Nodes Counter
	// Bytes counts input bytes consumed by the XML decoder.
	Bytes Counter
	// ArenaNodesReused counts nodes served from recycled arena chunks (no
	// allocation); ArenaChunkAllocs counts fresh chunk allocations. A warm
	// pipeline shows reuse approaching one per node and allocs flat.
	ArenaNodesReused Counter
	ArenaChunkAllocs Counter
	// RecordsPrefiltered counts records skipped by the required-label raw
	// byte skim without being parsed (they are not in Records).
	RecordsPrefiltered Counter
}

// Snapshot returns the current totals.
func (s *Split) Snapshot() SplitSnapshot {
	return SplitSnapshot{
		Records:            s.Records.Load(),
		Nodes:              s.Nodes.Load(),
		Bytes:              s.Bytes.Load(),
		ArenaNodesReused:   s.ArenaNodesReused.Load(),
		ArenaChunkAllocs:   s.ArenaChunkAllocs.Load(),
		RecordsPrefiltered: s.RecordsPrefiltered.Load(),
	}
}

// Stream times the stages of internal/stream runs.
type Stream struct {
	// Runs counts streaming runs started.
	Runs Counter
	// Workers is the worker count of the most recent run.
	Workers Gauge
	// RecordsSkipped counts records dropped by a Skip error policy
	// (malformed records, limit violations, evaluation failures).
	RecordsSkipped Counter
	// RecordsTimedOut counts records whose evaluation exceeded the
	// configured RecordTimeout (whether the policy then skipped or
	// aborted) — the timeout slice of the failures RecordsSkipped
	// aggregates.
	RecordsTimedOut Counter
	// PanicsRecovered counts record evaluations that panicked and were
	// converted to errors (whether the policy then skipped or aborted).
	PanicsRecovered Counter
	// SplitTime, EvalTime, and DeliverTime accumulate per-record stage
	// wall time; EvalTime sums across concurrent workers, so it can exceed
	// WallTime.
	SplitTime   Timer
	EvalTime    Timer
	DeliverTime Timer
	// WallTime accumulates whole-run wall time.
	WallTime Timer
	// RecordLatency is the per-record evaluation latency distribution.
	RecordLatency Histogram
}

// Snapshot returns the current totals. WorkerOccupancy is the fraction of
// worker wall time spent evaluating: EvalTime / (WallTime × Workers).
func (s *Stream) Snapshot() StreamSnapshot {
	snap := StreamSnapshot{
		Runs:            s.Runs.Load(),
		Workers:         s.Workers.Load(),
		RecordsSkipped:  s.RecordsSkipped.Load(),
		RecordsTimedOut: s.RecordsTimedOut.Load(),
		PanicsRecovered: s.PanicsRecovered.Load(),
		SplitTime:       s.SplitTime.Snapshot(),
		EvalTime:        s.EvalTime.Snapshot(),
		DeliverTime:     s.DeliverTime.Snapshot(),
		WallTime:        s.WallTime.Snapshot(),
		RecordLatency:   s.RecordLatency.Snapshot(),
	}
	snap.WorkerOccupancy = occupancy(snap.EvalTime.TotalNs, snap.WallTime.TotalNs, snap.Workers)
	return snap
}

// occupancy computes EvalTime / (WallTime × workers), rounded to four
// decimals so snapshots encode stably.
func occupancy(evalNs, wallNs, workers int64) float64 {
	if evalNs <= 0 || wallNs <= 0 || workers <= 0 {
		return 0
	}
	return math.Round(float64(evalNs)/(float64(wallNs)*float64(workers))*1e4) / 1e4
}

// Metrics is the engine-wide registry: one instance aggregates every run
// flushed into it.
type Metrics struct {
	Eval   Eval
	Cache  Cache
	Split  Split
	Stream Stream
}

// Snapshot returns a point-in-time copy of every counter.
func (m *Metrics) Snapshot() Snapshot {
	return Snapshot{Eval: m.Eval.Snapshot(), Cache: m.Cache.Snapshot(), Split: m.Split.Snapshot(), Stream: m.Stream.Snapshot()}
}

// AddSnapshot merges a snapshot (typically a Sub delta of another sink)
// into the registry. The Workers gauge and derived occupancy are
// last-value fields: Workers is overwritten when non-zero.
func (m *Metrics) AddSnapshot(s Snapshot) {
	m.Eval.Docs.Add(s.Eval.Docs)
	m.Eval.Nodes.Add(s.Eval.NodesVisited)
	m.Eval.Marks.Add(s.Eval.MarksEmitted)
	m.Eval.Transitions.Add(s.Eval.Transitions)
	m.Eval.LazyStates.Add(s.Eval.LazyStates)
	m.Eval.LazyHits.Add(s.Eval.LazyHits)
	m.Eval.LazyEvictions.Add(s.Eval.LazyEvictions)

	m.Cache.Hits.Add(s.Cache.Hits)
	m.Cache.Misses.Add(s.Cache.Misses)
	m.Cache.Evictions.Add(s.Cache.Evictions)

	m.Split.Records.Add(s.Split.Records)
	m.Split.Nodes.Add(s.Split.Nodes)
	m.Split.Bytes.Add(s.Split.Bytes)
	m.Split.ArenaNodesReused.Add(s.Split.ArenaNodesReused)
	m.Split.ArenaChunkAllocs.Add(s.Split.ArenaChunkAllocs)
	m.Split.RecordsPrefiltered.Add(s.Split.RecordsPrefiltered)

	m.Stream.Runs.Add(s.Stream.Runs)
	if s.Stream.Workers != 0 {
		m.Stream.Workers.Set(s.Stream.Workers)
	}
	m.Stream.RecordsSkipped.Add(s.Stream.RecordsSkipped)
	m.Stream.RecordsTimedOut.Add(s.Stream.RecordsTimedOut)
	m.Stream.PanicsRecovered.Add(s.Stream.PanicsRecovered)
	m.Stream.SplitTime.Add(s.Stream.SplitTime.Count, s.Stream.SplitTime.TotalNs)
	m.Stream.EvalTime.Add(s.Stream.EvalTime.Count, s.Stream.EvalTime.TotalNs)
	m.Stream.DeliverTime.Add(s.Stream.DeliverTime.Count, s.Stream.DeliverTime.TotalNs)
	m.Stream.WallTime.Add(s.Stream.WallTime.Count, s.Stream.WallTime.TotalNs)
	for _, b := range s.Stream.RecordLatency.Buckets {
		m.Stream.RecordLatency.add(bits.Len64(uint64(b.LeNs))-1, b.Count, 0)
	}
	m.Stream.RecordLatency.add(-1, 0, s.Stream.RecordLatency.SumNs)
}

// TimerSnapshot is the encoded form of a Timer.
type TimerSnapshot struct {
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
}

func (t TimerSnapshot) sub(prev TimerSnapshot) TimerSnapshot {
	return TimerSnapshot{Count: t.Count - prev.Count, TotalNs: t.TotalNs - prev.TotalNs}
}

// Bucket is one non-empty histogram bucket: Count observations below LeNs
// nanoseconds (and at or above the previous bucket's bound). Le is the
// same bound rendered human-readably in the nearest binary unit
// ("le_1ms" for 2^20 ns); LeNs stays the exact machine-readable key, so
// golden files keyed on it keep working.
type Bucket struct {
	LeNs  int64  `json:"le_ns"`
	Le    string `json:"le"`
	Count int64  `json:"count"`
}

// bucketLabel renders bucket index i's bound (2^i ns) as a compact
// human-readable label in the nearest power-of-two unit: le_512ns,
// le_1us, le_1ms, le_1s. The rendering is approximate by design
// (1<<20 ns is 1.05ms) — LeNs carries the exact bound.
func bucketLabel(i int) string {
	switch {
	case i < 10:
		return "le_" + itoa(int64(1)<<uint(i)) + "ns"
	case i < 20:
		return "le_" + itoa(int64(1)<<uint(i-10)) + "us"
	case i < 30:
		return "le_" + itoa(int64(1)<<uint(i-20)) + "ms"
	default:
		return "le_" + itoa(int64(1)<<uint(i-30)) + "s"
	}
}

// itoa avoids importing strconv for one call site.
func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// newBucket builds the snapshot bucket for index i.
func newBucket(i int, count int64) Bucket {
	return Bucket{LeNs: int64(1) << uint(i), Le: bucketLabel(i), Count: count}
}

// HistogramSnapshot is the encoded form of a Histogram.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	SumNs   int64    `json:"sum_ns"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

func (h HistogramSnapshot) expand() [numBuckets]int64 {
	var out [numBuckets]int64
	for _, b := range h.Buckets {
		if idx := bits.Len64(uint64(b.LeNs)) - 1; idx >= 0 && idx < numBuckets {
			out[idx] = b.Count
		}
	}
	return out
}

func (h HistogramSnapshot) sub(prev HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{Count: h.Count - prev.Count, SumNs: h.SumNs - prev.SumNs}
	cur, old := h.expand(), prev.expand()
	for i := range cur {
		if n := cur[i] - old[i]; n != 0 {
			out.Buckets = append(out.Buckets, newBucket(i, n))
		}
	}
	return out
}

// EvalSnapshot is the encoded form of Eval.
type EvalSnapshot struct {
	Docs          int64 `json:"docs"`
	NodesVisited  int64 `json:"nodes_visited"`
	MarksEmitted  int64 `json:"marks_emitted"`
	Transitions   int64 `json:"transitions"`
	LazyStates    int64 `json:"lazy_states_built"`
	LazyHits      int64 `json:"lazy_cache_hits"`
	LazyEvictions int64 `json:"lazy_evictions"`
}

// CacheSnapshot is the encoded form of Cache.
type CacheSnapshot struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// SplitSnapshot is the encoded form of Split.
type SplitSnapshot struct {
	Records            int64 `json:"records"`
	Nodes              int64 `json:"nodes"`
	Bytes              int64 `json:"bytes"`
	ArenaNodesReused   int64 `json:"arena_nodes_reused"`
	ArenaChunkAllocs   int64 `json:"arena_chunk_allocs"`
	RecordsPrefiltered int64 `json:"records_prefiltered"`
}

// StreamSnapshot is the encoded form of Stream.
type StreamSnapshot struct {
	Runs            int64             `json:"runs"`
	Workers         int64             `json:"workers"`
	RecordsSkipped  int64             `json:"records_skipped"`
	RecordsTimedOut int64             `json:"records_timed_out"`
	PanicsRecovered int64             `json:"panics_recovered"`
	SplitTime       TimerSnapshot     `json:"split_time"`
	EvalTime        TimerSnapshot     `json:"eval_time"`
	DeliverTime     TimerSnapshot     `json:"deliver_time"`
	WallTime        TimerSnapshot     `json:"wall_time"`
	RecordLatency   HistogramSnapshot `json:"record_latency"`
	WorkerOccupancy float64           `json:"worker_occupancy"`
}

// Snapshot is a point-in-time copy of a Metrics registry. Field order (and
// therefore the JSON encoding) is fixed, so encoded snapshots are
// deterministic for a given set of counter values.
type Snapshot struct {
	Eval   EvalSnapshot   `json:"eval"`
	Cache  CacheSnapshot  `json:"cache"`
	Split  SplitSnapshot  `json:"split"`
	Stream StreamSnapshot `json:"stream"`
}

// Sub returns the counter-wise difference s − prev: the activity between
// two snapshots of the same registry.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	return Snapshot{
		Eval: EvalSnapshot{
			Docs:          s.Eval.Docs - prev.Eval.Docs,
			NodesVisited:  s.Eval.NodesVisited - prev.Eval.NodesVisited,
			MarksEmitted:  s.Eval.MarksEmitted - prev.Eval.MarksEmitted,
			Transitions:   s.Eval.Transitions - prev.Eval.Transitions,
			LazyStates:    s.Eval.LazyStates - prev.Eval.LazyStates,
			LazyHits:      s.Eval.LazyHits - prev.Eval.LazyHits,
			LazyEvictions: s.Eval.LazyEvictions - prev.Eval.LazyEvictions,
		},
		Cache: CacheSnapshot{
			Hits:      s.Cache.Hits - prev.Cache.Hits,
			Misses:    s.Cache.Misses - prev.Cache.Misses,
			Evictions: s.Cache.Evictions - prev.Cache.Evictions,
		},
		Split: SplitSnapshot{
			Records:            s.Split.Records - prev.Split.Records,
			Nodes:              s.Split.Nodes - prev.Split.Nodes,
			Bytes:              s.Split.Bytes - prev.Split.Bytes,
			ArenaNodesReused:   s.Split.ArenaNodesReused - prev.Split.ArenaNodesReused,
			ArenaChunkAllocs:   s.Split.ArenaChunkAllocs - prev.Split.ArenaChunkAllocs,
			RecordsPrefiltered: s.Split.RecordsPrefiltered - prev.Split.RecordsPrefiltered,
		},
		Stream: StreamSnapshot{
			Runs:            s.Stream.Runs - prev.Stream.Runs,
			Workers:         s.Stream.Workers,
			RecordsSkipped:  s.Stream.RecordsSkipped - prev.Stream.RecordsSkipped,
			RecordsTimedOut: s.Stream.RecordsTimedOut - prev.Stream.RecordsTimedOut,
			PanicsRecovered: s.Stream.PanicsRecovered - prev.Stream.PanicsRecovered,
			SplitTime:       s.Stream.SplitTime.sub(prev.Stream.SplitTime),
			EvalTime:        s.Stream.EvalTime.sub(prev.Stream.EvalTime),
			DeliverTime:     s.Stream.DeliverTime.sub(prev.Stream.DeliverTime),
			WallTime:        s.Stream.WallTime.sub(prev.Stream.WallTime),
			RecordLatency:   s.Stream.RecordLatency.sub(prev.Stream.RecordLatency),
			WorkerOccupancy: occupancy(s.Stream.EvalTime.TotalNs-prev.Stream.EvalTime.TotalNs, s.Stream.WallTime.TotalNs-prev.Stream.WallTime.TotalNs, s.Stream.Workers),
		},
	}
}

// WriteJSON encodes the snapshot as indented JSON followed by a newline.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
