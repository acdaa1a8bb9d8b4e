// Package metrics is the engine-wide observability substrate: cheap
// atomic counters, monotonic-clock stage timers, fixed-bucket latency
// histograms, and a deterministic JSON snapshot encoding.
//
// The paper's headline claims are complexity bounds — Algorithm 1 locates
// all matches in time linear in the number of nodes (Theorems 3–5) — and
// this package exists to watch those bounds hold in production-shaped
// runs: the evaluation layers (internal/core, internal/xmlhedge,
// internal/stream) accumulate work counts locally in their recycled
// per-run state and flush them here through a single nil-guarded pointer,
// so instrumentation allocates nothing on the hot path and costs almost
// nothing when no sink is attached.
//
// Concurrency: every cell is atomic, so any number of evaluation
// goroutines may flush into a sink while observers snapshot it. Snapshots
// are point-in-time but not cross-field consistent (a reader racing a
// flush may see some of its counters and not others); that is the usual
// monitoring contract.
package metrics

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a cheap atomic event counter.
type Counter struct{ v atomic.Int64 }

// Add adds n to the counter.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic last-value cell (e.g. the worker count of the most
// recent streaming run).
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Timer accumulates the wall time of one pipeline stage across runs.
// Durations come from time.Since, which reads the monotonic clock.
type Timer struct {
	count atomic.Int64
	ns    atomic.Int64
}

// Observe records one timed interval.
func (t *Timer) Observe(d time.Duration) {
	t.count.Add(1)
	t.ns.Add(int64(d))
}

// Add merges pre-aggregated observations (used by snapshot arithmetic).
func (t *Timer) Add(count, ns int64) {
	t.count.Add(count)
	t.ns.Add(ns)
}

// Snapshot returns the current totals.
func (t *Timer) Snapshot() TimerSnapshot {
	return TimerSnapshot{Count: t.count.Load(), TotalNs: t.ns.Load()}
}

// numBuckets is the fixed bucket count of Histogram: bucket i holds
// observations v (in nanoseconds) with v < 2^i and v >= 2^(i-1); bucket 0
// holds sub-nanosecond observations and the last bucket additionally holds
// everything past its bound (2^43 ns is about 2.4 hours).
const numBuckets = 44

// Histogram is a fixed-bucket (powers-of-two nanoseconds) latency
// histogram. The fixed layout keeps Observe allocation-free and the JSON
// snapshot deterministic.
type Histogram struct {
	sum     atomic.Int64
	buckets [numBuckets]atomic.Int64
}

// bucketOf maps a duration in nanoseconds to its bucket index.
func bucketOf(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	idx := bits.Len64(uint64(ns))
	if idx >= numBuckets {
		idx = numBuckets - 1
	}
	return idx
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	h.sum.Add(ns)
	h.buckets[bucketOf(ns)].Add(1)
}

// add merges a pre-aggregated bucket (used by snapshot arithmetic).
func (h *Histogram) add(idx int, n, sumNs int64) {
	if idx < 0 || idx >= numBuckets || n == 0 {
		h.sum.Add(sumNs)
		return
	}
	h.sum.Add(sumNs)
	h.buckets[idx].Add(n)
}

// Snapshot returns the totals plus the non-empty buckets in ascending
// bound order. Count is the sum of the buckets as read, so a snapshot
// taken while other goroutines observe stays cumulative: the total never
// reads below the buckets it covers.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{SumNs: h.sum.Load()}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			s.Count += n
			s.Buckets = append(s.Buckets, newBucket(i, n))
		}
	}
	return s
}
