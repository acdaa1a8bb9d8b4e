package stream

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"xpe/internal/core"
	"xpe/internal/ha"
	"xpe/internal/metrics"
	"xpe/internal/trace"
	"xpe/internal/xmlhedge"
)

func compile(t testing.TB, names *ha.Names, src string) *core.CompiledQuery {
	t.Helper()
	q, err := core.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	cq, err := core.CompileQuery(q, names)
	if err != nil {
		t.Fatal(err)
	}
	return cq
}

// feed builds a multi-record document: entries holding a/b children where
// every third entry has the b-after-a shape the test query locates.
func feed(n int) string {
	var b strings.Builder
	b.WriteString("<feed>")
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			b.WriteString("<entry><a/><b/></entry>")
		} else {
			b.WriteString("<entry><b/><a/></entry>")
		}
	}
	b.WriteString("</feed>")
	return b.String()
}

// collectRun streams input and renders each delivered match as
// "recordIndex:path" for comparison.
func collectRun(t *testing.T, input string, cq *core.CompiledQuery, cfg Config) ([]string, Stats) {
	t.Helper()
	var got []string
	stats, err := Run(context.Background(), strings.NewReader(input), cq, cfg,
		func(r *Result) error {
			for _, m := range r.Matches {
				got = append(got, fmt.Sprintf("%d:%s:%s", r.Index, m.Path, m.Node.Name))
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return got, stats
}

func TestRunMatchesInMemorySelect(t *testing.T) {
	const n = 50
	input := feed(n)
	names := ha.NewNames()
	// "a immediately followed by b, directly under the entry root".
	cq := compile(t, names, "[* ; a ; b .] entry")

	// Reference: per-record in-memory evaluation.
	var want []string
	whole := xmlhedge.MustParseString(input)
	for i, rec := range whole[0].Children {
		res := cq.Select(append(whole[:0:0], rec))
		for _, p := range res.Paths {
			want = append(want, fmt.Sprintf("%d:%s:%s", i, p, whole[0].Children[i].Children[p[1]].Name))
		}
	}

	for _, workers := range []int{1, 4} {
		got, stats := collectRun(t, input, cq, Config{Workers: workers})
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d matches, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: match %d = %s, want %s", workers, i, got[i], want[i])
			}
		}
		if stats.Records != n {
			t.Errorf("workers=%d: records = %d, want %d", workers, stats.Records, n)
		}
		if stats.Matches != int64(len(want)) {
			t.Errorf("workers=%d: matches = %d, want %d", workers, stats.Matches, len(want))
		}
		if stats.Bytes == 0 || stats.Nodes != int64(3*n) {
			t.Errorf("workers=%d: stats = %+v", workers, stats)
		}
	}
}

func TestRunDeliversInOrder(t *testing.T) {
	const n = 200
	input := feed(n)
	names := ha.NewNames()
	cq := compile(t, names, "[* ; a ; b .] entry")
	next := 0
	_, err := Run(context.Background(), strings.NewReader(input), cq, Config{Workers: 8},
		func(r *Result) error {
			if r.Index != next {
				t.Fatalf("record %d delivered, want %d", r.Index, next)
			}
			next++
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if next != n {
		t.Fatalf("delivered %d records, want %d", next, n)
	}
}

func TestRunErrStop(t *testing.T) {
	input := feed(30)
	names := ha.NewNames()
	cq := compile(t, names, "[* ; a ; b .] entry")
	for _, workers := range []int{1, 4} {
		seen := 0
		stats, err := Run(context.Background(), strings.NewReader(input), cq, Config{Workers: workers},
			func(r *Result) error {
				seen++
				if seen == 5 {
					return ErrStop
				}
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if seen != 5 || stats.Records != 5 {
			t.Fatalf("workers=%d: seen=%d records=%d, want 5", workers, seen, stats.Records)
		}
	}
}

func TestRunCancellation(t *testing.T) {
	input := feed(100)
	names := ha.NewNames()
	cq := compile(t, names, "[* ; a ; b .] entry")
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		delivered := 0
		_, err := Run(ctx, strings.NewReader(input), cq, Config{Workers: workers},
			func(r *Result) error {
				delivered++
				if delivered == 3 {
					cancel()
				}
				return nil
			})
		cancel()
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

func TestRunYieldError(t *testing.T) {
	input := feed(20)
	names := ha.NewNames()
	cq := compile(t, names, "[* ; a ; b .] entry")
	boom := fmt.Errorf("boom")
	for _, workers := range []int{1, 4} {
		_, err := Run(context.Background(), strings.NewReader(input), cq, Config{Workers: workers},
			func(r *Result) error { return boom })
		if err != boom {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
	}
}

func TestRunExplainWitness(t *testing.T) {
	// Explain mode locates exactly what plain evaluation does, with each
	// match carrying a witness whose path agrees with the match and whose
	// levels walk the located node's spine.
	input := feed(30)
	names := ha.NewNames()
	cq := compile(t, names, "[* ; a ; b .] entry")
	plain, _ := collectRun(t, input, cq, Config{Workers: 1})
	for _, workers := range []int{1, 4} {
		var got []string
		_, err := Run(context.Background(), strings.NewReader(input), cq,
			Config{Workers: workers, Explain: true},
			func(r *Result) error {
				for _, m := range r.Matches {
					if m.Witness == nil {
						t.Fatalf("workers=%d: record %d match %s has no witness", workers, r.Index, m.Path)
					}
					if m.Witness.Path.String() != m.Path.String() {
						t.Fatalf("workers=%d: witness path %s, match path %s", workers, m.Witness.Path, m.Path)
					}
					if len(m.Witness.Levels) != len(m.Path) {
						t.Fatalf("workers=%d: witness has %d levels for path %s",
							workers, len(m.Witness.Levels), m.Path)
					}
					got = append(got, fmt.Sprintf("%d:%s:%s", r.Index, m.Path, m.Node.Name))
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(plain) {
			t.Fatalf("workers=%d: explain located %d, plain located %d", workers, len(got), len(plain))
		}
		for i := range got {
			if got[i] != plain[i] {
				t.Fatalf("workers=%d: explain match %d = %s, plain = %s", workers, i, got[i], plain[i])
			}
		}
	}
}

func TestRunLimitAborts(t *testing.T) {
	input := feed(20)
	names := ha.NewNames()
	cq := compile(t, names, "[* ; a ; b .] entry")
	_, err := Run(context.Background(), strings.NewReader(input), cq,
		Config{Workers: 4, MaxRecordNodes: 2},
		func(r *Result) error { return nil })
	if _, ok := err.(*xmlhedge.LimitError); !ok {
		t.Fatalf("err = %v, want *xmlhedge.LimitError", err)
	}
}

// TestRunAllocsFlatInRecords pins that a single-worker run allocates
// nothing per record: the count per run is the same at N, 4N and 16N
// records, with and without the prefilter skim, a record timeout, a
// metrics sink and a flight recorder (whose warm ring commits without
// allocating).
func TestRunAllocsFlatInRecords(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool items at random, perturbing AllocsPerRun")
	}
	cq := compile(t, ha.NewNames(), "[* ; a ; b .] (entry|feed)*")
	// A collection mid-measurement would empty the arena pools and charge
	// their refill to whichever run it hit.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	inputs := []string{feed(100), feed(400), feed(1600)}
	for _, skim := range []bool{false, true} {
		for _, timeout := range []time.Duration{0, time.Hour} {
			for _, sunk := range []bool{false, true} {
				for _, traced := range []bool{false, true} {
					cfg := Config{Workers: 1, Prefilter: PrefilterOff, RecordTimeout: timeout}
					if skim {
						cfg.Prefilter = PrefilterAuto
					}
					if sunk {
						cfg.Metrics = &metrics.Metrics{}
					}
					if traced {
						cfg.Trace = trace.New(16)
					}
					var got []float64
					for _, input := range inputs {
						run := func() {
							if _, err := Run(context.Background(), strings.NewReader(input), cq, cfg,
								func(*Result) error { return nil }); err != nil {
								t.Fatal(err)
							}
						}
						run() // warm arenas, pools, the mirror automaton and the ring
						got = append(got, testing.AllocsPerRun(10, run))
					}
					if got[0] != got[1] || got[1] != got[2] {
						t.Errorf("skim=%v timeout=%v metrics=%v trace=%v: allocs/run at 100, 400, 1600 records = %v, want equal",
							skim, timeout, sunk, traced, got)
					}
				}
			}
		}
	}
}

// TestWarmRunGrowsNoReadBuffer pins the read-buffer reuse: a run hands its
// read buffer on when it ends, so a second run over records of 1,500 nodes
// (about 18 KB each) reads them in the buffer the first one grew, instead
// of growing a fresh one from 4 KB to 32 KB (56 KB of doublings).
func TestWarmRunGrowsNoReadBuffer(t *testing.T) {
	cq := compile(t, ha.NewNames(), "[* ; a ; b .] (entry|feed)*")
	record := "<entry>" + strings.Repeat("<p>some paragraph text</p>", 750) + "</entry>"
	input := "<feed>" + strings.Repeat(record, 4) + "</feed>"
	run := func() {
		if _, err := Run(context.Background(), strings.NewReader(input), cq, Config{Workers: 1},
			func(*Result) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	run() // grows the buffer, and warms the arena and the pools
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<10 {
		t.Fatalf("second run over 1,500-node records allocated %d B, want under 8 KB (no read-buffer growth)", got)
	}
}

// eofProbe calls atEOF once, when the reader it wraps first reports
// io.EOF: the moment the splitter has read the whole input.
type eofProbe struct {
	r     io.Reader
	atEOF func()
}

func (p *eofProbe) Read(b []byte) (int, error) {
	n, err := p.r.Read(b)
	if err == io.EOF && p.atEOF != nil {
		p.atEOF()
		p.atEOF = nil
	}
	return n, err
}

// TestTracedRunHeapFlatInSkippedRecords pins the events cap: with tracing
// on, a run whose every record the prefilter skips holds the same live
// heap when its input ends, at 1k and at 16k records. Each skip emits an
// event that waits in the sink for the next kept record, so without the
// cap the sink grew with the records; stream promises O(largest record).
func TestTracedRunHeapFlatInSkippedRecords(t *testing.T) {
	cq := compile(t, ha.NewNames(), "[* ; a ; b .] (entry|feed)*")
	liveAtEOF := func(records int) int64 {
		input := "<feed>" + strings.Repeat("<entry><c/></entry>", records) + "</feed>"
		var ms runtime.MemStats
		// Two collections empty the sync.Pool victim caches, which would
		// otherwise count pooled objects the run never takes (an earlier
		// test's batch arenas) in one reading and not the other.
		liveHeap := func() uint64 {
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&ms)
			return ms.HeapAlloc
		}
		base := liveHeap()
		var atEOF uint64
		r := &eofProbe{r: strings.NewReader(input), atEOF: func() { atEOF = liveHeap() }}
		stats, err := Run(context.Background(), r, cq, Config{Workers: 1, Trace: trace.New(32)},
			func(*Result) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if stats.Prefiltered != int64(records) {
			t.Fatalf("%d of %d records prefiltered, want all", stats.Prefiltered, records)
		}
		runtime.KeepAlive(input)
		return int64(atEOF) - int64(base)
	}
	liveAtEOF(1000) // warm pools
	small, large := liveAtEOF(1000), liveAtEOF(16000)
	t.Logf("live heap at EOF over the run's base: %d B at 1k skipped records, %d B at 16k", small, large)
	if large-small > 64<<10 {
		t.Fatalf("live heap at EOF over the run's base: %d B at 1k skipped records, %d B at 16k; want flat",
			small, large)
	}
}
