package stream

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"xpe/internal/core"
	"xpe/internal/faultinject"
	"xpe/internal/ha"
	"xpe/internal/metrics"
	"xpe/internal/trace"
	"xpe/internal/xmlhedge"
)

// chaosQuery locates exactly one node per healthy faultinject feed record
// (see faultinject.FeedSpec).
func chaosQuery(t testing.TB) *core.CompiledQuery {
	t.Helper()
	return compile(t, ha.NewNames(), "[* ; a ; b .] rec")
}

// runSkip runs the stream with a skip-all policy, returning the delivered
// record indices, the per-failure RecordErrors (in policy order), and the
// stats. It fails the test on any terminal error.
func runSkip(t *testing.T, spec faultinject.FeedSpec, cfg Config, inject Injector) ([]int, []*RecordError, Stats) {
	t.Helper()
	cq := chaosQuery(t)
	cfg.Split = spec.SplitName()
	cfg.Inject = inject
	var fails []*RecordError
	cfg.OnRecordError = func(e *RecordError) error {
		fails = append(fails, e)
		return nil
	}
	var delivered []int
	stats, err := Run(context.Background(), spec.Reader(), cq, cfg, func(r *Result) error {
		if len(r.Matches) != 1 {
			t.Errorf("record %d delivered %d matches, want 1", r.Index, len(r.Matches))
		}
		delivered = append(delivered, r.Index)
		return nil
	})
	if err != nil {
		t.Fatalf("terminal error: %v", err)
	}
	return delivered, fails, stats
}

// wantIDs asserts got equals want exactly (order included).
func wantIDs(t *testing.T, what string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s = %v, want %v", what, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s = %v, want %v", what, got, want)
		}
	}
}

func TestChaosSkipMalformed(t *testing.T) {
	spec := faultinject.FeedSpec{
		Records:   40,
		Malformed: map[int]bool{3: true, 10: true, 22: true},
	}
	for _, workers := range []int{1, 8} {
		delivered, fails, stats := runSkip(t, spec, Config{Workers: workers}, nil)
		wantIDs(t, fmt.Sprintf("workers=%d delivered", workers), delivered, spec.HealthyIDs())
		if len(fails) != 3 || stats.Skipped != 3 {
			t.Fatalf("workers=%d: fails=%d skipped=%d, want 3", workers, len(fails), stats.Skipped)
		}
		// Policy consulted in document order with the right attribution.
		for i, want := range []int{3, 10, 22} {
			if fails[i].Index != want {
				t.Fatalf("workers=%d: failure %d attributed to record %d, want %d", workers, i, fails[i].Index, want)
			}
			var pe *xmlhedge.RecordParseError
			if !errors.As(fails[i].Err, &pe) {
				t.Fatalf("workers=%d: failure cause = %v, want RecordParseError", workers, fails[i].Err)
			}
		}
		if stats.Recovered != 0 {
			t.Fatalf("workers=%d: recovered = %d, want 0", workers, stats.Recovered)
		}
	}
}

func TestChaosSkipPanics(t *testing.T) {
	spec := faultinject.FeedSpec{Records: 30}
	for _, workers := range []int{1, 8} {
		inject := faultinject.NewEvalFaults().PanicOn(2, 7)
		delivered, fails, stats := runSkip(t, spec, Config{Workers: workers}, inject)
		want := []int{}
		for i := 0; i < 30; i++ {
			if i != 2 && i != 7 {
				want = append(want, i)
			}
		}
		wantIDs(t, fmt.Sprintf("workers=%d delivered", workers), delivered, want)
		if stats.Skipped != 2 || stats.Recovered != 2 {
			t.Fatalf("workers=%d: skipped=%d recovered=%d, want 2/2", workers, stats.Skipped, stats.Recovered)
		}
		for _, f := range fails {
			var pe *PanicError
			if !errors.As(f.Err, &pe) {
				t.Fatalf("workers=%d: failure cause = %v, want PanicError", workers, f.Err)
			}
			if len(pe.Stack) == 0 {
				t.Fatalf("workers=%d: panic captured no stack", workers)
			}
		}
	}
}

func TestChaosAbortPanicNilPolicy(t *testing.T) {
	// A panicking record with no policy aborts the run with the typed
	// record error — but the worker goroutine and the Engine survive.
	spec := faultinject.FeedSpec{Records: 20}
	cq := chaosQuery(t)
	for _, workers := range []int{1, 8} {
		inject := faultinject.NewEvalFaults().PanicOn(4)
		_, err := Run(context.Background(), spec.Reader(), cq,
			Config{Workers: workers, Split: spec.SplitName(), Inject: inject},
			func(r *Result) error { return nil })
		var re *RecordError
		if !errors.As(err, &re) || re.Index != 4 {
			t.Fatalf("workers=%d: err = %v, want RecordError for record 4", workers, err)
		}
		var pe *PanicError
		if !errors.As(re.Err, &pe) {
			t.Fatalf("workers=%d: cause = %v, want PanicError", workers, re.Err)
		}
	}
}

func TestChaosSkipLimits(t *testing.T) {
	spec := faultinject.FeedSpec{
		Records:   20,
		Oversized: map[int]int{5: 50, 11: 50},
	}
	for _, workers := range []int{1, 8} {
		delivered, fails, stats := runSkip(t, spec,
			Config{Workers: workers, MaxRecordNodes: 10}, nil)
		wantIDs(t, fmt.Sprintf("workers=%d delivered", workers), delivered, spec.HealthyIDs())
		if stats.Skipped != 2 {
			t.Fatalf("workers=%d: skipped = %d, want 2", workers, stats.Skipped)
		}
		for _, f := range fails {
			var le *xmlhedge.LimitError
			if !errors.As(f.Err, &le) || le.Kind != "nodes" {
				t.Fatalf("workers=%d: failure cause = %v, want nodes LimitError", workers, f.Err)
			}
		}
	}
}

func TestChaosSkipRecordBytes(t *testing.T) {
	spec := faultinject.FeedSpec{
		Records:   12,
		Oversized: map[int]int{6: 100},
	}
	for _, workers := range []int{1, 4} {
		delivered, fails, stats := runSkip(t, spec,
			Config{Workers: workers, MaxRecordBytes: 256}, nil)
		wantIDs(t, fmt.Sprintf("workers=%d delivered", workers), delivered, spec.HealthyIDs())
		if stats.Skipped != 1 || len(fails) != 1 {
			t.Fatalf("workers=%d: skipped=%d, want 1", workers, stats.Skipped)
		}
		var le *xmlhedge.LimitError
		if !errors.As(fails[0].Err, &le) || le.Kind != "bytes" {
			t.Fatalf("workers=%d: failure cause = %v, want bytes LimitError", workers, fails[0].Err)
		}
	}
}

func TestChaosStreamBudgetAbortsDespiteSkip(t *testing.T) {
	spec := faultinject.FeedSpec{Records: 100}
	cq := chaosQuery(t)
	for _, workers := range []int{1, 4} {
		_, err := Run(context.Background(), spec.Reader(), cq,
			Config{
				Workers: workers, Split: spec.SplitName(), MaxStreamBytes: 300,
				OnRecordError: func(*RecordError) error { return nil },
			},
			func(r *Result) error { return nil })
		var le *xmlhedge.LimitError
		if !errors.As(err, &le) || le.Kind != "stream" {
			t.Fatalf("workers=%d: err = %v, want stream LimitError", workers, err)
		}
	}
}

func TestChaosTimeout(t *testing.T) {
	spec := faultinject.FeedSpec{Records: 10}
	for _, workers := range []int{1, 4} {
		inject := faultinject.NewEvalFaults().StallOn(60*time.Millisecond, 3)
		delivered, fails, stats := runSkip(t, spec,
			Config{Workers: workers, RecordTimeout: 10 * time.Millisecond}, inject)
		want := []int{0, 1, 2, 4, 5, 6, 7, 8, 9}
		wantIDs(t, fmt.Sprintf("workers=%d delivered", workers), delivered, want)
		if stats.Skipped != 1 || len(fails) != 1 {
			t.Fatalf("workers=%d: skipped=%d fails=%d, want 1/1", workers, stats.Skipped, len(fails))
		}
		if !errors.Is(fails[0].Err, ErrRecordTimeout) || fails[0].Index != 3 {
			t.Fatalf("workers=%d: failure = %v, want timeout on record 3", workers, fails[0])
		}
		if stats.Recovered != 0 {
			t.Fatalf("workers=%d: recovered = %d, want 0 (timeouts are not panics)", workers, stats.Recovered)
		}
	}
}

func TestChaosReaderShortReads(t *testing.T) {
	// Byte-at-a-time delivery must not change results.
	spec := faultinject.FeedSpec{Records: 15, Malformed: map[int]bool{4: true}}
	cq := chaosQuery(t)
	var delivered []int
	stats, err := Run(context.Background(),
		faultinject.NewReader(spec.Reader(), faultinject.ReaderOptions{ChunkSizes: []int{1, 7}}),
		cq,
		Config{
			Workers: 4, Split: spec.SplitName(),
			OnRecordError: func(*RecordError) error { return nil },
		},
		func(r *Result) error { delivered = append(delivered, r.Index); return nil })
	if err != nil {
		t.Fatal(err)
	}
	wantIDs(t, "delivered", delivered, spec.HealthyIDs())
	if stats.Skipped != 1 {
		t.Fatalf("skipped = %d, want 1", stats.Skipped)
	}
}

func TestChaosReaderFailureBypassesPolicy(t *testing.T) {
	// An I/O error is not a record failure: it aborts even under a skip
	// policy, and the policy is never consulted for it.
	spec := faultinject.FeedSpec{Records: 50}
	cq := chaosQuery(t)
	for _, workers := range []int{1, 4} {
		policyCalls := 0
		_, err := Run(context.Background(),
			faultinject.NewReader(spec.Reader(), faultinject.ReaderOptions{FailAfter: 200}),
			cq,
			Config{
				Workers: workers, Split: spec.SplitName(),
				OnRecordError: func(*RecordError) error { policyCalls++; return nil },
			},
			func(r *Result) error { return nil })
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("workers=%d: err = %v, want ErrInjected", workers, err)
		}
		if policyCalls != 0 {
			t.Fatalf("workers=%d: policy consulted %d times for an I/O error", workers, policyCalls)
		}
	}
}

func TestChaosTruncatedFeed(t *testing.T) {
	spec := faultinject.FeedSpec{Records: 10, Truncated: true}
	for _, workers := range []int{1, 4} {
		delivered, fails, stats := runSkip(t, spec, Config{Workers: workers}, nil)
		wantIDs(t, fmt.Sprintf("workers=%d delivered", workers), delivered, spec.HealthyIDs())
		if stats.Skipped != 1 || len(fails) != 1 {
			t.Fatalf("workers=%d: skipped=%d fails=%d, want 1/1 (the truncated tail)", workers, stats.Skipped, len(fails))
		}
	}
}

func TestChaosMixed(t *testing.T) {
	// Malformed records, a limit violation, forced panics, and a truncated
	// tail, all in one stream: every healthy record's match arrives, in
	// order, with exact failure accounting.
	spec := faultinject.FeedSpec{
		Records:   60,
		Malformed: map[int]bool{7: true, 25: true},
		Oversized: map[int]int{40: 50},
		Truncated: true,
	}
	panicked := []int{13, 31}
	for _, workers := range []int{1, 8} {
		inject := faultinject.NewEvalFaults().PanicOn(panicked...)
		delivered, fails, stats := runSkip(t, spec,
			Config{Workers: workers, MaxRecordNodes: 10}, inject)
		want := []int{}
		for _, id := range spec.HealthyIDs() {
			if id != 13 && id != 31 {
				want = append(want, id)
			}
		}
		wantIDs(t, fmt.Sprintf("workers=%d delivered", workers), delivered, want)
		// 2 malformed + 1 oversized + 2 panicked + 1 truncated tail.
		if stats.Skipped != 6 || len(fails) != 6 {
			t.Fatalf("workers=%d: skipped=%d fails=%d, want 6/6", workers, stats.Skipped, len(fails))
		}
		if stats.Recovered != 2 {
			t.Fatalf("workers=%d: recovered = %d, want 2", workers, stats.Recovered)
		}
		if stats.Records != int64(len(want)) {
			t.Fatalf("workers=%d: records = %d, want %d", workers, stats.Records, len(want))
		}
		// Failures reach the policy in document order.
		for i := 1; i < len(fails); i++ {
			if fails[i].Index <= fails[i-1].Index {
				t.Fatalf("workers=%d: policy order violated: %d then %d", workers, fails[i-1].Index, fails[i].Index)
			}
		}
	}
}

func TestChaosPolicyAbortMidStream(t *testing.T) {
	// A policy that aborts on the second failure: the run ends with the
	// policy's error, after delivering everything before it.
	spec := faultinject.FeedSpec{Records: 30, Malformed: map[int]bool{5: true, 12: true}}
	cq := chaosQuery(t)
	giveUp := errors.New("two strikes")
	for _, workers := range []int{1, 8} {
		seen := 0
		var delivered []int
		_, err := Run(context.Background(), spec.Reader(), cq,
			Config{
				Workers: workers, Split: spec.SplitName(),
				OnRecordError: func(e *RecordError) error {
					if seen++; seen == 2 {
						return giveUp
					}
					return nil
				},
			},
			func(r *Result) error { delivered = append(delivered, r.Index); return nil })
		if !errors.Is(err, giveUp) {
			t.Fatalf("workers=%d: err = %v, want the policy's error", workers, err)
		}
		for _, idx := range delivered {
			if idx > 12 {
				// In-order delivery means nothing past the aborting record
				// was yielded before the abort (the producer may have read
				// ahead, but delivery stops).
				t.Fatalf("workers=%d: record %d delivered after the aborting failure", workers, idx)
			}
		}
	}
}

func TestChaosErrStopWrapped(t *testing.T) {
	// Regression: a wrapped stop sentinel must end the stream cleanly.
	input := feed(30)
	cq := compile(t, ha.NewNames(), "[* ; a ; b .] entry")
	wrapped := fmt.Errorf("done early: %w", ErrStop)
	for _, workers := range []int{1, 4} {
		seen := 0
		stats, err := Run(context.Background(), strings.NewReader(input), cq, Config{Workers: workers},
			func(r *Result) error {
				if seen++; seen == 5 {
					return wrapped
				}
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: err = %v, want nil for wrapped ErrStop", workers, err)
		}
		if stats.Records != 5 {
			t.Fatalf("workers=%d: records = %d, want 5", workers, stats.Records)
		}
	}
}

// traceByIndex groups a run's retained traces by record index, failing
// the test on duplicates: the flight-recorder contract is exactly one
// trace per record that reached an in-order verdict.
func traceByIndex(t *testing.T, tr *trace.Tracer) map[int]trace.RecordTrace {
	t.Helper()
	out := map[int]trace.RecordTrace{}
	for _, rt := range tr.Traces() {
		if _, dup := out[rt.Index]; dup {
			t.Fatalf("record %d committed more than one trace", rt.Index)
		}
		out[rt.Index] = rt
	}
	return out
}

func TestChaosTraceOneVerdictPerRecord(t *testing.T) {
	// Malformed and panicking records under a skip policy: every record —
	// delivered or skipped — appears exactly once in the flight recorder,
	// with the right outcome, a closed (totaled) span set, and an error
	// rendering on the failures.
	spec := faultinject.FeedSpec{
		Records:   20,
		Malformed: map[int]bool{3: true, 9: true},
	}
	skipped := map[int]bool{3: true, 6: true, 9: true}
	for _, workers := range []int{1, 4} {
		tr := trace.New(64)
		inject := faultinject.NewEvalFaults().PanicOn(6)
		_, _, stats := runSkip(t, spec, Config{Workers: workers, Trace: tr}, inject)
		if stats.Skipped != 3 {
			t.Fatalf("workers=%d: skipped = %d, want 3", workers, stats.Skipped)
		}
		if tr.Total() != int64(spec.Records) {
			t.Fatalf("workers=%d: committed %d traces, want %d", workers, tr.Total(), spec.Records)
		}
		byIdx := traceByIndex(t, tr)
		for i := 0; i < spec.Records; i++ {
			rt, ok := byIdx[i]
			if !ok {
				t.Fatalf("workers=%d: record %d has no trace", workers, i)
			}
			if rt.TotalNS != rt.SplitNS+rt.EvalNS+rt.DeliverNS {
				t.Fatalf("workers=%d: record %d spans not totaled: %+v", workers, i, rt)
			}
			if skipped[i] {
				if rt.Outcome != "skipped" || rt.Error == "" {
					t.Fatalf("workers=%d: record %d trace = %+v, want skipped with an error", workers, i, rt)
				}
				continue
			}
			if rt.Outcome != "ok" || rt.Error != "" || rt.Matches != 1 {
				t.Fatalf("workers=%d: record %d trace = %+v, want ok with 1 match", workers, i, rt)
			}
			if rt.SplitNS+rt.EvalNS <= 0 {
				t.Fatalf("workers=%d: record %d delivered with empty spans: %+v", workers, i, rt)
			}
		}
	}
}

func TestChaosTraceTimedOutCounted(t *testing.T) {
	// A timed-out record is counted separately from generic skips — in
	// Stats, in the metrics counter, and as a skipped trace whose error
	// names the timeout.
	spec := faultinject.FeedSpec{Records: 10}
	for _, workers := range []int{1, 4} {
		tr := trace.New(16)
		var m metrics.Metrics
		inject := faultinject.NewEvalFaults().StallOn(60*time.Millisecond, 3)
		_, fails, stats := runSkip(t, spec,
			Config{Workers: workers, RecordTimeout: 10 * time.Millisecond, Trace: tr, Metrics: &m}, inject)
		if stats.TimedOut != 1 || stats.Skipped != 1 || len(fails) != 1 {
			t.Fatalf("workers=%d: timedout=%d skipped=%d fails=%d, want 1/1/1",
				workers, stats.TimedOut, stats.Skipped, len(fails))
		}
		if got := m.Stream.RecordsTimedOut.Load(); got != 1 {
			t.Fatalf("workers=%d: metrics records_timed_out = %d, want 1", workers, got)
		}
		rt, ok := traceByIndex(t, tr)[3]
		if !ok {
			t.Fatalf("workers=%d: no trace for the timed-out record", workers)
		}
		if rt.Outcome != "skipped" || !strings.Contains(rt.Error, "timed out") {
			t.Fatalf("workers=%d: timed-out trace = %+v, want skipped with a timeout error", workers, rt)
		}
	}
}

func TestChaosTraceRecoveryEvents(t *testing.T) {
	// Sequential recovery attribution: each delivered record's trace
	// carries its own "record" boundary event, and the splitter's recovery
	// activity for a skipped record lands on the *following* record's
	// trace (the skip verdict commits before Recover runs), with the event
	// detail naming the record it concerns.
	spec := faultinject.FeedSpec{Records: 8, Malformed: map[int]bool{2: true}}
	tr := trace.New(16)
	_, _, stats := runSkip(t, spec, Config{Workers: 1, Trace: tr}, nil)
	if stats.Skipped != 1 {
		t.Fatalf("skipped = %d, want 1", stats.Skipped)
	}
	byIdx := traceByIndex(t, tr)
	for _, id := range spec.HealthyIDs() {
		rt := byIdx[id]
		found := false
		for _, ev := range rt.Events {
			if ev.Name == "record" && strings.Contains(ev.Detail, fmt.Sprintf("record %d ", id)) {
				found = true
			}
		}
		if !found {
			t.Fatalf("record %d trace has no boundary event: %+v", id, rt.Events)
		}
	}
	recovery := false
	for _, ev := range byIdx[3].Events {
		if (ev.Name == "resync" || ev.Name == "resync_hit" || ev.Name == "skim") &&
			strings.Contains(ev.Detail, "record 2") {
			recovery = true
		}
	}
	if !recovery {
		t.Fatalf("record 3 trace carries no recovery event for skipped record 2: %+v", byIdx[3].Events)
	}
	// The skipped record's own trace committed before recovery started.
	for _, ev := range byIdx[2].Events {
		if ev.Name == "resync" || ev.Name == "resync_hit" || ev.Name == "skim" {
			t.Fatalf("recovery event leaked onto the skipped record's own trace: %+v", ev)
		}
	}
}

func TestChaosTraceSlowRecordRouting(t *testing.T) {
	// A 1ns threshold routes every delivered record to OnSlow (tracing
	// works with no ring attached — the slow-record log alone forces span
	// assembly); an unreachable threshold routes none.
	spec := faultinject.FeedSpec{Records: 12}
	for _, workers := range []int{1, 4} {
		var slow []trace.RecordTrace
		cfg := Config{Workers: workers, SlowThreshold: time.Nanosecond,
			OnSlow: func(rt trace.RecordTrace) { slow = append(slow, rt) }}
		_, _, stats := runSkip(t, spec, cfg, nil)
		if int64(len(slow)) != stats.Records {
			t.Fatalf("workers=%d: %d slow records routed, want all %d", workers, len(slow), stats.Records)
		}
		for _, rt := range slow {
			if rt.Outcome != "ok" || rt.TotalNS <= 0 {
				t.Fatalf("workers=%d: slow trace = %+v, want ok with a positive total", workers, rt)
			}
		}
		none := 0
		cfg = Config{Workers: workers, SlowThreshold: time.Hour,
			OnSlow: func(trace.RecordTrace) { none++ }}
		runSkip(t, spec, cfg, nil)
		if none != 0 {
			t.Fatalf("workers=%d: %d records crossed an hour-long threshold", workers, none)
		}
	}
}

func TestChaosAbortIsRawErrorWithNilPolicy(t *testing.T) {
	// With no policy, a splitter failure surfaces the raw splitter error —
	// the exact pre-policy surface — not a *RecordError wrapper. The trace
	// contract is the same at every worker count: each record before the
	// failure commits an ok trace, and the failed record commits exactly
	// one aborted trace.
	spec := faultinject.FeedSpec{Records: 10, Malformed: map[int]bool{4: true}}
	cq := chaosQuery(t)
	for _, workers := range []int{1, 4} {
		tr := trace.New(16)
		_, err := Run(context.Background(), spec.Reader(), cq,
			Config{Workers: workers, Split: spec.SplitName(), Trace: tr},
			func(r *Result) error { return nil })
		var re *RecordError
		if errors.As(err, &re) {
			t.Fatalf("workers=%d: err = %T, want the raw splitter error", workers, err)
		}
		var pe *xmlhedge.RecordParseError
		if !errors.As(err, &pe) || pe.Index != 4 {
			t.Fatalf("workers=%d: err = %v, want RecordParseError for record 4", workers, err)
		}
		if tr.Total() != 5 {
			t.Fatalf("workers=%d: committed %d traces, want 5", workers, tr.Total())
		}
		byIdx := traceByIndex(t, tr)
		for i := 0; i < 4; i++ {
			if rt := byIdx[i]; rt.Outcome != "ok" || rt.Matches != 1 {
				t.Fatalf("workers=%d: record %d trace = %+v, want ok with 1 match", workers, i, rt)
			}
		}
		if rt := byIdx[4]; rt.Outcome != "aborted" || rt.Error != err.Error() {
			t.Fatalf("workers=%d: record 4 trace = %+v, want aborted with %q", workers, rt, err)
		}
	}
}
