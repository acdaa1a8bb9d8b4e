package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"xpe/internal/hedge"
)

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if !tr.Begin().IsZero() {
		t.Fatal("nil tracer Begin should return the zero time")
	}
	if ns := Since(time.Time{}); ns != 0 {
		t.Fatalf("Since(zero) = %d, want 0", ns)
	}
	tr.Commit(&Entry{Index: 1})
	tr.Reset()
	if tr.Total() != 0 || tr.Traces() != nil {
		t.Fatal("nil tracer should record nothing")
	}
}

func TestRingEvictsOldest(t *testing.T) {
	tr := New(3)
	for i := 0; i < 5; i++ {
		tr.Commit(&Entry{Index: i})
	}
	if got := tr.Total(); got != 5 {
		t.Fatalf("Total = %d, want 5", got)
	}
	traces := tr.Traces()
	if len(traces) != 3 {
		t.Fatalf("len(Traces) = %d, want 3", len(traces))
	}
	for i, want := range []int{2, 3, 4} {
		if traces[i].Index != want {
			t.Fatalf("Traces[%d].Index = %d, want %d (oldest first)", i, traces[i].Index, want)
		}
	}
}

func TestZeroCapacityCountsWithoutRetaining(t *testing.T) {
	tr := New(0)
	tr.Commit(&Entry{Index: 7})
	if tr.Total() != 1 {
		t.Fatalf("Total = %d, want 1", tr.Total())
	}
	if got := tr.Traces(); len(got) != 0 {
		t.Fatalf("Traces = %v, want empty", got)
	}
}

func TestReset(t *testing.T) {
	tr := New(2)
	tr.Commit(&Entry{Index: 0})
	tr.Commit(&Entry{Index: 1})
	tr.Commit(&Entry{Index: 2})
	tr.Reset()
	if tr.Total() != 0 || len(tr.Traces()) != 0 {
		t.Fatal("Reset should clear count and ring")
	}
	tr.Commit(&Entry{Index: 9})
	got := tr.Traces()
	if len(got) != 1 || got[0].Index != 9 {
		t.Fatalf("post-Reset Traces = %v, want [record 9]", got)
	}
}

func TestSpanMeasuresElapsed(t *testing.T) {
	tr := New(1)
	t0 := tr.Begin()
	time.Sleep(2 * time.Millisecond)
	if ns := Since(t0); ns < int64(time.Millisecond) {
		t.Fatalf("Since = %dns, want >= 1ms", ns)
	}
}

func TestWriteJSONStableShape(t *testing.T) {
	tr := New(2)
	tr.Commit(&Entry{
		Index: 4, Path: hedge.Path{0, 2}, SplitNS: 100, EvalNS: 200, DeliverNS: 50,
		TotalNS: 350, Nodes: 12, Matches: 2, Outcome: "ok",
		Events: []RawEvent{{At: 10, Kind: EvResync, Record: 3, Name: "entry", Off: 99}},
	})
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"record": 4`, `"path": "1.3"`, `"total_ns": 350`,
		`"outcome": "ok"`, `"name": "resync"`, `"detail": "record 3: raw scan for \u003centry from byte 99"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("JSON missing %s:\n%s", want, out)
		}
	}
	if strings.Contains(out, "events_dropped") {
		t.Fatalf("a trace under the events cap encodes events_dropped:\n%s", out)
	}
	var decoded []RecordTrace
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if len(decoded) != 1 || decoded[0].Matches != 2 {
		t.Fatalf("round trip mismatch: %+v", decoded)
	}
}

func TestWriteJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := New(4).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Fatalf("empty tracer JSON = %q, want []", got)
	}
}

func TestEventSink(t *testing.T) {
	var nilSink *EventSink
	nilSink.Emit(RawEvent{Kind: EvSkim})
	if evs, dropped := nilSink.Drain(nil); evs != nil || dropped != 0 || nilSink.Enabled() {
		t.Fatal("nil sink should collect nothing")
	}
	s := NewEventSink()
	if !s.Enabled() {
		t.Fatal("live sink should report Enabled")
	}
	s.Emit(RawEvent{Kind: EvSkim, Record: 2, N: 3})
	s.Emit(RawEvent{Kind: EvResyncHit, Off: 42})
	evs, dropped := s.Drain(nil)
	if len(evs) != 2 || dropped != 0 || evs[0].Render().Name != "skim" ||
		evs[1].Render().Detail != "record start candidate at byte 42" {
		t.Fatalf("Drain = %+v, %d dropped", evs, dropped)
	}
	if evs[1].At < evs[0].At {
		t.Fatalf("event offsets not monotone: %+v", evs)
	}
	if evs, _ := s.Drain(nil); len(evs) != 0 {
		t.Fatal("second Drain should be empty")
	}
}

// TestEventSinkKeepsNewest pins the events cap: a sink past MaxEvents
// keeps the newest MaxEvents, oldest first, and counts the rest; a warm
// sink emits and drains without allocating.
func TestEventSinkKeepsNewest(t *testing.T) {
	s := NewEventSink()
	const emitted = 3*MaxEvents + 5
	for i := 0; i < emitted; i++ {
		s.Emit(RawEvent{Kind: EvPrefilter, Record: i})
	}
	evs, dropped := s.Drain(nil)
	if len(evs) != MaxEvents || dropped != emitted-MaxEvents {
		t.Fatalf("Drain kept %d, dropped %d; want %d and %d", len(evs), dropped, MaxEvents, emitted-MaxEvents)
	}
	for i, ev := range evs {
		if want := emitted - MaxEvents + i; ev.Record != want {
			t.Fatalf("event %d is record %d, want %d (the newest, oldest first)", i, ev.Record, want)
		}
	}
	if evs, dropped := s.Drain(evs[:0]); len(evs) != 0 || dropped != 0 {
		t.Fatalf("second Drain = %d events, %d dropped; want none", len(evs), dropped)
	}
	for i := 0; i < MaxEvents+1; i++ {
		s.Emit(RawEvent{Kind: EvSkim})
	}
	s.Reset()
	if evs, dropped := s.Drain(nil); len(evs) != 0 || dropped != 0 {
		t.Fatalf("Drain after Reset = %d events, %d dropped; want none", len(evs), dropped)
	}
	buf := evs[:0]
	if allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 2*MaxEvents; i++ {
			s.Emit(RawEvent{Kind: EvRecord, Record: i, Name: "entry"})
		}
		buf, _ = s.Drain(buf[:0])
	}); allocs != 0 {
		t.Fatalf("warm sink allocates %v per fill and drain, want 0", allocs)
	}
}

// TestRawEventRender pins every kind's name and detail text: the format
// each splitter event was written with when it was rendered at emission.
func TestRawEventRender(t *testing.T) {
	for _, tc := range []struct {
		ev           RawEvent
		name, detail string
	}{
		{RawEvent{Kind: EvRecord, Record: 7, Name: "entry", Off: 1234},
			"record", fmt.Sprintf("record %d <%s> at byte %d", 7, "entry", 1234)},
		{RawEvent{Kind: EvSkim, Record: 2, N: 3},
			"skim", fmt.Sprintf("record %d: skimming %d open element(s)", 2, 3)},
		{RawEvent{Kind: EvResync, Record: 2, Name: "entry", Off: 88},
			"resync", fmt.Sprintf("record %d: raw scan for <%s from byte %d", 2, "entry", 88)},
		{RawEvent{Kind: EvResyncHit, Off: 91},
			"resync_hit", fmt.Sprintf("record start candidate at byte %d", 91)},
		{RawEvent{Kind: EvTruncated, Record: 9},
			"truncated", fmt.Sprintf("record %d: input truncated, stream ends", 9)},
		{RawEvent{Kind: EvPrefilter, Record: 4, Off: 500, N: 61},
			"prefilter", fmt.Sprintf("record %d skipped by prefilter at byte %d (%d bytes)", 4, 500, 61)},
	} {
		tc.ev.At = 17
		got := tc.ev.Render()
		if got != (Event{At: 17, Name: tc.name, Detail: tc.detail}) {
			t.Errorf("Render(%+v) = %+v, want %s %q", tc.ev, got, tc.name, tc.detail)
		}
	}
}

// TestCommitReusesSlots pins that a warm ring commits without allocating,
// and that a slot's reused storage never leaks an earlier trace's path or
// events into a later one.
func TestCommitReusesSlots(t *testing.T) {
	tr := New(4)
	long := &Entry{Index: 1, Path: hedge.Path{0, 1, 2, 3}, EventsDropped: 5,
		Events: []RawEvent{{Kind: EvSkim, Record: 0, N: 1}, {Kind: EvRecord, Record: 1, Name: "e", Off: 9}}}
	short := &Entry{Index: 2, Path: hedge.Path{4}}
	for i := 0; i < 4; i++ {
		tr.Commit(long)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		tr.Commit(long)
		tr.Commit(short)
	}); allocs != 0 {
		t.Fatalf("warm ring allocates %v per two commits, want 0", allocs)
	}
	for _, rt := range tr.Traces() {
		switch rt.Index {
		case 1:
			if rt.Path != "1.2.3.4" || len(rt.Events) != 2 || rt.EventsDropped != 5 {
				t.Fatalf("long trace rendered as %+v", rt)
			}
		case 2:
			if rt.Path != "5" || rt.Events != nil || rt.EventsDropped != 0 {
				t.Fatalf("short trace rendered as %+v: a reused slot leaked", rt)
			}
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"events_dropped": 5`) {
		t.Fatalf("JSON lacks the dropped-events count:\n%s", buf.String())
	}
	tr.Commit(&Entry{Index: -1, Query: "q"})
	if doc := tr.Traces(); doc[len(doc)-1].Path != "" {
		t.Fatalf("document trace rendered path %q, want none", doc[len(doc)-1].Path)
	}
}

func TestConcurrentCommitAndRead(t *testing.T) {
	tr := New(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine commits from its own entry, with a path and
			// events of varying length, so slots reuse storage under
			// concurrent reads.
			e := &Entry{Outcome: "ok", Path: hedge.Path{g, 0, 0}}
			for i := 0; i < 200; i++ {
				e.Index = g*1000 + i
				e.Path = e.Path[:1+i%3]
				e.Events = e.Events[:0]
				if i%2 == 0 {
					e.Events = append(e.Events, RawEvent{Kind: EvPrefilter, Record: e.Index - 1})
				}
				e.Events = append(e.Events, RawEvent{Kind: EvRecord, Record: e.Index, Name: "entry"})
				tr.Commit(e)
				if i%17 == 0 {
					for _, rt := range tr.Traces() {
						if len(rt.Events) == 0 || rt.Events[len(rt.Events)-1].Detail != fmt.Sprintf("record %d <entry> at byte 0", rt.Index) {
							t.Errorf("trace %d rendered events %+v", rt.Index, rt.Events)
						}
					}
					_ = tr.Total()
				}
			}
		}(g)
	}
	wg.Wait()
	if tr.Total() != 800 {
		t.Fatalf("Total = %d, want 800", tr.Total())
	}
	if got := len(tr.Traces()); got != 8 {
		t.Fatalf("retained %d, want 8", got)
	}
}

func BenchmarkDisabledHooks(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	var sink int64
	for i := 0; i < b.N; i++ {
		t0 := tr.Begin()
		sink += Since(t0)
		if tr != nil {
			tr.Commit(&Entry{})
		}
	}
	if sink != 0 {
		b.Fatal("disabled spans must measure zero")
	}
}

func ExampleTracer() {
	tr := New(2)
	tr.Commit(&Entry{Index: 0, Outcome: "ok", TotalNS: 1200})
	tr.Commit(&Entry{Index: 1, Outcome: "skipped", Error: "boom"})
	for _, rt := range tr.Traces() {
		fmt.Printf("record %d: %s\n", rt.Index, rt.Outcome)
	}
	// Output:
	// record 0: ok
	// record 1: skipped
}
