package xpe

import (
	"context"
	"strings"
	"sync"
	"testing"
)

// streamRender runs SelectStream and renders every match as one line, so
// two runs can be compared byte for byte.
func streamRender(t *testing.T, eng *Engine, q *Query, corpus string, opts SelectOptions) (string, StreamStats) {
	t.Helper()
	var b strings.Builder
	stats, err := eng.SelectStream(context.Background(), strings.NewReader(corpus), q, opts,
		func(m StreamMatch) error {
			b.WriteString(m.RecordPath)
			b.WriteByte('/')
			b.WriteString(m.Path)
			b.WriteByte('\t')
			b.WriteString(m.Term)
			b.WriteByte('\n')
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return b.String(), stats
}

// TestObservabilityDifferential: attaching a MetricsSink (or none — the
// engine registry is always on) must leave SelectStream output and Select
// results byte-identical, sequential and parallel.
func TestObservabilityDifferential(t *testing.T) {
	_, corpus := buildCorpus(t, 6)
	eng := NewEngine()
	doc, err := eng.ParseXMLString(corpus)
	if err != nil {
		t.Fatal(err)
	}
	q, err := eng.CompileQuery("select(figure*; [* ; section ; *] (section|doc)*)")
	if err != nil {
		t.Fatal(err)
	}

	// In-memory Select is always observed via the engine registry; check
	// that evaluation leaves results untouched run over run as counters
	// accumulate.
	first := q.Select(doc)
	second := q.Select(doc)
	if len(first) != len(second) {
		t.Fatalf("Select drifted between observed runs: %d vs %d matches", len(first), len(second))
	}
	for i := range first {
		if first[i].Path != second[i].Path || first[i].Term != second[i].Term {
			t.Errorf("match %d drifted: %+v vs %+v", i, first[i], second[i])
		}
	}

	for _, workers := range []int{1, 4} {
		plain, plainStats := streamRender(t, eng, q, corpus, SelectOptions{Workers: workers})
		sink := NewMetricsSink()
		sunk, sunkStats := streamRender(t, eng, q, corpus, SelectOptions{Workers: workers, Metrics: sink})
		if plain != sunk {
			t.Errorf("workers=%d: stream output differs with a sink attached:\n--- plain ---\n%s--- sink ---\n%s", workers, plain, sunk)
		}
		if plainStats != sunkStats {
			t.Errorf("workers=%d: stream stats differ: %+v vs %+v", workers, plainStats, sunkStats)
		}
		s := sink.Stats()
		if s.Split.Records != sunkStats.Records || s.Split.Bytes != sunkStats.Bytes {
			t.Errorf("workers=%d: sink saw %d records / %d bytes, stats say %d / %d",
				workers, s.Split.Records, s.Split.Bytes, sunkStats.Records, sunkStats.Bytes)
		}
	}
}

// TestEngineStatsMerge: a per-run sink must not hide the run from the
// engine's cumulative Stats — the facade merges the sink delta back.
func TestEngineStatsMerge(t *testing.T) {
	_, corpus := buildCorpus(t, 4)
	eng := NewEngine()
	if _, err := eng.ParseXMLString(corpus); err != nil {
		t.Fatal(err)
	}
	q, err := eng.CompileQuery("figure section* [* ; doc ; *]")
	if err != nil {
		t.Fatal(err)
	}
	before := eng.Stats()
	sink := NewMetricsSink()
	_, stats := streamRender(t, eng, q, corpus, SelectOptions{Workers: 2, Metrics: sink})
	after := eng.Stats()
	delta := after.Sub(before)
	if delta.Split.Records != stats.Records {
		t.Errorf("engine saw %d records through the sink run, want %d", delta.Split.Records, stats.Records)
	}
	if delta.Stream.Runs != 1 {
		t.Errorf("engine saw %d runs, want 1", delta.Stream.Runs)
	}
	if delta.Eval.Docs != stats.Records {
		t.Errorf("engine saw %d evaluated docs, want %d records", delta.Eval.Docs, stats.Records)
	}
	if s := sink.Stats(); s.Eval.Docs != 0 {
		t.Errorf("per-run sink collected %d eval docs; eval counters are engine-level only", s.Eval.Docs)
	}
}

// TestStatsConcurrentReaders hammers Engine.Stats against concurrent
// SelectStream and in-memory Select writers; run under -race this is the
// synchronization proof for the whole metrics path.
func TestStatsConcurrentReaders(t *testing.T) {
	docs, corpus := buildCorpus(t, 6)
	eng := NewEngine()
	if _, err := eng.ParseXMLString(corpus); err != nil {
		t.Fatal(err)
	}
	q, err := eng.CompileQuery("[* ; figure ; table .] (section|doc)*")
	if err != nil {
		t.Fatal(err)
	}

	const iters = 15
	var readers, writers sync.WaitGroup
	stop := make(chan struct{})
	// Readers: snapshot and encode continuously until writers finish.
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := eng.Stats()
				if s.Eval.Docs < 0 || s.Split.Records < 0 {
					t.Error("negative counter in snapshot")
					return
				}
				var b strings.Builder
				if err := WriteStats(&b, s); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Writer: streaming runs.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < iters; i++ {
			_, err := eng.SelectStream(context.Background(), strings.NewReader(corpus), q,
				SelectOptions{Workers: 4}, func(StreamMatch) error { return nil })
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Writers: four in-memory evaluators sharing the compiled query.
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < iters; i++ {
				for _, d := range docs {
					q.Compiled().Select(d)
				}
			}
		}()
	}

	writers.Wait()
	close(stop)
	readers.Wait()

	s := eng.Stats()
	if s.Stream.Runs != iters {
		t.Errorf("runs = %d, want %d", s.Stream.Runs, iters)
	}
	if s.Eval.Docs == 0 || s.Eval.NodesVisited == 0 {
		t.Errorf("eval counters empty after concurrent load: %+v", s.Eval)
	}
}
