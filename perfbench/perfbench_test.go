package main

import (
	"bytes"
	"context"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"xpe"
	"xpe/internal/core"
	"xpe/internal/ha"
	"xpe/internal/hedge"
	"xpe/internal/xmlhedge"
)

// briefConfig runs a workload briefly: one short window, two set-ups.
func briefConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 200 * time.Millisecond, trace: trace,
		minSetups: 2, windowOps: 10, spansOut: filepath.Join(t.TempDir(), "spans.ndjson")}
}

var endToEnd = []string{"throughput_mbps", "latency_p50_ms", "latency_p90_ms", "setup_s",
	"alloc_kb_per_op", "live_heap_mb"}

var perLayer = []string{"serve.self_ms", "serve.register_ms", "serve.response_kb", "xpe.self_ms",
	"xpe.compile_ms", "xpe.recompile_ms", "xpe.cache_misses_per_op", "stream.self_ms",
	"xmlhedge.read_ms", "xmlhedge.skim_mbps", "xmlhedge.tokenize_mbps", "xmlhedge.prefiltered_share",
	"core.eval_ms", "core.evals_per_record", "core.useful_eval_share", "core.transitions_per_node",
	"trace.overhead_pct"}

// exactCounts are the per-layer counts that must repeat exactly at one
// seed.
var exactCounts = []string{"xmlhedge.prefiltered_share", "core.evals_per_record",
	"core.useful_eval_share", "core.transitions_per_node", "xpe.cache_misses_per_op",
	"serve.response_kb"}

// runBrief runs one brief benchmark run and fails on a wrong answer, a
// failed op, a missing metric or a goroutine left running.
func runBrief(t *testing.T, cfg config) result {
	t.Helper()
	base := runtime.NumGoroutine()
	res, info, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct %v, %d of %d ops failed: %v", cfg.workload, res.Correct, res.Failed, res.Attempted, info.Errors)
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, want %d", cfg.workload, len(res.Metrics), len(want))
	}
	for _, name := range want {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("%s: metric %s missing", cfg.workload, name)
		}
	}
	if err := waitGoroutines(base, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWorkloadsRunCleanly(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res := runBrief(t, briefConfig(t, name, false))
			for _, m := range endToEnd {
				if res.Metrics[m].Value <= 0 {
					t.Errorf("%s = %v, want > 0", m, res.Metrics[m].Value)
				}
			}
		})
	}
}

// TestTracedCountsRepeat runs the traced mode twice at one seed: the exact
// counts must agree to the last digit, and they must show the property
// each workload was chosen for.
func TestTracedCountsRepeat(t *testing.T) {
	want := map[string]map[string]float64{
		selectiveName: {"xmlhedge.prefiltered_share": 0.75, "core.evals_per_record": 1,
			"core.useful_eval_share": 1, "xpe.cache_misses_per_op": 0},
		denseName: {"xmlhedge.prefiltered_share": 0, "core.evals_per_record": 64,
			"xpe.cache_misses_per_op": 0},
		churnName: {"xmlhedge.prefiltered_share": 0.75, "core.evals_per_record": 1,
			"core.useful_eval_share": 1, "xpe.cache_misses_per_op": 9},
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a := runBrief(t, briefConfig(t, name, true))
			b := runBrief(t, briefConfig(t, name, true))
			for _, m := range exactCounts {
				if a.Metrics[m].Value != b.Metrics[m].Value {
					t.Errorf("%s: %v then %v at one seed", m, a.Metrics[m].Value, b.Metrics[m].Value)
				}
			}
			for m, v := range want[name] {
				if got := a.Metrics[m].Value; got != v {
					t.Errorf("%s = %v, want %v", m, got, v)
				}
			}
		})
	}
}

// TestGeneratorsKeepTheirProperty checks, over several seeds, the
// property each workload was chosen for: 1 record in 4 is topical, every
// dense record has its full size and carries every label the dense queries
// require, and each churn op names a label the feed never uses. The seed
// must change the content.
func TestGeneratorsKeepTheirProperty(t *testing.T) {
	bodies := map[string]bool{}
	for seed := int64(1); seed <= 5; seed++ {
		for _, name := range workloadNames {
			w, err := newWorkload(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			bodies[string(w.body)] = true
			h, err := xmlhedge.ParseString(string(w.body), xmlhedge.Options{})
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			recs := h[0].Children
			if len(recs) != w.records {
				t.Fatalf("%s seed %d: %d records, want %d", name, seed, len(recs), w.records)
			}
			switch name {
			case denseName:
				for i, r := range recs {
					labels := map[string]bool{}
					size := 0
					walk(r, func(n *hedge.Node) { size++; labels[n.Name] = true })
					if size != 1500 {
						t.Errorf("seed %d record %d: %d nodes, want 1500", seed, i, size)
					}
					for _, l := range []string{"doc", "section", "figure", "table", "para"} {
						if !labels[l] {
							t.Errorf("seed %d record %d lacks %s", seed, i, l)
						}
					}
				}
			default:
				if len(w.expected) != w.records/4 {
					t.Errorf("%s seed %d: %d topical records, want %d", name, seed, len(w.expected), w.records/4)
				}
				for i, m := range w.expected {
					if m.Record/4 != i {
						t.Errorf("%s seed %d: block %d's topical record is %d", name, seed, i, m.Record)
					}
				}
			}
			if w.churn {
				seen := map[string]bool{}
				for i := 0; i < w.episodeOps; i++ {
					l := freshLabel(w.prefix, i)
					if seen[l] || bytes.Contains(w.body, []byte("<"+l)) {
						t.Fatalf("seed %d: churn label %s is not fresh", seed, l)
					}
					seen[l] = true
				}
			}
		}
	}
	if len(bodies) != 5*len(workloadNames) {
		t.Errorf("%d distinct bodies over 5 seeds and %d workloads", len(bodies), len(workloadNames))
	}
}

func walk(n *hedge.Node, f func(*hedge.Node)) {
	f(n)
	for _, c := range n.Children {
		walk(c, f)
	}
}

// TestOracleMatchesDefinition checks the dense reference oracle (each query
// alone, unfiltered, through Engine.SelectStream) against the definitional
// core.SelectNaive on a small record. The naive evaluation is too slow for
// a full-size record.
func TestOracleMatchesDefinition(t *testing.T) {
	rec := docbookFeed(rand.New(rand.NewSource(3)), 1, 60)
	eng := xpe.NewEngine()
	names := ha.NewNames()
	var qs []*xpe.Query
	var parsed []*core.Query
	for _, src := range denseQueries() {
		q, err := eng.CompileQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
		p, err := core.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		core.PreinternQuery(p, names)
		parsed = append(parsed, p)
	}
	h, err := xmlhedge.ParseString(strings.TrimSuffix(strings.TrimPrefix(string(rec), "<corpus>"), "</corpus>"),
		xmlhedge.Options{})
	if err != nil {
		t.Fatal(err)
	}
	useful := 0
	for i, q := range qs {
		var got []string
		opts := xpe.SelectOptions{Workers: 1, SplitElement: "doc", Prefilter: xpe.PrefilterOff}
		if _, err := eng.SelectStream(context.Background(), bytes.NewReader(rec), q, opts,
			func(m xpe.StreamMatch) error { got = append(got, m.Path); return nil }); err != nil {
			t.Fatal(err)
		}
		located, err := core.SelectNaive(parsed[i], names, h)
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		var visit func(h hedge.Hedge, prefix hedge.Path)
		visit = func(h hedge.Hedge, prefix hedge.Path) {
			for k, n := range h {
				p := append(append(hedge.Path(nil), prefix...), k)
				if located[n] {
					want = append(want, p.String())
				}
				visit(n.Children, p)
			}
		}
		visit(h, nil)
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s: oracle located %v, definition %v", q, got, want)
		}
		if len(want) > 0 {
			useful++
		}
	}
	if useful == 0 || useful == len(qs) {
		t.Errorf("%d of %d queries locate a node in the small record", useful, len(qs))
	}
}

// TestVerifyRejectsWrongAnswers checks that the reference check catches a
// changed line and a missing summary.
func TestVerifyRejectsWrongAnswers(t *testing.T) {
	w, err := newWorkload(selectiveName, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := setUp(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer in.stop()
	body := in.rec.body.Bytes()
	if _, err := verify(w, in.rec.status, body); err != nil {
		t.Fatalf("served answer rejected: %v", err)
	}
	changed := bytes.Replace(body, []byte(`"term":"figure"`), []byte(`"term":"table"`), 1)
	if _, err := verify(w, in.rec.status, changed); err == nil {
		t.Error("a changed match line passed")
	}
	lines := bytes.SplitAfter(body, []byte("\n"))
	truncated := bytes.Join(lines[:len(lines)-2], nil)
	if _, err := verify(w, in.rec.status, truncated); err == nil {
		t.Error("an answer without its summary passed")
	}
	if _, err := verify(w, 429, body); err == nil {
		t.Error("status 429 passed")
	}
}
