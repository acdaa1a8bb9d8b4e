// Command xpebench regenerates the reproduction's experiment tables (see
// DESIGN.md §3 and EXPERIMENTS.md): one table per complexity claim or
// construction of the paper.
//
// Usage:
//
//	xpebench [-experiment all|E1|E2|...] [-quick]
//	xpebench -bench-json [-quick] [-out BENCH_core.json]
//	xpebench -assert-baseline BENCH_core.json [-baseline-max-drop 10]
//	xpebench -record-history BENCH_history.ndjson [-seeds 42,123,456]
//	xpebench -assert-history BENCH_history.ndjson [-history-max-drop 10]
//	xpebench -assert-telemetry-overhead 1 [-quick]
//
// With -bench-json the experiment tables are skipped; instead the
// perf-regression workloads run (in-memory select with and without a
// metrics sink, streaming with 1/4/8/16 workers, and the engine's
// compiled-query cache: cold compile vs cache-hit recompile vs the
// unchanged-generation fast path) and the report — ns/op, allocs/op,
// nodes/sec, metrics overhead, cache-hit speedup, fast-path overhead,
// scaling efficiency per worker count, peak RSS — is written as JSON to
// -out (default stdout).
//
// With -assert-baseline the stream-* workloads recorded in the given
// report are re-measured at their recorded sizes and worker counts and
// the run exits nonzero when any falls more than -baseline-max-drop
// percent below its recorded nodes/sec (`make bench-gate`).
//
// With -record-history / -assert-history the trajectory workloads are
// measured at every generator seed (-seeds; each per-seed figure the
// best of three windows, so correlated machine-load dips cannot mimic
// a regression) and either appended to the
// NDJSON trajectory file as a dated entry or judged against it under the
// effect-size rule (see internal/experiments/multiseed.go): a failure
// needs a mean drop past -history-max-drop percent, below every
// recorded run, with every seed agreeing on the direction.
//
// With -assert-telemetry-overhead the serving telemetry's end-to-end
// cost is measured — identical feed posts through two serve.Servers,
// default telemetry vs DisableTelemetry, interleaved in paired rounds —
// and the run exits nonzero when the median pair overhead exceeds the
// budget AND the 25th-percentile pair also shows the enabled side
// slower (`make telemetry-overhead`).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"xpe"
	"xpe/internal/experiments"
	"xpe/internal/gen"
	"xpe/internal/hedge"
	"xpe/internal/serve"
	"xpe/internal/xmlhedge"
)

func main() {
	which := flag.String("experiment", "all", "experiment id (E1..E8) or 'all'")
	quick := flag.Bool("quick", false, "smaller sizes for a fast run")
	benchJSON := flag.Bool("bench-json", false, "run the perf-regression workloads and emit JSON instead of tables")
	out := flag.String("out", "", "output file for -bench-json (default stdout)")
	maxTraceOverhead := flag.Float64("assert-trace-overhead", 0,
		"with -bench-json: exit nonzero if the disabled-tracing overhead exceeds this many percent (0 = no gate)")
	assertBaseline := flag.String("assert-baseline", "",
		"re-measure the stream-* workloads recorded in this baseline report and exit nonzero on a throughput regression")
	maxDrop := flag.Float64("baseline-max-drop", 10,
		"with -assert-baseline: the largest tolerated nodes/sec drop, in percent")
	seeds := flag.String("seeds", "42,123,456",
		"comma-separated generator seeds for -record-history / -assert-history")
	recordHistory := flag.String("record-history", "",
		"measure the trajectory workloads at every seed and append a dated entry to this NDJSON file")
	assertHistory := flag.String("assert-history", "",
		"measure the trajectory workloads at every seed and exit nonzero on a consistent regression against this NDJSON trajectory")
	historyMaxDrop := flag.Float64("history-max-drop", 10,
		"with -assert-history: the smallest mean drop, in percent, a trajectory failure needs")
	maxTelemetryOverhead := flag.Float64("assert-telemetry-overhead", 0,
		"measure the serving telemetry's end-to-end cost and exit nonzero if it exceeds this many percent (0 = no gate)")
	flag.Parse()

	logf := func(format string, a ...any) { fmt.Fprintf(os.Stderr, format, a...) }

	if *assertBaseline != "" {
		data, err := os.ReadFile(*assertBaseline)
		if err != nil {
			fatal(err)
		}
		var base experiments.BenchReport
		if err := json.Unmarshal(data, &base); err != nil {
			fatal(fmt.Errorf("%s: %w", *assertBaseline, err))
		}
		// Best of five fresh runs per workload: the baseline records
		// best-window figures, and a genuine regression slows every run
		// while a scheduler stall only hits some.
		err = experiments.GateStreamBaseline(&base, *maxDrop, 5, logf)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "xpebench: stream throughput within %.0f%% of the %s baseline\n",
			*maxDrop, *assertBaseline)
		if !*benchJSON {
			return
		}
	}

	if *recordHistory != "" || *assertHistory != "" {
		seedList, err := parseSeeds(*seeds)
		if err != nil {
			fatal(err)
		}
		stats, err := experiments.MeasureStreamSeeds(*quick, seedList, logf)
		if err != nil {
			fatal(err)
		}
		entry := experiments.HistoryEntry{
			Date:      time.Now().UTC().Format("2006-01-02"),
			GoVersion: runtime.Version(),
			GOOS:      runtime.GOOS,
			GOARCH:    runtime.GOARCH,
			Quick:     *quick,
			Workloads: stats,
		}
		if *assertHistory != "" {
			hist, err := experiments.LoadHistory(*assertHistory)
			if err != nil {
				fatal(err)
			}
			if err := experiments.GateHistory(hist, entry, *historyMaxDrop, logf); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "xpebench: multi-seed trajectory healthy against %s\n", *assertHistory)
		}
		if *recordHistory != "" {
			if err := experiments.AppendHistory(*recordHistory, entry); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "xpebench: trajectory entry for %s appended to %s\n",
				entry.Date, *recordHistory)
		}
		if !*benchJSON && *maxTelemetryOverhead == 0 {
			return
		}
	}

	if *maxTelemetryOverhead > 0 && !*benchJSON {
		ov, err := telemetryOverhead(*quick)
		if err != nil {
			fatal(err)
		}
		gateTelemetryOverhead(ov, *maxTelemetryOverhead)
		return
	}

	if *benchJSON {
		rep, err := experiments.BenchJSON(*quick)
		if err != nil {
			fatal(err)
		}
		if err := cacheBench(rep, *quick); err != nil {
			fatal(err)
		}
		ov, err := telemetryOverhead(*quick)
		if err != nil {
			fatal(err)
		}
		rep.TelemetryOverheadPct = ov.MedianPct
		w := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		if err := rep.WriteJSON(w); err != nil {
			fatal(err)
		}
		if *maxTraceOverhead > 0 {
			if rep.TraceOverheadPct > *maxTraceOverhead {
				fatal(fmt.Errorf("disabled-tracing overhead %.3f%% exceeds the %.3f%% budget",
					rep.TraceOverheadPct, *maxTraceOverhead))
			}
			fmt.Fprintf(os.Stderr, "xpebench: disabled-tracing overhead %.3f%% within the %.3f%% budget\n",
				rep.TraceOverheadPct, *maxTraceOverhead)
		}
		if *maxTelemetryOverhead > 0 {
			gateTelemetryOverhead(ov, *maxTelemetryOverhead)
		}
		return
	}

	fns := map[string]func(bool) (*experiments.Table, error){
		"E1": experiments.E1, "E2": experiments.E2, "E3": experiments.E3,
		"E4": experiments.E4, "E5": experiments.E5, "E6": experiments.E6,
		"E7": experiments.E7, "E8": experiments.E8,
	}
	var tables []*experiments.Table
	if *which == "all" {
		ts, err := experiments.All(*quick)
		if err != nil {
			fatal(err)
		}
		tables = ts
	} else {
		fn, ok := fns[strings.ToUpper(*which)]
		if !ok {
			fatal(fmt.Errorf("unknown experiment %q", *which))
		}
		t, err := fn(*quick)
		if err != nil {
			fatal(err)
		}
		tables = append(tables, t)
	}
	var b strings.Builder
	for _, t := range tables {
		t.Render(&b)
	}
	fmt.Print(b.String())
}

// cacheBench measures the facade's compiled-query cache and appends the
// results to rep. It lives here rather than in internal/experiments
// because that package is imported by the facade's own benchmarks and so
// cannot import the facade back.
//
// Three workloads, all over a fixed alphabet (the document below is
// parsed once up front, so the generation never moves mid-measurement):
//
//   - compile-cold: every iteration compiles a source the cache has never
//     seen. Trailing-space padding makes each source string distinct —
//     distinct cache keys — while trimming makes them parse identically,
//     so the work measured is a genuine parse + automaton construction.
//   - recompile-cache-hit: every iteration re-requests the same source at
//     the same generation; after the first miss each is a map lookup.
//   - the fast path: evaluating through Query.Compiled() (the per-call
//     generation revalidation) vs evaluating the underlying
//     core.CompiledQuery directly, in paired rounds; the median ratio is
//     the revalidation overhead the unchanged-generation path pays.
func cacheBench(rep *experiments.BenchReport, quick bool) error {
	minTime := 300 * time.Millisecond
	rounds := 7
	if quick {
		minTime = 40 * time.Millisecond
		rounds = 5
	}

	eng := xpe.NewEngine()
	doc, err := eng.ParseXMLString(
		"<doc>" + strings.Repeat("<sec><fig/><tab/><fig/></sec>", 500) + "</doc>")
	if err != nil {
		return err
	}
	const src = "[. ; fig ; .] (sec|doc)*"

	pad := 0
	cold := experiments.Measure("compile-cold", 0, minTime, func() {
		pad++
		if _, err := eng.CompileQuery(src + strings.Repeat(" ", pad)); err != nil {
			panic(err)
		}
	})
	rep.Results = append(rep.Results, cold)

	hit := experiments.Measure("recompile-cache-hit", 0, minTime, func() {
		if _, err := eng.CompileQuery(src); err != nil {
			panic(err)
		}
	})
	rep.Results = append(rep.Results, hit)
	if hit.NsPerOp > 0 {
		rep.CacheHitSpeedup = cold.NsPerOp / hit.NsPerOp
	}

	q, err := eng.CompileQuery(src)
	if err != nil {
		return err
	}
	cq := q.Compiled()
	h := doc.Hedge()
	nodes := int64(doc.Size())
	pairTime := minTime / 4
	if pairTime < 10*time.Millisecond {
		pairTime = 10 * time.Millisecond
	}
	var direct, revalidated experiments.BenchResult
	var ratios []float64
	for round := 0; round < rounds; round++ {
		d := experiments.Measure("select-direct", nodes, pairTime, func() {
			cq.SelectEach(h, func(hedge.Path, *hedge.Node) bool { return true })
		})
		if round == 0 || d.NsPerOp < direct.NsPerOp {
			direct = d
		}
		r := experiments.Measure("select-revalidate-fastpath", nodes, pairTime, func() {
			q.Compiled().SelectEach(h, func(hedge.Path, *hedge.Node) bool { return true })
		})
		if round == 0 || r.NsPerOp < revalidated.NsPerOp {
			revalidated = r
		}
		if d.NsPerOp > 0 {
			ratios = append(ratios, r.NsPerOp/d.NsPerOp)
		}
	}
	rep.Results = append(rep.Results, direct, revalidated)
	if len(ratios) > 0 {
		sort.Float64s(ratios)
		m := ratios[len(ratios)/2]
		if len(ratios)%2 == 0 {
			m = (ratios[len(ratios)/2-1] + ratios[len(ratios)/2]) / 2
		}
		rep.FastPathOverheadPct = (m - 1) * 100
	}
	return nil
}

// parseSeeds parses the -seeds list ("42,123,456").
func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-seeds: %q is not an integer", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-seeds: no seeds in %q", s)
	}
	return out, nil
}

// gateTelemetryOverhead applies the budget with the same effect-size
// discipline as the trajectory gate: the median pair overhead must
// exceed the budget AND at least three quarters of the interleaved
// pairs must show the enabled side slower at all (p25 > 1). A genuine
// telemetry cost shifts the whole pair distribution; measurement noise
// straddles 1.0 and fails the second leg.
func gateTelemetryOverhead(ov telemetryCost, budget float64) {
	if ov.MedianPct > budget && ov.P25Pct > 0 {
		fatal(fmt.Errorf("serving-telemetry overhead %.3f%% (p25 %.3f%%) exceeds the %.3f%% budget consistently",
			ov.MedianPct, ov.P25Pct, budget))
	}
	fmt.Fprintf(os.Stderr, "xpebench: serving-telemetry overhead %.3f%% (p25 %.3f%%) within the %.3f%% budget\n",
		ov.MedianPct, ov.P25Pct, budget)
}

// telemetryCost is the paired measurement's summary: the median pair
// overhead (the recorded point estimate) and the 25th-percentile pair
// overhead (the consistency leg of the gate).
type telemetryCost struct {
	MedianPct float64
	P25Pct    float64
}

// nullResponseWriter discards a handler's response; one is built per
// request so header writes never cross requests.
type nullResponseWriter struct{ h http.Header }

func (w *nullResponseWriter) Header() http.Header         { return w.h }
func (w *nullResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullResponseWriter) WriteHeader(int)             {}

// telemetryOverhead prices the serving telemetry end to end: identical
// feed posts driven straight through serve.Server.ServeHTTP (no
// sockets) against two servers — default telemetry (rollups, request
// ids, per-feed flight recorder) vs Options.DisableTelemetry — in
// op-interleaved paired rounds, with a /metrics scrape every 16th post
// on both sides so the scrape path is charged to the enabled
// configuration (the disabled side answers it with a cheap 404). The
// return is the median pair ratio minus one, in percent. It lives here
// rather than in internal/experiments because that package is imported
// by the facade's benchmarks and so cannot import internal/serve (which
// imports the facade).
func telemetryOverhead(quick bool) (telemetryCost, error) {
	// Records sized like serving documents, not unit-test snippets: the
	// per-record telemetry work (trace commit, rollup adds) must amortize
	// over real evaluation, which is the configuration the budget is
	// stated for.
	recCount, recSize := 8, 1500
	budget := 8 * time.Second
	if quick {
		budget = 2 * time.Second
	}
	var b strings.Builder
	b.WriteString("<corpus>")
	for i := 0; i < recCount; i++ {
		cfg := gen.DefaultDocConfig()
		cfg.Seed = int64(i + 1)
		d := gen.Document(cfg, recSize)
		s, err := xmlhedge.ToString(d)
		if err != nil {
			return telemetryCost{}, err
		}
		b.WriteString(s)
	}
	b.WriteString("</corpus>")
	corpus := []byte(b.String())

	newServer := func(disable bool) (*serve.Server, error) {
		// One evaluation worker: the comparison prices telemetry, and a
		// parallel pipeline's scheduling jitter would drown the signal.
		s, err := serve.NewServer(serve.Options{Engine: xpe.NewEngine(), Workers: 1,
			DisableTelemetry: disable})
		if err != nil {
			return nil, err
		}
		for i, src := range []string{
			"figure section* doc*", "table section* doc*", "section doc*", "figure doc* *",
		} {
			body := fmt.Sprintf(`{"tenant":"bench","name":"q%d","query":%q,"feed":"bench"}`, i, src)
			req := httptest.NewRequest("POST", "/v1/queries", strings.NewReader(body))
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusCreated {
				return nil, fmt.Errorf("register %s: %d %s", body, rec.Code, rec.Body.String())
			}
		}
		return s, nil
	}
	enabled, err := newServer(false)
	if err != nil {
		return telemetryCost{}, err
	}
	disabled, err := newServer(true)
	if err != nil {
		return telemetryCost{}, err
	}

	op := func(s *serve.Server) func() {
		posts := 0
		return func() {
			req := httptest.NewRequest("POST", "/v1/feed/bench?tenant=bench&split=doc",
				bytes.NewReader(corpus))
			s.ServeHTTP(&nullResponseWriter{h: make(http.Header)}, req)
			if posts++; posts%16 == 0 {
				scrape := httptest.NewRequest("GET", "/metrics", nil)
				s.ServeHTTP(&nullResponseWriter{h: make(http.Header)}, scrape)
			}
		}
	}
	enabledOp, disabledOp := op(enabled), op(disabled)
	// Warm both sides (engine caches, rollup cells, recorder ring) before
	// anything is timed.
	enabledOp()
	disabledOp()

	// Per-op timed pairs with alternating order, judged by the median
	// pair ratio — the same estimator the disabled-tracing budget uses: a
	// GC pause or scheduler stall lands on individual ops and the median
	// shrugs it off, while a genuine telemetry cost shifts every pair.
	var ratios []float64
	start := time.Now()
	for time.Since(start) < budget || len(ratios) < 16 {
		enabledFirst := len(ratios)%2 == 0
		s0 := time.Now()
		if enabledFirst {
			enabledOp()
		} else {
			disabledOp()
		}
		s1 := time.Now()
		if enabledFirst {
			disabledOp()
		} else {
			enabledOp()
		}
		s2 := time.Now()
		en, dis := float64(s1.Sub(s0)), float64(s2.Sub(s1))
		if !enabledFirst {
			en, dis = dis, en
		}
		if dis > 0 {
			ratios = append(ratios, en/dis)
		}
	}
	sort.Float64s(ratios)
	m := ratios[len(ratios)/2]
	if len(ratios)%2 == 0 {
		m = (ratios[len(ratios)/2-1] + ratios[len(ratios)/2]) / 2
	}
	p25 := ratios[len(ratios)/4]
	if os.Getenv("XPEBENCH_DEBUG") != "" {
		fmt.Fprintf(os.Stderr, "xpebench: telemetry pairs=%d p10=%.4f p25=%.4f p50=%.4f p90=%.4f\n",
			len(ratios), ratios[len(ratios)/10], p25, m, ratios[len(ratios)*9/10])
	}
	return telemetryCost{MedianPct: (m - 1) * 100, P25Pct: (p25 - 1) * 100}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xpebench:", err)
	os.Exit(1)
}
