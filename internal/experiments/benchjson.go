package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"xpe/internal/core"
	"xpe/internal/gen"
	"xpe/internal/ha"
	"xpe/internal/hedge"
	"xpe/internal/metrics"
	"xpe/internal/stream"
	"xpe/internal/trace"
	"xpe/internal/xmlhedge"
)

// BenchResult is one benchmark workload's measurements, in the units Go's
// testing package reports plus a throughput figure.
type BenchResult struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	NodesPerSec float64 `json:"nodes_per_sec,omitempty"`
}

// BenchReport is the layout of BENCH_core.json: the perf-regression
// baseline for the in-memory and streaming evaluation paths, plus the
// measured cost of attaching a metrics sink.
type BenchReport struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	Quick     bool   `json:"quick"`
	// MetricsOverheadPct is what attaching an engine-wide sink costs on
	// the in-memory hot path: the median of paired sink/no-sink ns/op
	// ratios measured in adjacent windows (pairing cancels the
	// time-correlated scheduling noise a single-window delta would carry).
	// The no-sink path is the regression-gated hot path.
	MetricsOverheadPct float64 `json:"metrics_overhead_pct"`
	// CacheHitSpeedup is cold-compile ns/op divided by cache-hit
	// recompile ns/op for the engine's compiled-query cache: how much
	// cheaper a generation-forced recompile is when the (source,
	// generation) entry is already cached. Filled by cmd/xpebench (the
	// facade cannot be imported from here).
	CacheHitSpeedup float64 `json:"cache_hit_speedup,omitempty"`
	// FastPathOverheadPct is what the unchanged-generation revalidation
	// check (two atomic loads per evaluation entry) costs relative to
	// evaluating the underlying compiled query directly, as the median of
	// paired-round ratios. Filled by cmd/xpebench.
	FastPathOverheadPct float64 `json:"fast_path_overhead_pct,omitempty"`
	// DegradedOverheadPct is what fault containment costs on a degraded
	// stream: a feed with 1% of its records poisoned (broken markup),
	// drained under the skip policy, versus the same feed clean — the
	// median of paired-round ns/op ratios. It prices the recovery path
	// (resync scan + per-record fresh decoders), not the happy path.
	DegradedOverheadPct float64 `json:"degraded_overhead_pct"`
	// PrefilterSpeedup is the stream-prefilter-off / stream-prefilter-on
	// ns/op ratio over the low-selectivity corpus (15 of 16 records lack
	// the query's required labels): how much throughput the raw-byte
	// prefilter cascade buys when most records cannot match. Median of
	// paired rounds.
	PrefilterSpeedup float64 `json:"prefilter_speedup,omitempty"`
	// PrefilterSkipRate is the fraction of the corpus's records the skim
	// rejected without parsing in the prefiltered run.
	PrefilterSkipRate float64 `json:"prefilter_skip_rate,omitempty"`
	// SharedPassSpeedup is what serving N registered queries from one
	// shared pass saves against N independent passes over the same feed:
	// the 8-passes ns/op divided by the single-RunMulti-pass ns/op on the
	// selective topic corpus (each record relevant to ~1 query), as the
	// median of paired rounds. The shared pass splits, skims, and parses
	// the feed once and the union prefilter's per-query verdict bits gate
	// each record to the queries whose required labels it carries.
	SharedPassSpeedup float64 `json:"shared_pass_speedup,omitempty"`
	// LazyBlowupAvoided is the eager determinization's membership-DFA
	// state count divided by the states the lazy DHA actually materialized
	// evaluating a document sample, for the adversarial k-th-from-end
	// family at the recorded k — the compile-time blowup the lazy path
	// never paid.
	LazyBlowupAvoided float64 `json:"lazy_blowup_avoided,omitempty"`
	// TraceOverheadPct is what the per-record tracing hooks cost while
	// tracing is disabled (no flight recorder, no slow-record callback):
	// the nil-checked hook sequence the stream pipeline runs per record,
	// wrapped around one in-memory evaluation and interleaved op-by-op
	// with the bare evaluation — the ratio of the two sides' median
	// per-op durations. Gated ≤ 1% by `make trace-overhead`.
	TraceOverheadPct float64 `json:"trace_overhead_pct"`
	// TelemetryOverheadPct is what the serving telemetry costs end to
	// end: a feed post through serve.Server.ServeHTTP with the default
	// telemetry (rollups, request ids, per-feed recorder, periodic
	// /metrics scrapes) against an identical server with
	// DisableTelemetry, interleaved in paired rounds — the median pair
	// ratio. Measured by cmd/xpebench (the serving layer sits above this
	// package); gated ≤ 1% by `make telemetry-overhead`.
	TelemetryOverheadPct float64 `json:"telemetry_overhead_pct"`
	// ScalingEfficiency maps a worker count ("4", "8", "16") to that
	// run's nodes/sec divided by the single-worker run's, over the same
	// stream-* workload. On a box with real parallelism the w4 figure
	// approaches min(4, cores); on one core the interesting property is
	// that it stays near 1.0 — the batched pipeline's coordination
	// overhead, not speedup, is what a single-core figure prices.
	ScalingEfficiency map[string]float64 `json:"scaling_efficiency,omitempty"`
	PeakRSSBytes      int64              `json:"peak_rss_bytes"`
	Results           []BenchResult      `json:"results"`
}

// Measure times fn until minTime has elapsed (at least twice) and reports
// per-op duration and per-op allocation deltas from runtime.MemStats.
// nodes is the per-op node count driving the throughput figure (0 = none).
// Exported so cmd/xpebench can extend the report with workloads that need
// the facade (which this package cannot import).
func Measure(name string, nodes int64, minTime time.Duration, fn func()) BenchResult {
	fn() // warm up: arenas, lazy automata
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var iters int64
	start := time.Now()
	var elapsed time.Duration
	for {
		fn()
		iters++
		elapsed = time.Since(start)
		if elapsed >= minTime && iters >= 2 {
			break
		}
	}
	runtime.ReadMemStats(&after)
	nsPerOp := float64(elapsed.Nanoseconds()) / float64(iters)
	res := BenchResult{
		Name:        name,
		Iterations:  iters,
		NsPerOp:     nsPerOp,
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(iters),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(iters),
	}
	if nodes > 0 && nsPerOp > 0 {
		res.NodesPerSec = float64(nodes) / nsPerOp * 1e9
	}
	return res
}

// peakRSS reads the process high-water RSS from /proc/self/status (VmHWM);
// on platforms without procfs it falls back to the Go heap's Sys figure.
func peakRSS() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range bytes.Split(data, []byte("\n")) {
			if !bytes.HasPrefix(line, []byte("VmHWM:")) {
				continue
			}
			fields := bytes.Fields(line[len("VmHWM:"):])
			if len(fields) >= 1 {
				if kb, err := strconv.ParseInt(string(fields[0]), 10, 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys)
}

// countEach runs SelectEach discarding matches (the zero-allocation hot
// path benchmarks gate on).
func countEach(cq *core.CompiledQuery, doc hedge.Hedge) int {
	n := 0
	cq.SelectEach(doc, func(hedge.Path, *hedge.Node) bool { n++; return true })
	return n
}

// BenchJSON runs the perf-regression workloads and returns the report.
// quick shrinks sizes and time budgets for CI (`make bench-json`); the full
// run is the recorded baseline in BENCH_core.json.
func BenchJSON(quick bool) (*BenchReport, error) {
	minTime := 300 * time.Millisecond
	memSizes := []int{10000, 100000}
	streamSize := 100000
	if quick {
		minTime = 40 * time.Millisecond
		memSizes = []int{10000}
		streamSize = 20000
	}
	rep := &BenchReport{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Quick:     quick,
	}

	names := NewDocEnv()
	cq, err := CompileQuery(names, SelectQuery)
	if err != nil {
		return nil, err
	}

	// In-memory select: the paper's Algorithm 1 hot path. The no-sink /
	// sink pair is measured in alternating rounds, keeping each side's best
	// round — scheduling noise between two separate windows would otherwise
	// dwarf the per-document flush the overhead figure gates (< 3%).
	docs := map[int]hedge.Hedge{}
	for _, n := range memSizes {
		docs[n] = gen.Document(gen.DefaultDocConfig(), n)
	}
	overheadDoc := docs[memSizes[0]]
	overheadNodes := int64(overheadDoc.Size())
	pairTime := minTime / 4
	if pairTime < 10*time.Millisecond {
		pairTime = 10 * time.Millisecond
	}
	var sink metrics.Eval
	var base, withSink BenchResult
	var ratios []float64
	rounds := 7
	if quick {
		rounds = 5
	}
	for round := 0; round < rounds; round++ {
		cq.SetMetrics(nil)
		r := Measure("select-"+sizeName(memSizes[0])+"-nosink", overheadNodes,
			pairTime, func() { countEach(cq, overheadDoc) })
		if round == 0 || r.NsPerOp < base.NsPerOp {
			base = r
		}
		cq.SetMetrics(&sink)
		s := Measure("select-"+sizeName(memSizes[0])+"-sink", overheadNodes,
			pairTime, func() { countEach(cq, overheadDoc) })
		if round == 0 || s.NsPerOp < withSink.NsPerOp {
			withSink = s
		}
		ratios = append(ratios, s.NsPerOp/r.NsPerOp)
	}
	cq.SetMetrics(nil)
	rep.Results = append(rep.Results, base)
	for _, n := range memSizes[1:] {
		doc := docs[n]
		rep.Results = append(rep.Results, Measure(
			"select-"+sizeName(n)+"-nosink", int64(doc.Size()), minTime,
			func() { countEach(cq, doc) }))
	}
	rep.Results = append(rep.Results, withSink)
	rep.MetricsOverheadPct = (median(ratios) - 1) * 100

	// Disabled-tracing overhead: the pipeline's per-record trace path when
	// nothing is attached is one sink nil-check, one boolean, and the
	// branches guarding each would-be clock read (see the split, eval and
	// settle stages in internal/stream).
	// The hooked side wraps one evaluation in exactly that hook sequence —
	// against a nil sink, so every branch takes its disabled arm.
	//
	// The 1% budget is tighter than the metrics pair's 3%, and separate
	// measurement windows drift past it on a noisy host (frequency
	// scaling, cgroup throttling can shift whole windows by more than the
	// budget). So the two sides are interleaved at the single-operation
	// level: adjacent ops sample near-identical machine conditions, and
	// the overhead is the median of per-pair duration ratios — each ratio
	// cancels the conditions its own pair ran under, and the median
	// shrugs off GC pauses and stalls that hit individual ops. Which side
	// runs first alternates pair by pair, so cache- or scheduler-position
	// effects cannot systematically favor one side.
	var nilSink *trace.EventSink
	bareOp := func() { countEach(cq, overheadDoc) }
	hookedOp := func() {
		tracing := nilSink.Enabled()
		var t0 time.Time
		if tracing {
			t0 = time.Now()
		}
		countEach(cq, overheadDoc)
		if tracing {
			_ = trace.Since(t0)
			_ = nilSink.Drain()
		}
	}
	bareOp()
	hookedOp() // warm up
	runtime.GC()
	var tBefore, tAfter runtime.MemStats
	runtime.ReadMemStats(&tBefore)
	traceBudget := 12 * minTime
	var bareNS, hookedNS, pairRatios []float64
	traceStart := time.Now()
	for time.Since(traceStart) < traceBudget || len(bareNS) < 16 {
		bareFirst := len(bareNS)%2 == 0
		s0 := time.Now()
		if bareFirst {
			bareOp()
		} else {
			hookedOp()
		}
		s1 := time.Now()
		if bareFirst {
			hookedOp()
		} else {
			bareOp()
		}
		s2 := time.Now()
		first, second := float64(s1.Sub(s0)), float64(s2.Sub(s1))
		b, h := first, second
		if !bareFirst {
			b, h = second, first
		}
		bareNS = append(bareNS, b)
		hookedNS = append(hookedNS, h)
		pairRatios = append(pairRatios, h/b)
	}
	runtime.ReadMemStats(&tAfter)
	// Both sides run the same evaluation (the hooks neither allocate nor
	// free), so the jointly measured allocation deltas are split evenly.
	traceOps := float64(2 * len(bareNS))
	traceRes := func(name string, nsPerOp float64, iters int) BenchResult {
		res := BenchResult{Name: name, Iterations: int64(iters), NsPerOp: nsPerOp,
			AllocsPerOp: float64(tAfter.Mallocs-tBefore.Mallocs) / traceOps,
			BytesPerOp:  float64(tAfter.TotalAlloc-tBefore.TotalAlloc) / traceOps}
		if nsPerOp > 0 {
			res.NodesPerSec = float64(overheadNodes) / nsPerOp * 1e9
		}
		return res
	}
	traceBase := traceRes("select-"+sizeName(memSizes[0])+"-notrace", median(bareNS), len(bareNS))
	traceHooked := traceRes("select-"+sizeName(memSizes[0])+"-trace-disabled", median(hookedNS), len(hookedNS))
	rep.Results = append(rep.Results, traceBase, traceHooked)
	rep.TraceOverheadPct = (median(pairRatios) - 1) * 100

	// Streaming: split + evaluate + deliver over a serialized document.
	streamDoc := gen.Document(gen.DefaultDocConfig(), streamSize)
	xmlStr, err := xmlhedge.ToString(streamDoc)
	if err != nil {
		return nil, err
	}
	xmlBytes := []byte(xmlStr)
	rep.ScalingEfficiency = map[string]float64{}
	var streamW1 float64
	for _, workers := range []int{1, 4, 8, 16} {
		w := workers
		// Best of several short rounds, the same discipline the degraded
		// pair and the bench-gate re-measurement use: these figures are the
		// committed regression baseline, and a single long window is one
		// sample of the box's noise where the best round is a stable
		// estimate of capability.
		var best BenchResult
		for round := 0; round < rounds; round++ {
			r := Measure(
				"stream-"+sizeName(streamSize)+"-w"+strconv.Itoa(w),
				int64(streamDoc.Size()), pairTime, func() {
					_, err := stream.Run(context.Background(), bytes.NewReader(xmlBytes), cq,
						stream.Config{Workers: w}, func(*stream.Result) error { return nil })
					if err != nil && err != io.EOF {
						panic(err)
					}
				})
			if round == 0 || r.NsPerOp < best.NsPerOp {
				best = r
			}
		}
		rep.Results = append(rep.Results, best)
		if w == 1 {
			streamW1 = best.NodesPerSec
		} else if streamW1 > 0 {
			rep.ScalingEfficiency[strconv.Itoa(w)] = best.NodesPerSec / streamW1
		}
	}

	// Degraded streaming: a corpus of records split on "doc" with 1% of the
	// records' markup broken, drained under the skip policy, paired against
	// the identical corpus clean. Rounds alternate so scheduling noise
	// cancels in the ratio (same discipline as the metrics overhead above).
	recCount, recSize := 100, streamSize/100
	if quick {
		recCount, recSize = 50, streamSize/50
	}
	records := make([]string, recCount)
	var degradedNodes int64
	for i := range records {
		cfg := gen.DefaultDocConfig()
		cfg.Seed = int64(i + 1)
		d := gen.Document(cfg, recSize)
		degradedNodes += int64(d.Size())
		s, err := xmlhedge.ToString(d)
		if err != nil {
			return nil, err
		}
		records[i] = s
	}
	// The poison breaks the record's own markup only: no "<doc" byte
	// sequence survives past the error point, so resync lands exactly on
	// the next record.
	const poison = "<doc><section><figure></table></section></doc>"
	poisonEvery := recCount / max(1, recCount/100)
	buildFeed := func(poisoned bool) []byte {
		var b bytes.Buffer
		b.WriteString("<corpus>")
		for i, r := range records {
			if poisoned && i%poisonEvery == poisonEvery/2 {
				b.WriteString(poison)
			} else {
				b.WriteString(r)
			}
		}
		b.WriteString("</corpus>")
		return b.Bytes()
	}
	cleanFeed, poisonFeed := buildFeed(false), buildFeed(true)
	degCfg := stream.Config{
		Split:         "doc",
		Workers:       4,
		OnRecordError: func(*stream.RecordError) error { return nil },
	}
	runFeed := func(feed []byte) {
		_, err := stream.Run(context.Background(), bytes.NewReader(feed), cq,
			degCfg, func(*stream.Result) error { return nil })
		if err != nil {
			panic(err)
		}
	}
	var degClean, degPoison BenchResult
	var degRatios []float64
	for round := 0; round < rounds; round++ {
		r := Measure("stream-degraded-clean", degradedNodes, pairTime,
			func() { runFeed(cleanFeed) })
		if round == 0 || r.NsPerOp < degClean.NsPerOp {
			degClean = r
		}
		p := Measure("stream-degraded-1pct", degradedNodes, pairTime,
			func() { runFeed(poisonFeed) })
		if round == 0 || p.NsPerOp < degPoison.NsPerOp {
			degPoison = p
		}
		degRatios = append(degRatios, p.NsPerOp/r.NsPerOp)
	}
	rep.Results = append(rep.Results, degClean, degPoison)
	rep.DegradedOverheadPct = (median(degRatios) - 1) * 100

	// Prefilter cascade: the same pipeline over a low-selectivity feed,
	// with and without the raw-byte skim. Paired best-of-rounds like the
	// degraded pair; both runs deliver identical matches, so nodes/sec
	// over the same logical input is the honest comparison.
	offFeed, err := prefilterFeed(quick, false)
	if err != nil {
		return nil, err
	}
	onFeed, err := prefilterFeed(quick, true)
	if err != nil {
		return nil, err
	}
	var preOff, preOn BenchResult
	var preRatios []float64
	for round := 0; round < rounds; round++ {
		o := offFeed.measure(cq, "stream-prefilter-off", pairTime)
		if round == 0 || o.NsPerOp < preOff.NsPerOp {
			preOff = o
		}
		p := onFeed.measure(cq, "stream-prefilter-on", pairTime)
		if round == 0 || p.NsPerOp < preOn.NsPerOp {
			preOn = p
		}
		preRatios = append(preRatios, o.NsPerOp/p.NsPerOp)
	}
	rep.Results = append(rep.Results, preOff, preOn)
	rep.PrefilterSpeedup = median(preRatios)
	preStats, err := stream.Run(context.Background(), bytes.NewReader(onFeed.data), cq,
		onFeed.cfg, func(*stream.Result) error { return nil })
	if err != nil {
		return nil, err
	}
	if total := preStats.Records + preStats.Prefiltered; total > 0 {
		rep.PrefilterSkipRate = float64(preStats.Prefiltered) / float64(total)
	}

	// Shared multi-query pass: the serving shape — N registered queries,
	// one feed post — against the N-scans shape it replaces. Paired
	// best-of-rounds; both sides deliver identical per-query matches.
	sharedFeed, err := sharedPassFeed(quick, false)
	if err != nil {
		return nil, err
	}
	indepFeed, err := sharedPassFeed(quick, true)
	if err != nil {
		return nil, err
	}
	var spShared, spIndep BenchResult
	var spRatios []float64
	for round := 0; round < rounds; round++ {
		s := sharedFeed.measure(nil, "stream-sharedpass-8q", pairTime)
		if round == 0 || s.NsPerOp < spShared.NsPerOp {
			spShared = s
		}
		i := indepFeed.measure(nil, "stream-sharedpass-independent", pairTime)
		if round == 0 || i.NsPerOp < spIndep.NsPerOp {
			spIndep = i
		}
		spRatios = append(spRatios, i.NsPerOp/s.NsPerOp)
	}
	rep.Results = append(rep.Results, spShared, spIndep)
	rep.SharedPassSpeedup = median(spRatios)

	// Lazy determinization: the adversarial k-th-from-end family, whose
	// eager Theorem 1 subset construction doubles per k. The eager compile
	// pays the full blowup up front; the lazy DHA materializes only the
	// states a document sample reaches — the ratio is the blowup avoided.
	const advK = 12
	advNames := ha.NewNames()
	for _, s := range []string{"a", "b", "c", "r"} {
		advNames.Syms.Intern(s)
	}
	advSrc := gen.KthFromEndPHR(advK)
	var eagerStates int
	eagerCompile := Measure("compile-adversarial-k"+strconv.Itoa(advK)+"-eager", 0, pairTime, func() {
		c, err := core.CompilePHR(core.MustParsePHR(advSrc), advNames)
		if err != nil {
			panic(err)
		}
		eagerStates = c.MaxComponentStates()
	})
	advQ, err := core.ParseQuery(advSrc)
	if err != nil {
		return nil, err
	}
	lazyCompile := Measure("compile-adversarial-k"+strconv.Itoa(advK)+"-lazy", 0, pairTime, func() {
		if _, err := core.CompileQueryOpt(advQ, advNames, core.Options{LazyDeterminize: true}); err != nil {
			panic(err)
		}
	})
	rep.Results = append(rep.Results, eagerCompile, lazyCompile)
	lazyCQ, err := core.CompileQueryOpt(advQ, advNames, core.Options{LazyDeterminize: true})
	if err != nil {
		return nil, err
	}
	// A modest document sample: the states the lazy DHA builds are bounded
	// by the sibling-suffix diversity these rows actually exhibit, not by
	// the 2^k the eager construction enumerates up front.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 24; i++ {
		countEach(lazyCQ, gen.SiblingRow(rng, 32))
	}
	if built := lazyCQ.LazyStats().StatesBuilt; built > 0 {
		rep.LazyBlowupAvoided = float64(eagerStates) / float64(built)
	}

	rep.PeakRSSBytes = peakRSS()
	return rep, nil
}

// WriteBenchJSON encodes the report as indented JSON.
func (r *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// sizeName renders a node count compactly: 10000 → "10k".
func sizeName(n int) string {
	if n%1000 == 0 {
		return strconv.Itoa(n/1000) + "k"
	}
	return strconv.Itoa(n)
}
