package experiments

// Multi-seed statistical bench trajectory, the repository's one
// throughput gate. A throughput figure measured at one RNG seed is a point
// estimate, and gating on it confuses corpus luck with performance. Each
// trajectory entry instead measures every gated workload at several
// generator seeds (the corpus changes, the code does not) and records the
// per-seed figures plus their mean/min/max. Entries append to
// BENCH_history.ndjson — one dated JSON line per run — so the repository
// carries the trajectory, not just the latest number.
//
// The gate (AssertHistory, judging through GateHistory) follows the
// Type-2 experiment discipline: a regression must clear an effect-size
// bar, not just a percentage. Each workload is judged against its current
// epoch (see GateHistory), and the current run fails only when all three
// legs hold:
//
//  1. magnitude: the cross-seed mean is more than maxDropPct percent
//     below the epoch's mean of means;
//  2. effect size: the current mean falls below the slowest per-seed
//     figure the epoch recorded — the drop exceeds the measured
//     cross-seed spread, not just the mean;
//  3. directional consistency: every current seed is below the epoch
//     mean — all corpora agree on the direction.
//
// A drop that fails any leg is reported through logf as noise and does
// not gate, and a workload that fails is measured again before the gate
// fails. This trades a little sensitivity for near-zero false alarms,
// which is what keeps a perf gate trusted enough to stay enabled.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xpe/internal/core"
	"xpe/internal/gen"
	"xpe/internal/hedge"
	"xpe/internal/stream"
	"xpe/internal/xmlhedge"
)

// DefaultSeeds are the generator seeds a trajectory entry measures at.
var DefaultSeeds = []int64{42, 123, 456}

// maxDropPct is the gate's one bound, the same 25% BENCHMARK.json allows
// the served throughput. It is the magnitude leg, and it is the radius of
// an epoch: an older entry whose mean lies further than this from the
// newest entry's belongs to an earlier epoch and is not pooled.
const maxDropPct = 25

// seedRepeats is how many measurement windows each per-seed figure is
// the best of. The three-leg rule rejects per-seed noise, but transient
// machine load depresses every workload it overlaps — correlated noise
// the directional-consistency leg cannot see — so each figure takes its
// best window: a genuine regression slows every window, a stall only some.
const seedRepeats = 3

// SeedRun is one workload's throughput at one generator seed.
type SeedRun struct {
	Seed        int64   `json:"seed"`
	NodesPerSec float64 `json:"nodes_per_sec"`
}

// SeedStat is one workload's cross-seed summary: the per-seed runs and
// their mean/min/max nodes/sec.
type SeedStat struct {
	Name string    `json:"name"`
	Mean float64   `json:"mean_nodes_per_sec"`
	Min  float64   `json:"min_nodes_per_sec"`
	Max  float64   `json:"max_nodes_per_sec"`
	Runs []SeedRun `json:"runs"`
}

// HistoryEntry is one BENCH_history.ndjson line: a dated multi-seed
// measurement of the gated workloads. Entries compare only when quick,
// GOOS, GOARCH and GOMAXPROCS all match; EffectiveCores is recorded to
// read the figures by, not to key on.
type HistoryEntry struct {
	Date      string `json:"date"` // YYYY-MM-DD (UTC)
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// GOMAXPROCS is the scheduler's processor count during the run.
	GOMAXPROCS int `json:"gomaxprocs"`
	// EffectiveCores is how many cores the run really had: see
	// effectiveCores.
	EffectiveCores float64    `json:"effective_cores"`
	Quick          bool       `json:"quick"`
	Workloads      []SeedStat `json:"workloads"`
}

// comparable reports whether two entries measured the same sizes on the
// same kind of host.
func (e HistoryEntry) comparable(o HistoryEntry) bool {
	return e.Quick == o.Quick && e.GOOS == o.GOOS && e.GOARCH == o.GOARCH && e.GOMAXPROCS == o.GOMAXPROCS
}

// benchFeed is one gated workload at one generator seed: the input and
// the node count behind its nodes/sec figure.
type benchFeed struct {
	name  string
	nodes int64
	// doc, when set, makes this the in-memory control: SelectEach over the
	// document, with no xmlhedge or stream code in the way.
	doc  hedge.Hedge
	data []byte
	cfg  stream.Config
	// queries, when set, makes this a multi-query workload: one shared
	// RunMulti pass, or — with independent — one full Run pass per query,
	// the N-scans shape the shared pass is benched against. cq is ignored.
	queries     []*core.CompiledQuery
	independent bool
}

func (f *benchFeed) measure(cq *core.CompiledQuery, minTime time.Duration) BenchResult {
	discard := func(*stream.Result) error { return nil }
	check := func(_ stream.Stats, err error) {
		if err != nil && err != io.EOF {
			panic(err)
		}
	}
	op := func() { check(stream.Run(context.Background(), bytes.NewReader(f.data), cq, f.cfg, discard)) }
	switch {
	case f.doc != nil:
		op = func() { countEach(cq, f.doc) }
	case f.independent:
		op = func() {
			for _, q := range f.queries {
				check(stream.Run(context.Background(), bytes.NewReader(f.data), q, f.cfg, discard))
			}
		}
	case len(f.queries) > 0:
		op = func() {
			check(stream.RunMulti(context.Background(), bytes.NewReader(f.data), f.queries, f.cfg, discard))
		}
	}
	return Measure(f.name, f.nodes, minTime, op)
}

// gatedFeeds builds the gated workloads at one seed: the ten stream
// corpora, in the order an entry records them, and the select-<size>
// control, the same generated document evaluated in memory, so a change
// that moves only the stream workloads shows up against a select figure
// that stays put. The stream-<size>-w<N> feeds stream that document's
// serialization with N workers. BenchJSON reports the same stream corpora
// at seed 1.
func gatedFeeds(quick bool, seed int64) (feeds []*benchFeed, control *benchFeed, err error) {
	size := 100_000
	if quick {
		size = 20_000
	}
	doc := docAt(size, seed)
	s, err := xmlhedge.ToString(doc)
	if err != nil {
		return nil, nil, err
	}
	data, nodes := []byte(s), int64(doc.Size())
	for _, workers := range []int{1, 4, 8, 16} {
		feeds = append(feeds, &benchFeed{
			name:  fmt.Sprintf("stream-%s-w%d", sizeName(size), workers),
			nodes: nodes,
			data:  data,
			cfg:   stream.Config{Workers: workers},
		})
	}
	clean, poisoned, err := degradedFeeds(quick, seed)
	if err != nil {
		return nil, nil, err
	}
	off, on, err := prefilterFeeds(quick, seed)
	if err != nil {
		return nil, nil, err
	}
	shared, independent, err := sharedPassFeeds(quick)
	if err != nil {
		return nil, nil, err
	}
	feeds = append(feeds, clean, poisoned, off, on, shared, independent)
	return feeds, &benchFeed{name: "select-" + sizeName(size), nodes: nodes, doc: doc}, nil
}

// docAt generates the size-node document at a generator seed.
func docAt(size int, seed int64) hedge.Hedge {
	cfg := gen.DefaultDocConfig()
	cfg.Seed = seed
	return gen.Document(cfg, size)
}

// degradedFeeds builds the stream-degraded-clean and -1pct workloads:
// records split on "doc", drained under the skip policy at four workers,
// with 1% of the records' markup broken in the poisoned corpus. Record i
// is generated at seed+i.
func degradedFeeds(quick bool, seed int64) (clean, poisoned *benchFeed, err error) {
	recCount, recSize := 100, 1000
	if quick {
		recCount, recSize = 50, 400
	}
	var c, p bytes.Buffer
	var nodes int64
	// The poison breaks the record's own markup only: no "<doc" byte
	// sequence survives past the error point, so resync lands exactly on
	// the next record.
	const poison = "<doc><section><figure></table></section></doc>"
	poisonEvery := recCount / max(1, recCount/100)
	c.WriteString("<corpus>")
	p.WriteString("<corpus>")
	for i := 0; i < recCount; i++ {
		d := docAt(recSize, seed+int64(i))
		nodes += int64(d.Size())
		s, err := xmlhedge.ToString(d)
		if err != nil {
			return nil, nil, err
		}
		c.WriteString(s)
		if i%poisonEvery == poisonEvery/2 {
			s = poison
		}
		p.WriteString(s)
	}
	c.WriteString("</corpus>")
	p.WriteString("</corpus>")
	cfg := stream.Config{
		Split:         "doc",
		Workers:       4,
		OnRecordError: func(*stream.RecordError) error { return nil },
	}
	return &benchFeed{name: "stream-degraded-clean", nodes: nodes, data: c.Bytes(), cfg: cfg},
		&benchFeed{name: "stream-degraded-1pct", nodes: nodes, data: p.Bytes(), cfg: cfg}, nil
}

// prefilterFeeds builds the stream-prefilter-off and -on workloads: a
// low-selectivity corpus where only every 32nd record contains the query's
// required labels (a generated document with sections, record i at
// seed+i); the rest are text-heavy paragraph records the raw-byte skim
// rejects without parsing. Both configurations deliver identical matches —
// only the throughput and the skip count differ.
func prefilterFeeds(quick bool, seed int64) (off, on *benchFeed, err error) {
	recCount, docSize, paras := 256, 300, 24
	if quick {
		recCount, docSize, paras = 64, 200, 12
	}
	var b bytes.Buffer
	b.WriteString("<corpus>")
	for i := 0; i < recCount; i++ {
		if i%32 == 0 {
			s, err := xmlhedge.ToString(docAt(docSize, seed+int64(i)))
			if err != nil {
				return nil, nil, err
			}
			b.WriteString(s)
			continue
		}
		b.WriteString("<doc>")
		for j := 0; j < paras; j++ {
			fmt.Fprintf(&b, "<para>record %d paragraph %d: plain prose with no matching structure, "+
				"just enough text that skimming beats parsing &amp; node building.</para>", i, j)
		}
		b.WriteString("</doc>")
	}
	b.WriteString("</corpus>")
	h, err := xmlhedge.ParseString(b.String(), xmlhedge.Options{})
	if err != nil {
		return nil, nil, err
	}
	// Throughput is nodes of the logical input per second: the prefiltered
	// run answers for the same records whether or not it parses them.
	data, nodes := b.Bytes(), int64(h.Size())-1
	return &benchFeed{name: "stream-prefilter-off", nodes: nodes, data: data,
			cfg: stream.Config{Workers: 1, Prefilter: stream.PrefilterOff}},
		&benchFeed{name: "stream-prefilter-on", nodes: nodes, data: data, cfg: stream.Config{Workers: 1}}, nil
}

// sharedPassQueries is the fan-out of the shared-pass serving workload:
// one registered query per topic label.
const sharedPassQueries = 8

// sharedPassFeeds builds the stream-sharedpass-8q and -independent
// workloads: a selective multi-tenant feed evaluated by 8 queries, each
// keyed to its own topic label. Every 4th record files under one topic (cycling through
// the 8); the rest are plain prose no query is interested in — the feed
// shape serving sees when tenants subscribe to slices of a broader stream.
// The shared pass splits and skims the feed once — the union skim drops
// the prose records wholesale and the per-query hint bits route each kept
// record to the ~1 query whose topic it carries — while the independent
// shape re-splits and re-skims the entire feed once per query. Both
// deliver identical matches per query; the ratio is what one pass over N
// registered queries saves against N passes. The corpus has no generated
// part, so it takes no seed.
func sharedPassFeeds(quick bool) (shared, independent *benchFeed, err error) {
	recCount, paras := 1024, 24
	if quick {
		recCount, paras = 192, 12
	}
	names := NewDocEnv()
	queries := make([]*core.CompiledQuery, sharedPassQueries)
	for i := range queries {
		names.Syms.Intern(fmt.Sprintf("topic%d", i))
		cq, err := CompileQuery(names, fmt.Sprintf("figure topic%d doc*", i))
		if err != nil {
			return nil, nil, err
		}
		queries[i] = cq
	}
	var b bytes.Buffer
	b.WriteString("<corpus>")
	for i := 0; i < recCount; i++ {
		b.WriteString("<doc>")
		if i%4 == 0 {
			topic := (i / 4) % sharedPassQueries
			fmt.Fprintf(&b, "<topic%d><figure/><table/></topic%d>", topic, topic)
		}
		for j := 0; j < paras; j++ {
			fmt.Fprintf(&b, "<para>record %d paragraph %d: plain prose no registered query selects.</para>", i, j)
		}
		b.WriteString("</doc>")
	}
	b.WriteString("</corpus>")
	h, err := xmlhedge.ParseString(b.String(), xmlhedge.Options{})
	if err != nil {
		return nil, nil, err
	}
	data, nodes, cfg := b.Bytes(), int64(h.Size())-1, stream.Config{Workers: 1}
	return &benchFeed{name: "stream-sharedpass-8q", nodes: nodes, data: data, cfg: cfg, queries: queries},
		&benchFeed{name: "stream-sharedpass-independent", nodes: nodes, data: data, cfg: cfg,
			queries: queries, independent: true}, nil
}

// MeasureStreamSeeds measures the gated workloads at every seed and
// returns the cross-seed stats; only, when non-empty, names the workloads
// to measure. Each per-seed figure is the best of seedRepeats windows, and
// the windows are taken in seedRepeats passes over every (seed, workload)
// pair, so a figure's windows lie seconds apart: a stall must outlast the
// whole run to depress one, while a genuine regression depresses them
// all. Workload names carry the document size ("stream-100k-w4"), and
// quick entries never compare with full ones.
func MeasureStreamSeeds(quick bool, seeds []int64, only []string, logf func(format string, a ...any)) ([]SeedStat, error) {
	minTime := 200 * time.Millisecond
	if quick {
		minTime = 40 * time.Millisecond
	}
	cq, err := CompileQuery(NewDocEnv(), SelectQuery)
	if err != nil {
		return nil, err
	}
	feeds := make([][]*benchFeed, len(seeds))
	best := make([][]float64, len(seeds))
	for i, seed := range seeds {
		fs, control, err := gatedFeeds(quick, seed)
		if err != nil {
			return nil, err
		}
		for _, f := range append(fs, control) {
			if len(only) == 0 || slices.Contains(only, f.name) {
				feeds[i] = append(feeds[i], f)
			}
		}
		best[i] = make([]float64, len(feeds[i]))
	}
	for pass := 0; pass < seedRepeats; pass++ {
		for i := range seeds {
			for j, f := range feeds[i] {
				best[i][j] = max(best[i][j], f.measure(cq, minTime).NodesPerSec)
			}
		}
	}
	out := make([]SeedStat, len(feeds[0]))
	for j := range out {
		st := &out[j]
		st.Name = feeds[0][j].name
		st.Min = best[0][j]
		for i, seed := range seeds {
			nps := best[i][j]
			st.Runs = append(st.Runs, SeedRun{Seed: seed, NodesPerSec: nps})
			st.Mean += nps / float64(len(seeds))
			st.Min = min(st.Min, nps)
			st.Max = max(st.Max, nps)
			logf("xpebench: %s seed %d: %.0f nodes/sec\n", st.Name, seed, nps)
		}
	}
	return out, nil
}

// MeasureHistory measures the gated workloads at DefaultSeeds and returns
// the dated entry, with the host it ran on.
func MeasureHistory(quick bool, logf func(format string, a ...any)) (HistoryEntry, error) {
	stats, err := MeasureStreamSeeds(quick, DefaultSeeds, nil, logf)
	if err != nil {
		return HistoryEntry{}, err
	}
	e := HistoryEntry{
		Date:           time.Now().UTC().Format("2006-01-02"),
		GoVersion:      runtime.Version(),
		GOOS:           runtime.GOOS,
		GOARCH:         runtime.GOARCH,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		EffectiveCores: effectiveCores(),
		Quick:          quick,
		Workloads:      stats,
	}
	logf("xpebench: GOMAXPROCS %d, %.2f effective cores\n", e.GOMAXPROCS, e.EffectiveCores)
	return e, nil
}

// effectiveCores is how many cores the process really gets: GOMAXPROCS
// spin loops run in parallel, timed against one loop alone, as the median
// of five rounds. A host that grants GOMAXPROCS 2 but one core's worth of
// CPU reads about 1, and there a w4 workload prices pipeline overhead,
// not scaling.
func effectiveCores() float64 {
	procs := runtime.GOMAXPROCS(0)
	var ratios []float64
	for round := 0; round < 5; round++ {
		one := timeSpins(1)
		ratios = append(ratios, float64(procs)*float64(one)/float64(timeSpins(procs)))
	}
	return Median(ratios)
}

// timeSpins runs n fixed-length xorshift loops in parallel and returns
// the wall time they take.
func timeSpins(n int) time.Duration {
	var wg sync.WaitGroup
	var sink atomic.Uint64 // keeps the loops' results live
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(i + 1)
			for j := 0; j < 20_000_000; j++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			sink.Add(x)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// AppendHistory appends one entry to the NDJSON trajectory file,
// creating it if needed.
func AppendHistory(path string, e HistoryEntry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadHistory reads a trajectory file. A missing file is an empty
// trajectory, not an error — the first recorded run has no past.
func LoadHistory(path string) ([]HistoryEntry, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []HistoryEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var e HistoryEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			return nil, fmt.Errorf("%s: bad trajectory line %q: %w", path, line, err)
		}
		out = append(out, e)
	}
	return out, sc.Err()
}

// AssertHistory is the gate: it judges cur against hist with GateHistory,
// measures any workload that fails again in a second full-length pass,
// and fails only on the workloads that fail both passes. A regression in
// the code slows both passes; a slow spell on a shared host that lasts
// one pass does not fail the gate.
func AssertHistory(hist []HistoryEntry, cur HistoryEntry, logf func(format string, a ...any)) error {
	failed := GateHistory(hist, cur, logf)
	if len(failed) == 0 {
		return nil
	}
	logf("xpebench: measuring %s again\n", strings.Join(failed, ", "))
	again, err := MeasureStreamSeeds(cur.Quick, DefaultSeeds, failed, logf)
	if err != nil {
		return err
	}
	cur.Workloads = again
	if failed = GateHistory(hist, cur, logf); len(failed) > 0 {
		return fmt.Errorf("throughput regressed against the trajectory in both passes (max drop %d%%): %s",
			maxDropPct, strings.Join(failed, ", "))
	}
	return nil
}

// GateHistory judges cur workload by workload against that workload's
// current epoch in hist, under the three-leg rule in the package comment,
// and returns the workloads that fail. The epoch is every comparable
// entry holding the workload whose mean lies within maxDropPct of the
// epoch's centre, the median mean of the newest three such entries (the
// faster of two while only two exist). A perf PR records three entries,
// so a deliberate change that moves the mean further than that becomes
// the centre and leaves the earlier entries out, while session drift
// stays pooled and one outlier entry, fast or slow, is itself left out
// rather than moving the centre. A workload with no comparable history is
// reported through logf and passes.
func GateHistory(hist []HistoryEntry, cur HistoryEntry, logf func(format string, a ...any)) []string {
	var failed []string
	for _, st := range cur.Workloads {
		var past []SeedStat // newest first
		for i := len(hist) - 1; i >= 0; i-- {
			j := slices.IndexFunc(hist[i].Workloads, func(p SeedStat) bool { return p.Name == st.Name })
			if j >= 0 && hist[i].comparable(cur) {
				past = append(past, hist[i].Workloads[j])
			}
		}
		if len(past) == 0 {
			logf("xpebench: %s has no comparable history (quick=%v %s/%s GOMAXPROCS %d); not gated\n",
				st.Name, cur.Quick, cur.GOOS, cur.GOARCH, cur.GOMAXPROCS)
			continue
		}
		var recent []float64
		for _, p := range past[:min(3, len(past))] {
			recent = append(recent, p.Mean)
		}
		slices.Sort(recent)
		centre := recent[len(recent)/2]
		var pooled int
		var meanSum float64
		worstRun := math.Inf(1)
		for _, p := range past {
			if math.Abs(p.Mean/centre-1)*100 > maxDropPct {
				continue // an earlier epoch, or an outlier entry
			}
			pooled++
			meanSum += p.Mean
			worstRun = min(worstRun, p.Min)
		}
		baseMean := meanSum / float64(pooled)
		dropPct := (1 - st.Mean/baseMean) * 100
		logf("xpebench: %s: mean %.0f nodes/sec vs epoch mean %.0f over %d entries (%+.1f%%)\n",
			st.Name, st.Mean, baseMean, pooled, -dropPct)
		if dropPct <= maxDropPct {
			continue
		}
		if st.Mean >= worstRun {
			logf("xpebench: %s: drop within the epoch's cross-seed spread (slowest recorded run %.0f); treated as noise\n",
				st.Name, worstRun)
			continue
		}
		consistent := true
		for _, r := range st.Runs {
			consistent = consistent && r.NodesPerSec < baseMean
		}
		if !consistent {
			logf("xpebench: %s: seeds disagree on the direction; treated as noise\n", st.Name)
			continue
		}
		logf("xpebench: %s: mean %.0f nodes/sec is %.1f%% below the epoch mean %.0f, below every recorded run, and every seed agrees\n",
			st.Name, st.Mean, dropPct, baseMean)
		failed = append(failed, st.Name)
	}
	return failed
}
