package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"xpe"
	"xpe/internal/core"
	"xpe/internal/hedge"
	"xpe/internal/metrics"
	"xpe/internal/stream"
	"xpe/internal/xmlhedge"
)

// The traced run times each layer's public entry points from outside, on
// the same inputs, op by op. Spans are recorded only here, around the
// calls this file makes; the program under test is not instrumented. A
// layer's self time is its span minus the spans of the layer below, as a
// median over ops.

// span is one timed call. Spans of one op share Op (-1: set-up); Parent
// names the span of the layer above. Calls > 1 marks a span that sums that
// many calls: the per-record reads and per-(record, query) evaluations of a
// replay, and the per-query recompiles. Counts are the Engine's counter
// deltas over the span (the replay's own tallies on its summed spans).
type span struct {
	Op     int              `json:"op"`
	Name   string           `json:"name"`
	Parent string           `json:"parent,omitempty"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Calls  int              `json:"calls,omitempty"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// mark is where a span starts: the Engine's counters, then the clock.
type mark struct {
	stats xpe.Stats
	t0    time.Time
}

// opTrace is one traced op's span durations and exact counts.
type opTrace struct {
	register, recompile, feed, sel, run, read, eval, skim, tokenize time.Duration

	cacheMisses                                               int64 // over the whole op
	evalDocs, records, prefiltered, transitions, nodesVisited int64 // over serve.feed
	evals, useful                                             int   // replay evaluations, and those locating a node
	responseBytes                                             int
}

// tracer holds the traced run's state.
type tracer struct {
	w        *workload
	digest   [sha256.Size]byte
	payloads [][]byte
	origin   time.Time
	spans    []span
	// regs are the set-up registrations' serve.register durations.
	regs []time.Duration

	in     *instance
	qs     []*xpe.Query // the fleet, compiled on the server's Engine
	groups [][]string   // each fleet query's required labels
	// absent is a prefilter for a label no body carries: a Read loop
	// with it skims every record and parses none.
	absent *xmlhedge.Prefilter
	reg    metrics.Metrics // stream.run's and the replay's own metrics
	arena  xmlhedge.Arena
}

func (t *tracer) mark() mark { return mark{t.in.eng.Stats(), time.Now()} }

// span appends a span from m to now and returns its duration and the
// Engine's counter deltas over it.
func (t *tracer) span(op int, name, parent string, m mark, calls int) (time.Duration, xpe.Stats) {
	end := time.Now()
	d := t.in.eng.Stats().Sub(m.stats)
	counts := map[string]int64{}
	for k, v := range map[string]int64{
		"eval.docs": d.Eval.Docs, "eval.nodes_visited": d.Eval.NodesVisited,
		"eval.transitions": d.Eval.Transitions, "eval.marks": d.Eval.MarksEmitted,
		"split.records": d.Split.Records, "split.prefiltered": d.Split.RecordsPrefiltered,
		"split.bytes": d.Split.Bytes, "cache.hits": d.Cache.Hits, "cache.misses": d.Cache.Misses,
	} {
		if v != 0 {
			counts[k] = v
		}
	}
	t.spans = append(t.spans, span{Op: op, Name: name, Parent: parent,
		Start: int64(m.t0.Sub(t.origin)), End: int64(end.Sub(t.origin)), Calls: calls, Counts: counts})
	return end.Sub(m.t0), d
}

// sum appends a span of calls calls that took d in all, ending now.
func (t *tracer) sum(op int, name, parent string, d time.Duration, calls int, counts map[string]int64) {
	end := time.Now()
	t.spans = append(t.spans, span{Op: op, Name: name, Parent: parent,
		Start: int64(end.Add(-d).Sub(t.origin)), End: int64(end.Sub(t.origin)), Calls: calls, Counts: counts})
}

// setUp builds a traced server: setUp with each registration timed, then
// the fleet compiled on its Engine, which hits the Engine's cache and so
// shares the automata the server evaluates.
func (t *tracer) setUp() error {
	in, err := setUp(t.w, func(t0 time.Time) {
		d := time.Since(t0)
		t.sum(-1, "serve.register", "", d, 1, nil)
		t.regs = append(t.regs, d)
	})
	if err != nil {
		return err
	}
	t.in, t.qs, t.groups = in, t.qs[:0], t.groups[:0]
	if !okAnswer(in, t.digest) {
		in.stop()
		return errors.New("traced set-up: answer differs from the verified one")
	}
	for _, r := range t.w.fleet {
		q, err := in.eng.CompileQuery(r.Query)
		if err != nil {
			in.stop()
			return err
		}
		t.qs = append(t.qs, q)
		t.groups = append(t.groups, q.Compiled().RequiredLabels())
	}
	return nil
}

// op runs traced op id, the i-th of its server, one layer at a time, and
// reports whether every layer gave the reference answer.
func (t *tracer) op(id, i int) (opTrace, bool) {
	var o opTrace
	ctx := context.Background()
	w, eng := t.w, t.in.eng
	ok := true
	s0 := eng.Stats()
	if w.churn {
		m := t.mark()
		err := t.in.do(http.MethodPost, "/v1/queries", t.payloads[i])
		o.register, _ = t.span(id, "serve.register", "", m, 1)
		ok = err == nil && t.in.rec.status == http.StatusCreated
		// The registration bumped the alphabet generation: recompile the
		// fleet through the Engine's cache, so the post then hits it.
		m = t.mark()
		for _, q := range t.qs {
			q.Compiled()
		}
		o.recompile, _ = t.span(id, "xpe.recompile", "", m, len(t.qs))
	}

	m := t.mark()
	err := t.in.post(w)
	var d xpe.Stats
	o.feed, d = t.span(id, "serve.feed", "", m, 1)
	ok = ok && err == nil && okAnswer(t.in, t.digest)
	o.responseBytes = t.in.rec.body.Len()
	o.evalDocs, o.transitions, o.nodesVisited = d.Eval.Docs, d.Eval.Transitions, d.Eval.NodesVisited
	o.records, o.prefiltered = d.Split.Records, d.Split.RecordsPrefiltered

	want := int64(len(w.expected))
	opts := xpe.SelectOptions{Workers: 1, SplitElement: w.split, OnError: xpe.Skip}
	m = t.mark()
	st, err := eng.SelectStreamMulti(ctx, bytes.NewReader(w.body), t.qs, opts,
		func(xpe.MultiStreamMatch) error { return nil })
	o.sel, _ = t.span(id, "xpe.select", "serve.feed", m, 1)
	ok = ok && err == nil && st.Matches == want

	cqs := make([]*core.CompiledQuery, len(t.qs))
	for k, q := range t.qs {
		cqs[k] = q.Compiled()
	}
	cfg := stream.Config{Split: w.split, Workers: 1, Metrics: &t.reg,
		OnRecordError: func(*stream.RecordError) error { return nil }}
	m = t.mark()
	sst, err := stream.RunMulti(ctx, bytes.NewReader(w.body), cqs, cfg, func(*stream.Result) error { return nil })
	o.run, _ = t.span(id, "stream.run", "xpe.select", m, 1)
	ok = ok && err == nil && sst.Matches == want

	r0 := t.reg.Snapshot()
	matches, reads, err := t.replay(cqs, &o)
	rd := t.reg.Snapshot().Sub(r0)
	t.sum(id, "xmlhedge.read", "stream.run", o.read, reads,
		map[string]int64{"split.records": rd.Split.Records, "split.prefiltered": rd.Split.RecordsPrefiltered})
	t.sum(id, "core.eval", "stream.run", o.eval, o.evals,
		map[string]int64{"evals": int64(o.evals), "useful": int64(o.useful), "marks": matches})
	ok = ok && err == nil && matches == want

	m = t.mark()
	parsed, err := t.readAll(t.absent)
	o.skim, _ = t.span(id, "xmlhedge.skim", "", m, 1)
	ok = ok && err == nil && parsed == 0
	m = t.mark()
	parsed, err = t.readAll(nil)
	o.tokenize, _ = t.span(id, "xmlhedge.tokenize", "", m, 1)
	ok = ok && err == nil && parsed == w.records

	o.cacheMisses = eng.Stats().Cache.Misses - s0.Cache.Misses
	return o, ok
}

// replay redoes stream.run's work call by call, timing each:
// RecordReader.Read per record with the workload's union prefilter, then
// SelectEach per hint-allowed (record, query). It returns the nodes
// located and the reads made.
func (t *tracer) replay(cqs []*core.CompiledQuery, o *opTrace) (int64, int, error) {
	rr := xmlhedge.NewRecordReader(bytes.NewReader(t.w.body), xmlhedge.RecordOptions{Split: t.w.split,
		Prefilter: xmlhedge.NewMultiPrefilter(t.groups), Ctx: context.Background(), Metrics: &t.reg.Split})
	var matches int64
	for reads := 1; ; reads++ {
		t.arena.Reset()
		t0 := time.Now()
		rec, err := rr.Read(&t.arena)
		o.read += time.Since(t0)
		if err == io.EOF {
			return matches, reads, nil
		}
		if err != nil {
			return matches, reads, err
		}
		for k, cq := range cqs {
			if !rec.Hint.Allows(k) {
				continue
			}
			found := 0
			t0 := time.Now()
			cq.SelectEach(rec.Hedge, func(hedge.Path, *hedge.Node) bool { found++; return true })
			o.eval += time.Since(t0)
			o.evals++
			if found > 0 {
				o.useful++
			}
			matches += int64(found)
		}
	}
}

// readAll reads every record of the body under the given prefilter and
// returns how many it parsed.
func (t *tracer) readAll(pf *xmlhedge.Prefilter) (int, error) {
	rr := xmlhedge.NewRecordReader(bytes.NewReader(t.w.body), xmlhedge.RecordOptions{Split: t.w.split, Prefilter: pf})
	for n := 0; ; n++ {
		t.arena.Reset()
		if _, err := rr.Read(&t.arena); err != nil {
			if err == io.EOF {
				err = nil
			}
			return n, err
		}
	}
}

// traced is the per-layer run. Its first third times untraced ops, the
// baseline of trace.overhead_pct; the rest runs traced ops, at least
// cfg.windowOps of them, calling every layer op by op so that adjacent
// spans see the same machine state.
func traced(w *workload, cfg config, info *runInfo) (result, error) {
	digest, setups, err := timeSetUps(w, cfg)
	if err != nil {
		return result{}, err
	}
	payloads, err := opPayloads(w)
	if err != nil {
		return result{}, err
	}
	eps, _, err := timedEpisodes(w, cfg, cfg.seconds/3, payloads, digest)
	if err != nil {
		return result{}, err
	}
	var res result
	var untraced []time.Duration
	for _, ep := range eps {
		for _, win := range ep.windows {
			untraced = append(untraced, win.lat...)
		}
		res.Attempted += ep.attempted
		res.Failed += ep.failed
	}
	compiles, err := timeCompiles(w)
	if err != nil {
		return result{}, err
	}

	t := &tracer{w: w, digest: digest, payloads: payloads, origin: time.Now(),
		absent: xmlhedge.NewPrefilter([]string{"absentlabel"})}
	var ops []opTrace
	begin := time.Now()
	budget := cfg.seconds - cfg.seconds/3
	done := func(i int) bool {
		if w.churn {
			return i == w.episodeOps
		}
		return time.Since(begin) >= budget && len(ops) >= cfg.windowOps
	}
	for {
		if err := t.setUp(); err != nil {
			return result{}, err
		}
		for i := 0; !done(i); i++ {
			o, ok := t.op(len(ops), i)
			res.Attempted++
			if !ok {
				res.Failed++
			}
			ops = append(ops, o)
		}
		if err := t.in.stop(); err != nil {
			return result{}, err
		}
		info.Episodes++
		if !w.churn || time.Since(begin) >= budget {
			break
		}
	}
	if cfg.spansOut != "" {
		if err := writeSpans(cfg.spansOut, t.spans); err != nil {
			return result{}, err
		}
	}
	info.Setups, info.TimedOps, info.TracedOps = len(setups), len(untraced), len(ops)
	info.Seconds = time.Since(begin).Seconds()
	if !w.churn {
		info.Episodes = 0
	}
	res.Correct = res.Failed == 0

	// per is a median over ops; perMS is one of durations, in ms.
	per := func(f func(o opTrace) float64) float64 {
		xs := make([]float64, len(ops))
		for i, o := range ops {
			xs[i] = f(o)
		}
		return medianFloat(xs)
	}
	perMS := func(f func(o opTrace) time.Duration) float64 {
		return per(func(o opTrace) float64 { return ms(f(o)) })
	}
	mb := float64(len(w.body)) / 1e6
	register := ms(median(t.regs))
	if w.churn {
		register = perMS(func(o opTrace) time.Duration { return o.register })
	}
	// On churn the request path is the registration, the recompile the
	// post would otherwise pay, and the post.
	tracedLatency := perMS(func(o opTrace) time.Duration { return o.register + o.recompile + o.feed })
	res.Metrics = map[string]metric{
		"serve.self_ms":           {perMS(func(o opTrace) time.Duration { return o.feed - o.sel }), "ms"},
		"serve.register_ms":       {register, "ms"},
		"serve.response_kb":       {per(func(o opTrace) float64 { return float64(o.responseBytes) / 1024 }), "KB"},
		"xpe.self_ms":             {perMS(func(o opTrace) time.Duration { return o.sel - o.run }), "ms"},
		"xpe.compile_ms":          {ms(median(compiles)), "ms"},
		"xpe.recompile_ms":        {perMS(func(o opTrace) time.Duration { return o.recompile }), "ms"},
		"xpe.cache_misses_per_op": {per(func(o opTrace) float64 { return float64(o.cacheMisses) }), "count"},
		"stream.self_ms":          {perMS(func(o opTrace) time.Duration { return o.run - o.read - o.eval }), "ms"},
		"xmlhedge.read_ms":        {perMS(func(o opTrace) time.Duration { return o.read }), "ms"},
		"xmlhedge.skim_mbps":      {mb / (perMS(func(o opTrace) time.Duration { return o.skim }) / 1e3), "MB/s"},
		"xmlhedge.tokenize_mbps":  {mb / (perMS(func(o opTrace) time.Duration { return o.tokenize }) / 1e3), "MB/s"},
		"xmlhedge.prefiltered_share": {per(func(o opTrace) float64 {
			return float64(o.prefiltered) / float64(o.records+o.prefiltered)
		}), "count"},
		"core.eval_ms":           {perMS(func(o opTrace) time.Duration { return o.eval }), "ms"},
		"core.evals_per_record":  {per(func(o opTrace) float64 { return float64(o.evalDocs) / float64(o.records) }), "count"},
		"core.useful_eval_share": {per(func(o opTrace) float64 { return float64(o.useful) / float64(o.evals) }), "count"},
		"core.transitions_per_node": {per(func(o opTrace) float64 {
			return float64(o.transitions) / float64(o.nodesVisited)
		}), "count"},
		"trace.overhead_pct": {(tracedLatency/ms(median(untraced)) - 1) * 100, "%"},
	}
	return res, nil
}

// timeCompiles times Engine.CompileQuery of every fleet query on fresh
// Engines, five times over.
func timeCompiles(w *workload) ([]time.Duration, error) {
	var out []time.Duration
	for rep := 0; rep < 5; rep++ {
		eng := xpe.NewEngine()
		for _, r := range w.fleet {
			t0 := time.Now()
			if _, err := eng.CompileQuery(r.Query); err != nil {
				return nil, err
			}
			out = append(out, time.Since(t0))
		}
	}
	return out, nil
}

// writeSpans writes the spans as NDJSON.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
