package stream

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"testing"

	"xpe/internal/core"
	"xpe/internal/ha"
	"xpe/internal/hedge"
	"xpe/internal/metrics"
	"xpe/internal/xmlhedge"
)

// TestRunMultiAllocsFlatInQueries pins that a single-worker shared pass
// allocates exactly as much for five queries as for one: label resolution,
// evaluation arenas and the match sink are per record, never per query.
// The skim is off (its per-run setup is per query by design), and only the
// first query locates anything — the others need a feed ancestor, which a
// record never has — so match buffers grow alike in both runs.
func TestRunMultiAllocsFlatInQueries(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool items at random, perturbing AllocsPerRun")
	}
	names := ha.NewNames()
	var cqs []*core.CompiledQuery
	for _, src := range []string{
		"[* ; a ; b .] (entry|feed)*",
		"[* ; b ; a] entry feed",
		"select(b*; [a ; b ; *] entry feed)",
		"[* ; a ; *] feed",
		"select(a; entry feed)",
	} {
		cqs = append(cqs, compile(t, names, src))
	}
	// A collection mid-measurement would empty the per-query arena pools
	// and charge their refill to whichever run it hit.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	input := feed(200)
	allocs := func(qs []*core.CompiledQuery) float64 {
		run := func() {
			if _, err := RunMulti(context.Background(), strings.NewReader(input), qs,
				Config{Workers: 1, Prefilter: PrefilterOff}, func(*Result) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm arenas, pools and the mirror automata
		return testing.AllocsPerRun(10, run)
	}
	one, five := allocs(cqs[:1]), allocs(cqs)
	if one != five {
		t.Errorf("RunMulti allocates %.0f/run with 1 query, %.0f/run with 5: evaluation allocates per query", one, five)
	}
}

// snapshotFeed holds one record of each kind the label-resolution hoist
// must handle: known labels with text leaves, a never-interned label, a
// label interned only after the first snapshot, and a record no query's
// required labels allow (skipped whole by the union skim).
var snapshotFeed = []string{
	"<entry><a/>one<b/>two</entry>",
	"<entry><b/><a/><zzz><a/><b/></zzz></entry>",
	"<entry><fresh><a/><b/></fresh><a/><b/>tail</entry>",
	"<entry><c>text</c><c/></entry>",
	"<entry><a/><fresh/><b/><zzz/></entry>",
	"<entry><a><b/></a>mid<b><a/></b></entry>",
}

// TestRunMultiLabelSnapshots evaluates queries compiled against two
// different alphabet snapshots (before and after a fresh label was
// interned) in one shared pass, and checks the pass against per-query
// SelectEach over the same records — identical match sets and identical
// evaluation counters — and against the naive oracle over each query's
// own snapshot.
func TestRunMultiLabelSnapshots(t *testing.T) {
	before := ha.NewNames()
	for _, l := range []string{"feed", "entry", "a", "b", "c"} {
		before.Syms.Intern(l)
	}
	before.Vars.Intern(hedge.TextVar)
	after := before.Clone()
	after.Syms.Intern("fresh")

	srcs := []struct {
		names *ha.Names
		src   string
	}{
		{before, "[* ; a ; b .] entry"},
		{after, "[* ; a ; b .] entry"},
		{before, "select(*; [* ; b ; *] (a|zzz|fresh)* entry)"},
		{after, "select(b*; [* ; a ; *] (fresh|entry)*)"},
		{after, "[* ; fresh ; *] entry"},
	}
	var qs []*core.Query
	var cqs []*core.CompiledQuery
	for _, s := range srcs {
		q, err := core.ParseQuery(s.src)
		if err != nil {
			t.Fatal(err)
		}
		cq, err := core.CompileQuery(q, s.names)
		if err != nil {
			t.Fatal(err)
		}
		qs, cqs = append(qs, q), append(cqs, cq)
	}
	input := "<feed>" + strings.Join(snapshotFeed, "") + "</feed>"

	// The shared pass, counters flushed into one sink.
	var streamed metrics.Eval
	for _, cq := range cqs {
		cq.SetMetrics(&streamed)
	}
	got := map[string]bool{}
	stats, err := RunMulti(context.Background(), strings.NewReader(input), cqs, Config{Workers: 1},
		func(r *Result) error {
			for _, m := range r.Matches {
				got[fmt.Sprintf("%d:q%d:%s", r.Index, m.Query, m.Path)] = true
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Prefiltered == 0 {
		t.Fatal("no record was skipped whole; the feed no longer covers records no query allows")
	}

	// Per-query SelectEach over each record parsed on its own, gated the
	// way the skim gates: a query runs only where all its required labels
	// occur.
	var each metrics.Eval
	for _, cq := range cqs {
		cq.SetMetrics(&each)
	}
	want := map[string]bool{}
	for ri, src := range snapshotFeed {
		h, err := xmlhedge.ParseString(src, xmlhedge.Options{})
		if err != nil {
			t.Fatal(err)
		}
		present := map[string]bool{}
		var walk func(hedge.Hedge)
		walk = func(h hedge.Hedge) {
			for _, n := range h {
				if n.Kind == hedge.Elem {
					present[n.Name] = true
					walk(n.Children)
				}
			}
		}
		walk(h)
		for qi, cq := range cqs {
			allowed := true
			for _, l := range cq.RequiredLabels() {
				allowed = allowed && present[l]
			}
			var located []string
			if allowed {
				cq.SelectEach(h, func(p hedge.Path, _ *hedge.Node) bool {
					located = append(located, p.String())
					want[fmt.Sprintf("%d:q%d:%s", ri, qi, p)] = true
					return true
				})
			}
			naive, err := core.SelectNaive(qs[qi], cq.Names, h)
			if err != nil {
				t.Fatal(err)
			}
			var oracle []string
			for n := range naive {
				oracle = append(oracle, pathOf(h, n).String())
			}
			sort.Strings(located)
			sort.Strings(oracle)
			if strings.Join(located, " ") != strings.Join(oracle, " ") {
				t.Errorf("record %d query %d (%s): Algorithm 1 located %v, naive %v", ri, qi, srcs[qi].src, located, oracle)
			}
		}
	}
	if len(got) != len(want) {
		t.Errorf("shared pass located %d nodes, per-query SelectEach %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Errorf("shared pass missed %s", k)
		}
	}
	if len(want) == 0 {
		t.Fatal("no query located anything; the differential is vacuous")
	}
	if s, e := streamed.Snapshot(), each.Snapshot(); s != e {
		t.Errorf("eval counters diverge:\nshared pass %+v\nper query   %+v", s, e)
	}
}

// pathOf returns the Dewey path of n in h.
func pathOf(h hedge.Hedge, n *hedge.Node) hedge.Path {
	for i, c := range h {
		if c == n {
			return hedge.Path{i}
		}
		if p := pathOf(c.Children, n); p != nil {
			return append(hedge.Path{i}, p...)
		}
	}
	return nil
}
