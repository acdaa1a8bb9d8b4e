package core

import (
	"slices"
	"testing"

	"xpe/internal/gen"
	"xpe/internal/ha"
	"xpe/internal/hedge"
	"xpe/internal/metrics"
)

// compileDocQuery compiles a query over the gen.Document vocabulary.
func compileDocQuery(t *testing.T, src string) *CompiledQuery {
	t.Helper()
	return compileDocQueryOpt(t, src, Options{})
}

// compileDocQueryOpt is compileDocQuery with explicit compile options.
func compileDocQueryOpt(t *testing.T, src string, opts Options) *CompiledQuery {
	t.Helper()
	names := ha.NewNames()
	for _, s := range []string{"doc", "section", "figure", "table", "para"} {
		names.Syms.Intern(s)
	}
	names.Vars.Intern(hedge.TextVar)
	q, err := ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	cq, err := CompileQueryOpt(q, names, opts)
	if err != nil {
		t.Fatal(err)
	}
	return cq
}

// compileDocFleet compiles srcs against one Names over the gen.Document
// vocabulary, as the queries of one served feed are.
func compileDocFleet(t testing.TB, srcs []string) []*CompiledQuery {
	t.Helper()
	return compileDocFleetOpt(t, srcs, Options{})
}

// compileDocFleetOpt is compileDocFleet with explicit compile options.
func compileDocFleetOpt(t testing.TB, srcs []string, opts Options) []*CompiledQuery {
	t.Helper()
	names := ha.NewNames()
	for _, s := range []string{"doc", "section", "figure", "table", "para"} {
		names.Syms.Intern(s)
	}
	names.Vars.Intern(hedge.TextVar)
	cqs := make([]*CompiledQuery, len(srcs))
	for i, src := range srcs {
		q, err := ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		if cqs[i], err = CompileQueryOpt(q, names, opts); err != nil {
			t.Fatal(err)
		}
	}
	return cqs
}

// TestMetricsLinearity is the observable form of Theorems 3–5 (A1/C1):
// for a fixed compiled query, nodes visited must equal the document size
// exactly and automaton transitions must scale linearly with it — the
// per-node transition cost stays within a constant band as documents grow
// 16×. It runs over an eager and a LazyDeterminize compilation of the same
// query: the lazy path steps the same automata, only materializing their
// states on demand, so the two must count identical nodes, marks and
// transitions at every size, and a second evaluation of a document on the
// warm lazy compilation must build no new state.
func TestMetricsLinearity(t *testing.T) {
	const src = "select(figure*; [* ; section ; *] (section|doc)*)"
	sizes := []int{2000, 8000, 32000}
	type steps struct{ nodes, marks, transitions int64 }
	counted := map[bool][]steps{}
	for _, tc := range []struct {
		name string
		lazy bool
	}{{"eager", false}, {"lazy", true}} {
		lazy := tc.lazy
		t.Run(tc.name, func(t *testing.T) {
			cq := compileDocQueryOpt(t, src, Options{LazyDeterminize: lazy})
			if cq.Lazy() != lazy {
				t.Fatalf("Lazy() = %v, want %v", cq.Lazy(), lazy)
			}
			var sink metrics.Eval
			cq.SetMetrics(&sink)
			// eval returns one evaluation's counted steps, the lazy states
			// the sink saw built, and the located count.
			eval := func(doc hedge.Hedge) (steps, int64, int) {
				before := sink.Snapshot()
				res := cq.Select(doc)
				d := sink.Snapshot()
				if docs := d.Docs - before.Docs; docs != 1 {
					t.Fatalf("docs delta = %d, want 1", docs)
				}
				got := steps{d.NodesVisited - before.NodesVisited, d.MarksEmitted - before.MarksEmitted,
					d.Transitions - before.Transitions}
				return got, d.LazyStates - before.LazyStates, len(res.Paths)
			}
			var ratios []float64
			for _, size := range sizes {
				doc := gen.Document(gen.DefaultDocConfig(), size)
				n := int64(doc.Size())
				got, built, located := eval(doc)
				if lazy && size == sizes[0] && built == 0 {
					t.Fatal("the cold lazy compilation built no state on its first document")
				}
				if got.nodes != n {
					t.Errorf("size %d: nodes visited = %d, want exactly %d", size, got.nodes, n)
				}
				if got.marks != int64(located) {
					t.Errorf("size %d: marks = %d, want %d located", size, got.marks, located)
				}
				if got.transitions <= 0 {
					t.Fatalf("size %d: transitions = %d, want > 0", size, got.transitions)
				}
				counted[lazy] = append(counted[lazy], got)
				ratios = append(ratios, float64(got.transitions)/float64(n))
				if !lazy {
					continue
				}
				warm := cq.LazyStats().StatesBuilt
				again, sinkBuilt, _ := eval(doc)
				if again != got {
					t.Errorf("size %d: warm re-evaluation counted %+v, first %+v", size, again, got)
				}
				if grew := cq.LazyStats().StatesBuilt - warm; grew != 0 || sinkBuilt != 0 {
					t.Errorf("size %d: warm re-evaluation built %d lazy states (sink %d), want 0",
						size, grew, sinkBuilt)
				}
			}
			lo, hi := slices.Min(ratios), slices.Max(ratios)
			// Linear scaling means a constant per-node cost; allow a modest
			// band for shape variation between generated documents. A
			// super-linear evaluator would blow past this immediately (16×
			// size → ~16× ratio).
			if hi/lo > 1.5 {
				t.Errorf("transitions per node drifted %v (max/min %.2f > 1.5): evaluation is not linear", ratios, hi/lo)
			}
		})
	}
	for i, size := range sizes {
		if e, l := counted[false], counted[true]; i < len(e) && i < len(l) && e[i] != l[i] {
			t.Errorf("size %d: eager counted %+v, lazy %+v; want equal", size, e[i], l[i])
		}
	}
}

// TestMetricsDifferential: attaching or detaching a sink must not change
// any result — same paths, same located set, same SelectEach stream.
func TestMetricsDifferential(t *testing.T) {
	for _, src := range []string{
		"figure section* [* ; doc ; *]",
		"select(figure*; [* ; section ; *] (section|doc)*)",
	} {
		cq := compileDocQuery(t, src)
		doc := gen.Document(gen.DefaultDocConfig(), 5000)

		cq.SetMetrics(nil)
		off := cq.Select(doc)
		var offEach []string
		cq.SelectEach(doc, func(p hedge.Path, n *hedge.Node) bool {
			offEach = append(offEach, p.String())
			return true
		})

		var sink metrics.Eval
		cq.SetMetrics(&sink)
		on := cq.Select(doc)
		var onEach []string
		cq.SelectEach(doc, func(p hedge.Path, n *hedge.Node) bool {
			onEach = append(onEach, p.String())
			return true
		})

		if len(on.Paths) != len(off.Paths) {
			t.Fatalf("%q: %d paths with sink, %d without", src, len(on.Paths), len(off.Paths))
		}
		for i := range on.Paths {
			if on.Paths[i].String() != off.Paths[i].String() {
				t.Errorf("%q: path %d = %s with sink, %s without", src, i, on.Paths[i], off.Paths[i])
			}
		}
		if len(onEach) != len(offEach) {
			t.Fatalf("%q: SelectEach yielded %d with sink, %d without", src, len(onEach), len(offEach))
		}
		for i := range onEach {
			if onEach[i] != offEach[i] {
				t.Errorf("%q: SelectEach %d = %s with sink, %s without", src, i, onEach[i], offEach[i])
			}
		}
	}
}

// TestMetricsZeroAlloc: the sink flush must not allocate — SelectEach's
// steady-state allocation count is identical with and without a sink.
func TestMetricsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool items at random, perturbing AllocsPerRun")
	}
	cq := compileDocQuery(t, "select(figure*; [* ; section ; *] (section|doc)*)")
	doc := gen.Document(gen.DefaultDocConfig(), 3000)
	run := func() {
		cq.SelectEach(doc, func(hedge.Path, *hedge.Node) bool { return true })
	}
	run() // warm the evaluation arenas
	cq.SetMetrics(nil)
	without := testing.AllocsPerRun(20, run)
	var sink metrics.Eval
	cq.SetMetrics(&sink)
	with := testing.AllocsPerRun(20, run)
	if with > without {
		t.Errorf("sink adds allocations: %.1f allocs/run with sink, %.1f without", with, without)
	}
}

// TestMatchAutomatonMetrics: the Theorem 5 path flushes the same sink.
func TestMatchAutomatonMetrics(t *testing.T) {
	_, _, m, _ := buildMatch(t, "fig sec* [* ; doc ; *]")
	var sink metrics.Eval
	m.Metrics = &sink
	h := hedge.MustParse("doc<sec<fig> par<$x>>")
	marked, ok := m.MarkedNodes(h)
	if !ok {
		t.Fatal("hedge rejected by match automaton")
	}
	s := sink.Snapshot()
	if s.Docs != 1 {
		t.Errorf("docs = %d, want 1", s.Docs)
	}
	if s.NodesVisited != int64(h.Size()) {
		t.Errorf("nodes visited = %d, want %d", s.NodesVisited, h.Size())
	}
	if s.MarksEmitted != int64(len(marked)) {
		t.Errorf("marks = %d, want %d", s.MarksEmitted, len(marked))
	}
}
