package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"xpe/internal/gen"
	"xpe/internal/ha"
	"xpe/internal/hedge"
)

// TestComponentLimit: component i owns bit i of the uint64 sibling
// membership sets, so a PHR with more than 64 distinct side expressions
// must be rejected at compile time rather than silently drop the bits of
// components 64 and up. 33 bases [aK ; x ; bK] need 66 components; 32
// need exactly 64 and must agree with the naive oracle on the last base.
func TestComponentLimit(t *testing.T) {
	for _, n := range []int{32, 33} {
		var bases []string
		for k := 1; k <= n; k++ {
			bases = append(bases, fmt.Sprintf("[a%d ; x ; b%d]", k, k))
		}
		q, err := ParseQuery(strings.Join(bases, " | "))
		if err != nil {
			t.Fatal(err)
		}
		h := hedge.MustParse(fmt.Sprintf("a%d x b%d", n, n))
		names := ha.NewNames()
		internHedge(names, h)
		cq, err := CompileQuery(q, names)
		if n > 32 {
			if err == nil || !strings.Contains(err.Error(), "at most 64 distinct side expressions") {
				t.Fatalf("%d bases (%d sides): compile error = %v, want the 64-component limit", n, 2*n, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%d bases: %v", n, err)
		}
		naive, err := SelectNaive(q, names, h)
		if err != nil {
			t.Fatal(err)
		}
		got := cq.Select(h).Located
		if !naive[h[1]] || !got[h[1]] || len(got) != len(naive) {
			t.Errorf("%d bases: Algorithm 1 located %d nodes (x: %v), naive %d (x: %v)", n, len(got), got[h[1]], len(naive), naive[h[1]])
		}
	}
}

// kernelQueries are eager queries over the gen.Document vocabulary with
// and without an e₁ condition.
var kernelQueries = []string{
	"figure section* [* ; doc ; *]",
	"[* ; figure ; table .] (section|doc)*",
	"select(figure*; [* ; section ; *] (section|doc)*)",
}

// lazyKernelOpts are the lazy compilations the kernel tests run beside
// the eager one: the default transition budget, and budget 1, which
// flushes on nearly every miss.
var lazyKernelOpts = map[string]Options{
	"lazy":          {LazyDeterminize: true},
	"lazy budget=1": {LazyDeterminize: true, LazyTransitionBudget: 1},
}

// TestEvalZeroAlloc pins steady-state evaluation at exactly zero
// allocations: once a warm-up run has filled the scratch, the mirror edges
// and a lazy compilation's edges, SelectEach allocates nothing, and neither
// does one evaluation of the 64-query dense fleet, eager or lazy.
func TestEvalZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool items at random, perturbing AllocsPerRun")
	}
	doc := gen.Document(gen.DefaultDocConfig(), 3000)
	fn := func(hedge.Path, *hedge.Node) bool { return true }
	check := func(name string, run func()) {
		t.Helper()
		run()
		if a := testing.AllocsPerRun(20, run); a != 0 {
			t.Errorf("%s: %.1f allocs/run, want 0", name, a)
		}
	}
	for _, src := range kernelQueries {
		cq := compileDocQuery(t, src)
		check(fmt.Sprintf("SelectEach %q", src), func() { cq.SelectEach(doc, fn) })
		lazy := compileDocQueryOpt(t, src, lazyKernelOpts["lazy"])
		check(fmt.Sprintf("lazy SelectEach %q", src), func() { lazy.SelectEach(doc, fn) })
	}
	fleetFn := func(int, hedge.Path, *hedge.Node) bool { return true }
	for name, opts := range map[string]Options{"": {}, "lazy ": lazyKernelOpts["lazy"]} {
		fleets := AppendFleets(nil, compileDocFleetOpt(t, gen.DenseQueries(), opts))
		if len(fleets) != 1 || fleets[0].Len() != 64 {
			t.Fatalf("the dense queries make %d fleets, want one of 64", len(fleets))
		}
		check(name+"64-query Fleet.Each", func() { fleets[0].Each(doc, ^uint64(0), fleetFn) })
	}
}

// TestConcurrentColdMirror: goroutines evaluating one freshly compiled
// query race to fill its mirror automaton, whose reads take no lock; every
// evaluation must still agree with a sequential reference. One case per
// kernel query is one cold fleet of all the kernel queries, shared by
// every goroutine as a parallel stream's workers share it. The lazy cases
// race to fill the lazily determinized side and e₁ automata too, at the
// default transition budget and at budget 1, where misses flush the edges
// other goroutines are reading; their reference is the eager compilation.
// Meant for -race -count=10.
func TestConcurrentColdMirror(t *testing.T) {
	var docs []hedge.Hedge
	for seed := int64(1); seed <= 4; seed++ {
		cfg := gen.DefaultDocConfig()
		cfg.Seed = seed
		docs = append(docs, gen.Document(cfg, 400))
	}
	// located renders what eval finds in h.
	type evaluator func(h hedge.Hedge) string
	selectOf := func(cq *CompiledQuery) evaluator {
		return func(h hedge.Hedge) string { return fmt.Sprint(cq.Select(h).Paths) }
	}
	fleetOf := func(cqs []*CompiledQuery) evaluator {
		f := &AppendFleets(nil, cqs)[0]
		return func(h hedge.Hedge) string {
			var b strings.Builder
			f.Each(h, ^uint64(0), func(m int, p hedge.Path, _ *hedge.Node) bool {
				fmt.Fprintf(&b, "%d:%s ", m, p)
				return true
			})
			return b.String()
		}
	}
	type race struct {
		name      string
		ref, cold evaluator
	}
	var races []race
	for _, src := range kernelQueries {
		races = append(races, race{src, selectOf(compileDocQuery(t, src)), selectOf(compileDocQuery(t, src))})
	}
	races = append(races, race{"fleet", fleetOf(compileDocFleet(t, kernelQueries)), fleetOf(compileDocFleet(t, kernelQueries))})
	for name, opts := range lazyKernelOpts {
		for _, src := range kernelQueries {
			races = append(races, race{name + " " + src, selectOf(compileDocQuery(t, src)), selectOf(compileDocQueryOpt(t, src, opts))})
		}
		races = append(races, race{name + " fleet", fleetOf(compileDocFleet(t, kernelQueries)), fleetOf(compileDocFleetOpt(t, kernelQueries, opts))})
	}
	for _, r := range races {
		want := make([]string, len(docs))
		for i, d := range docs {
			want[i] = r.ref(d)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for k := range docs {
					i := (k + g) % len(docs)
					if got := r.cold(docs[i]); got != want[i] {
						t.Errorf("%q goroutine %d doc %d: located %s, want %s", r.name, g, i, got, want[i])
					}
				}
			}(g)
		}
		close(start)
		wg.Wait()
	}
}
