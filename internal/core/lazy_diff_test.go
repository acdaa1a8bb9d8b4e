package core

import (
	"math/rand"
	"strings"
	"testing"

	"xpe/internal/gen"
	"xpe/internal/ha"
	"xpe/internal/hedge"
	"xpe/internal/hre"
)

// diffQueries is the query corpus of the differential suite: sibling
// conditions, subhedge conditions, alternation, and the '.'-closed-world
// forms, all over the gen.Document / SiblingRow label sets.
var diffQueries = []string{
	"figure [* ; section ; *]",
	"(figure | table) [* ; section ; *]",
	"para [* ; section ; *] [* ; doc ; *]",
	"[figure . ; para ; *]",
	"[* ; figure ; table .]",
	"select((section | figure | table | para)*; section [* ; doc ; *])",
	"section section [* ; doc ; *]",
	gen.KthFromEndPHR(4),
	gen.TypicalPHR(3),
}

// diffDocs returns the document corpus: generated docbook-like documents
// plus adversarial sibling rows.
func diffDocs() []hedge.Hedge {
	docs := []hedge.Hedge{
		gen.Document(gen.DefaultDocConfig(), 300),
		gen.Document(gen.DocConfig{Seed: 7, MaxDepth: 3, FigProb: 0.3, TabProb: 0.2, SecProb: 0.3}, 150),
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 6; i++ {
		docs = append(docs, gen.SiblingRow(rng, 3+i*4))
	}
	return docs
}

// compileThree compiles the query eagerly, lazily, and lazily with a
// one-transition budget (every step evicts), each against its own Names
// pre-interned with the document alphabet.
func compileThree(t *testing.T, src string, docs []hedge.Hedge) [3]*CompiledQuery {
	t.Helper()
	q, err := ParseQuery(src)
	if err != nil {
		t.Fatalf("ParseQuery(%q): %v", src, err)
	}
	var out [3]*CompiledQuery
	for i, opts := range []Options{
		{},
		{LazyDeterminize: true},
		{LazyDeterminize: true, LazyTransitionBudget: 1},
	} {
		names := ha.NewNames()
		for _, d := range docs {
			internHedge(names, d)
		}
		cq, err := CompileQueryOpt(q, names, opts)
		if err != nil {
			t.Fatalf("CompileQueryOpt(%q, %+v): %v", src, opts, err)
		}
		out[i] = cq
	}
	return out
}

func pathsOf(res *Result) string {
	var b strings.Builder
	for _, p := range res.Paths {
		b.WriteString(p.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func eachPathsOf(cq *CompiledQuery, h hedge.Hedge) string {
	var b strings.Builder
	cq.SelectEach(h, func(p hedge.Path, n *hedge.Node) bool {
		b.WriteString(p.String())
		b.WriteByte('\n')
		return true
	})
	return b.String()
}

// TestLazyCompileMatchesEager is the core layer of the differential
// harness: every (query, document) pair evaluated through the eager,
// lazy, and tiny-budget lazy compilations must produce identical match
// sets and Dewey paths, through both Select and SelectEach.
func TestLazyCompileMatchesEager(t *testing.T) {
	docs := diffDocs()
	for _, src := range diffQueries {
		cqs := compileThree(t, src, docs)
		for di, h := range docs {
			want := pathsOf(cqs[0].Select(h))
			for vi, name := range []string{"lazy", "lazy-budget1"} {
				got := pathsOf(cqs[vi+1].Select(h))
				if got != want {
					t.Fatalf("%s: Select disagrees on query %q doc %d:\neager:\n%s%s:\n%s", name, src, di, want, name, got)
				}
				if each := eachPathsOf(cqs[vi+1], h); each != want {
					t.Fatalf("%s: SelectEach disagrees on query %q doc %d:\neager Select:\n%sSelectEach:\n%s", name, src, di, want, each)
				}
			}
			if each := eachPathsOf(cqs[0], h); each != want {
				t.Fatalf("eager SelectEach disagrees with eager Select on query %q doc %d", src, di)
			}
		}
		// Queries whose bases have no side expressions (and no subhedge
		// condition) compile no automata at all — nothing to be lazy about.
		if cqs[1].Lazy() {
			if st := cqs[1].LazyStats(); st.StatesBuilt == 0 {
				t.Fatalf("lazy compilation of %q built no states after evaluation", src)
			}
		}
		if cqs[0].Lazy() {
			t.Fatalf("Lazy() misreports eager compilation of %q", src)
		}
	}
}

// TestLazyAgainstNaiveOracle cross-checks the lazy path against the
// definition-level oracle on small documents (the eager path is pinned to
// the oracle by the existing suite; this closes the triangle).
func TestLazyAgainstNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	docs := []hedge.Hedge{gen.SiblingRow(rng, 6), gen.SiblingRow(rng, 9), gen.Document(gen.DefaultDocConfig(), 60)}
	for _, src := range []string{"[* ; figure ; table .]", gen.KthFromEndPHR(3), "select(b*; [* ; a ; b .] (a|b)*)"} {
		q, err := ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		for di, h := range docs {
			names := ha.NewNames()
			internHedge(names, h)
			cq, err := CompileQueryOpt(q, names, Options{LazyDeterminize: true})
			if err != nil {
				t.Fatal(err)
			}
			res := cq.Select(h)
			oracle, err := SelectNaive(q, names, h)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Located) != len(oracle) {
				t.Fatalf("query %q doc %d: lazy located %d nodes, oracle %d", src, di, len(res.Located), len(oracle))
			}
			for n := range oracle {
				if !res.Located[n] {
					t.Fatalf("query %q doc %d: oracle node missing from lazy result", src, di)
				}
			}
		}
	}
}

// periodicRow builds r⟨p₀ p₁ … c⟩ with the sibling labels drawn cyclically
// from pattern — the low-diversity input family of the blowup regression:
// the lazily materialized states are bounded by the input's window
// diversity, not by 2^k.
func periodicRow(pattern string, width int) hedge.Hedge {
	r := hedge.NewElem("r")
	for i := 0; i < width; i++ {
		r.Children = append(r.Children, hedge.NewElem(string(pattern[i%len(pattern)])))
	}
	r.Children = append(r.Children, hedge.NewElem("c"))
	return hedge.Hedge{r}
}

// TestLazyAvoidsAdversarialBlowup is the regression test for the C1
// caveat: the k-th-from-end family has an eager subset construction of
// 2^k states, which must not be paid under lazy compilation. At k=18 the
// eager construction would materialize ~262k states; the lazy one must
// stay within a small fixed budget on low-diversity input while still
// answering correctly.
func TestLazyAvoidsAdversarialBlowup(t *testing.T) {
	const k = 18
	q, err := ParseQuery(gen.KthFromEndPHR(k))
	if err != nil {
		t.Fatal(err)
	}
	docs := []hedge.Hedge{}
	for _, pattern := range []string{"a", "b", "ab"} {
		for _, width := range []int{k - 2, k, k + 3, 3 * k} {
			docs = append(docs, periodicRow(pattern, width))
		}
	}
	names := ha.NewNames()
	for _, d := range docs {
		internHedge(names, d)
	}
	cq, err := CompileQueryOpt(q, names, Options{LazyDeterminize: true})
	if err != nil {
		t.Fatal(err)
	}
	for di, h := range docs {
		row := h[0].Children
		w := len(row) - 1 // elder siblings of the trailing c
		// The condition holds iff the k-th sibling from the end is b.
		want := w >= k && row[w-k].Name == "b"
		res := cq.Select(h)
		got := len(res.Paths) > 0
		if got != want {
			t.Fatalf("doc %d (width %d): match=%v, want %v", di, w, got, want)
		}
	}
	st := cq.LazyStats()
	const budget = 4096 // ≪ 2^18 = 262144
	if st.StatesBuilt == 0 || st.StatesBuilt > budget {
		t.Fatalf("lazy construction built %d states, want 1..%d (eager would build ~%d)", st.StatesBuilt, budget, 1<<k)
	}
	if cq.phr.MaxComponentStates() > budget {
		t.Fatalf("MaxComponentStates %d exceeds lazy budget %d", cq.phr.MaxComponentStates(), budget)
	}
}

// TestRequiredLabels pins the extraction rules on concrete queries.
func TestRequiredLabels(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"figure [* ; section ; *]", "figure section"},
		{"(figure | table) [* ; section ; *]", "section"},
		{"figure* [* ; doc ; *]", "doc"},
		{"[b ; c ; *] [* ; r ; *]", "b c r"},
		{"[b* ; c ; *] [* ; r ; *]", "c r"},
		{"select(para<$x>; c [* ; r ; *])", "c para r"},
		{"[a<b> | c<b> ; d ; *]", "b d"},
		{"[a<~z>*^z ; b ; *]", "b"},
		{gen.KthFromEndPHR(4), "b c r"},
		{"a", "a"},
	}
	for _, tc := range cases {
		q, err := ParseQuery(tc.src)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", tc.src, err)
		}
		got := strings.Join(RequiredLabelsOf(q), " ")
		if got != tc.want {
			t.Errorf("RequiredLabelsOf(%q) = %q, want %q", tc.src, got, tc.want)
		}
		names := ha.NewNames()
		cq, err := CompileQuery(q, names)
		if err != nil {
			t.Fatal(err)
		}
		if compiled := strings.Join(cq.RequiredLabels(), " "); compiled != got {
			t.Errorf("CompiledQuery.RequiredLabels(%q) = %q, want %q", tc.src, compiled, got)
		}
	}
}

// TestRequiredLabelsOnce: a compiled query derives its required labels
// once. A second call allocates nothing and returns the same set, the very
// slice the first call returned.
func TestRequiredLabelsOnce(t *testing.T) {
	for _, src := range []string{"select(para<$x>; c [* ; r ; *])", "(figure | table) [* ; section ; *]", "(figure | table)"} {
		q, err := ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		cq, err := CompileQuery(q, ha.NewNames())
		if err != nil {
			t.Fatal(err)
		}
		first := cq.RequiredLabels()
		if allocs := testing.AllocsPerRun(10, func() { _ = cq.RequiredLabels() }); allocs != 0 {
			t.Errorf("%q: RequiredLabels allocates %v per call after the first", src, allocs)
		}
		again := cq.RequiredLabels()
		if strings.Join(again, " ") != strings.Join(RequiredLabelsOf(q), " ") ||
			len(again) != len(first) || cap(again) != cap(first) ||
			len(first) > 0 && &again[0] != &first[0] {
			t.Errorf("%q: second call returned %q, first %q", src, again, first)
		}
	}
}

// TestRequiredLabelsSound is the prefilter soundness property at the
// evaluation level: a document missing any required label has zero
// matches. Documents are drawn over shrinking label subsets so absence
// actually occurs.
func TestRequiredLabelsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	alphabets := [][]string{
		{"section", "figure", "table", "para", "doc"},
		{"section", "para", "doc"},
		{"figure", "table"},
		{"a", "b", "c", "r"},
		{"a", "c", "r"},
		{"b"},
	}
	var docs []hedge.Hedge
	for _, al := range alphabets {
		for i := 0; i < 4; i++ {
			docs = append(docs, hedge.Random(rng, hedge.RandConfig{Symbols: al, MaxDepth: 4, MaxWidth: 4}))
		}
	}
	for _, src := range diffQueries {
		q, err := ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		req := RequiredLabelsOf(q)
		for di, h := range docs {
			present := map[string]bool{}
			var walk func(hedge.Hedge)
			walk = func(hs hedge.Hedge) {
				for _, n := range hs {
					if n.Kind == hedge.Elem {
						present[n.Name] = true
						walk(n.Children)
					}
				}
			}
			walk(h)
			missing := ""
			for _, l := range req {
				if !present[l] {
					missing = l
					break
				}
			}
			if missing == "" {
				continue
			}
			names := ha.NewNames()
			internHedge(names, h)
			cq, err := CompileQuery(q, names)
			if err != nil {
				t.Fatal(err)
			}
			if res := cq.Select(h); len(res.Paths) != 0 {
				t.Fatalf("query %q doc %d: %d matches despite missing required label %q\n%s",
					src, di, len(res.Paths), missing, pathsOf(res))
			}
		}
	}
}

// TestLazyMatchAutomatonMaterializes checks that schema-level construction
// works on a lazily compiled query (eager structures materialize on
// demand) and agrees with the eagerly compiled construction.
func TestLazyMatchAutomatonMaterializes(t *testing.T) {
	q, err := ParseQuery("select(b*; [* ; a ; b .] (a|b)*)")
	if err != nil {
		t.Fatal(err)
	}
	build := func(opts Options) (*MatchAutomaton, *CompiledQuery, *ha.Names) {
		names := ha.NewNames()
		for _, s := range []string{"a", "b"} {
			names.Syms.Intern(s)
		}
		cq, err := CompileQueryOpt(q, names, opts)
		if err != nil {
			t.Fatal(err)
		}
		schema := anySchema(t, names)
		ma, err := BuildMatchAutomaton(schema, cq)
		if err != nil {
			t.Fatal(err)
		}
		return ma, cq, names
	}
	eagerMA, _, _ := build(Options{})
	lazyMA, lazyCQ, names := build(Options{LazyDeterminize: true})
	// The two constructions are over independent Names but the same
	// alphabet: compare by accepted/marked behavior on sample hedges.
	rng := rand.New(rand.NewSource(17))
	cfg := hedge.RandConfig{Symbols: []string{"a", "b"}, MaxDepth: 3, MaxWidth: 4}
	for i := 0; i < 60; i++ {
		h := hedge.Random(rng, cfg)
		if got, want := lazyMA.NHA.Accepts(h), eagerMA.NHA.Accepts(h); got != want {
			t.Fatalf("match automata disagree on %v: lazy %v, eager %v", h, got, want)
		}
	}
	// And the lazy evaluation path still works after materialization.
	h := hedge.MustParse("a<b b> b a<>")
	internHedge(names, h)
	_ = lazyCQ.Select(h)
}

// anySchema builds the trivial all-hedges schema over the interned
// alphabet, as a DHA on names.
func anySchema(t *testing.T, names *ha.Names) *ha.DHA {
	t.Helper()
	nha, err := hre.Compile(hre.AnyHedge(names.Syms.Names(), nil), names)
	if err != nil {
		t.Fatal(err)
	}
	return nha.Determinize().DHA
}
