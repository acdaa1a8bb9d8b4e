package core

import (
	"math/rand"
	"strings"
	"testing"

	"xpe/internal/ha"
	"xpe/internal/hedge"
	"xpe/internal/hre"
	"xpe/internal/sre"
)

// randSide generates a random hedge regular expression side condition over
// {a,b} with variable x (nil = any hedge).
func randSide(rng *rand.Rand) *hre.Expr {
	if rng.Intn(3) == 0 {
		return nil
	}
	var gen func(depth int) *hre.Expr
	gen = func(depth int) *hre.Expr {
		if depth <= 0 {
			switch rng.Intn(4) {
			case 0:
				return hre.Leaf("a")
			case 1:
				return hre.Leaf("b")
			case 2:
				return hre.Var("x")
			default:
				return hre.Any()
			}
		}
		switch rng.Intn(5) {
		case 0:
			return hre.Elem("a", gen(depth-1))
		case 1:
			return hre.Cat(gen(depth-1), gen(depth-1))
		case 2:
			return hre.Alt(gen(depth-1), gen(depth-1))
		case 3:
			return hre.Star(gen(depth - 1))
		default:
			return gen(depth - 1)
		}
	}
	return gen(2)
}

// randPHR generates a random pointed hedge representation with up to four
// bases over labels {a,b}.
func randPHR(rng *rand.Rand) *PHR {
	phr := &PHR{}
	nBases := 1 + rng.Intn(3)
	syms := make([]*sre.Expr, nBases)
	for i := 0; i < nBases; i++ {
		label := "a"
		if rng.Intn(2) == 0 {
			label = "b"
		}
		phr.Bases = append(phr.Bases, BaseRep{
			Left:  randSide(rng),
			Label: label,
			Right: randSide(rng),
		})
		syms[i] = sre.Sym(baseSymbol(i))
	}
	var gen func(depth int) *sre.Expr
	gen = func(depth int) *sre.Expr {
		if depth <= 0 {
			return syms[rng.Intn(nBases)]
		}
		switch rng.Intn(4) {
		case 0:
			return sre.Cat(gen(depth-1), gen(depth-1))
		case 1:
			return sre.Alt(gen(depth-1), gen(depth-1))
		case 2:
			return sre.Star(gen(depth - 1))
		default:
			return gen(depth - 1)
		}
	}
	phr.Expr = gen(2)
	return phr
}

// TestNaiveVsAlgorithm1Fuzz compares the two evaluators on randomly
// generated representations and documents — the strongest correctness
// evidence for Theorem 4 / Algorithm 1 in the suite.
func TestNaiveVsAlgorithm1Fuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	cfg := hedge.RandConfig{Symbols: []string{"a", "b"}, Vars: []string{"x"}, MaxDepth: 4, MaxWidth: 3}
	for trial := 0; trial < 80; trial++ {
		phr := randPHR(rng)
		names := ha.NewNames()
		names.Syms.Intern("a")
		names.Syms.Intern("b")
		names.Vars.Intern("x")
		compiled, err := CompilePHR(phr, names)
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, phr, err)
		}
		naive, err := NewNaiveMatcher(phr, names)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := 0; i < 25; i++ {
			h := hedge.Random(rng, cfg)
			fast := compiled.Locate(h)
			slow, err := naive.LocateAll(h)
			if err != nil {
				t.Fatal(err)
			}
			h.Visit(func(p hedge.Path, n *hedge.Node) bool {
				if fast.Located[n] != slow[n] {
					t.Fatalf("trial %d: %s disagrees at %v in %q: fast=%v naive=%v",
						trial, phr, p, h, fast.Located[n], slow[n])
				}
				return true
			})
		}
	}
}

// TestMatchAutomatonFuzz checks the Theorem 5 construction on random
// representations against a small schema: language preservation and
// marking agreement.
func TestMatchAutomatonFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 25; trial++ {
		names := ha.NewNames()
		names.Syms.Intern("a")
		names.Syms.Intern("b")
		names.Vars.Intern("x")
		// Schema: a-rooted documents over {a,b,x}.
		b := ha.NewBuilder(names)
		b.Iota("x", "qx")
		b.MustRule("a", "qa", "(qa | qb | qx)*")
		b.MustRule("b", "qb", "(qa | qb | qx)*")
		b.MustFinal("qa")
		schema := b.Build().Determinize().DHA

		phr := randPHR(rng)
		cq, err := CompileQuery(&Query{Envelope: phr}, names)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		m, err := BuildMatchAutomaton(schema, cq)
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, phr, err)
		}
		cfg := hedge.RandConfig{Symbols: []string{"a", "b"}, Vars: []string{"x"}, MaxDepth: 3, MaxWidth: 3}
		for i := 0; i < 20; i++ {
			h := hedge.Random(rng, cfg)
			if schema.Accepts(h) != m.NHA.Accepts(h) {
				t.Fatalf("trial %d: %s changed the schema language on %q", trial, phr, h)
			}
			if !schema.Accepts(h) {
				continue
			}
			marked, ok := m.MarkedNodes(h)
			if !ok {
				t.Fatalf("trial %d: run extraction failed on %q", trial, h)
			}
			want := cq.Select(h)
			h.Visit(func(p hedge.Path, n *hedge.Node) bool {
				if marked[n] != want.Located[n] {
					t.Fatalf("trial %d: %s marking disagrees at %v in %q", trial, phr, p, h)
				}
				return true
			})
		}
	}
}

// TestDotFreeCompilationsOutliveGrowth is the compile-order differential
// over random queries. A query with no '.' in a side or e₁ is Stable: one
// compiled against an alphabet view taken before the documents' labels
// were interned locates exactly what one compiled after them locates, by
// itself and in one fleet with it, and what the naive oracle locates. A
// '.'-bearing query is never Stable.
func TestDotFreeCompilationsOutliveGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(2202))
	cfg := hedge.RandConfig{Symbols: []string{"a", "b", "c"}, Vars: []string{"x", "y"}, MaxDepth: 4, MaxWidth: 3}
	mentionsAny := func(q *Query) bool {
		dot := q.Subhedge != nil && q.Subhedge.MentionsAny()
		for _, b := range q.Envelope.Bases {
			dot = dot || b.Left != nil && b.Left.MentionsAny() || b.Right != nil && b.Right.MentionsAny()
		}
		return dot
	}
	for checked, trial := 0, 0; checked < 60; trial++ {
		q := &Query{Envelope: randPHR(rng)}
		if rng.Intn(2) == 0 {
			q.Subhedge = randSide(rng)
		}
		live := ha.NewNames()
		PreinternQuery(q, live)
		early, err := CompileQuery(q, live.View())
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, q, err)
		}
		if early.Stable == mentionsAny(q) {
			t.Fatalf("trial %d (%s): Stable = %v", trial, q, early.Stable)
		}
		if !early.Stable {
			continue
		}
		checked++
		docs := make([]hedge.Hedge, 12)
		for i := range docs {
			docs[i] = hedge.Random(rng, cfg)
			syms, vars, _ := docs[i].Labels()
			for _, s := range syms {
				live.Syms.Intern(s)
			}
			for _, v := range vars {
				live.Vars.Intern(v)
			}
		}
		late, err := CompileQuery(q, live.View())
		if err != nil {
			t.Fatal(err)
		}
		fleets := AppendFleets(nil, []*CompiledQuery{early, late})
		if len(fleets) != 1 || fleets[0].Names != late.Names {
			t.Fatalf("trial %d: the two views form %d fleets, want one resolving against the wider", trial, len(fleets))
		}
		for _, h := range docs {
			res := late.Select(h)
			want := pathsOf(res)
			if got := pathsOf(early.Select(h)); got != want {
				t.Fatalf("trial %d: %s over %s: compiled before growth\n%s, after\n%s", trial, q, h, got, want)
			}
			var both [2]strings.Builder
			fleets[0].Each(h, 3, func(m int, p hedge.Path, _ *hedge.Node) bool {
				both[m].WriteString(p.String() + "\n")
				return true
			})
			if both[0].String() != want || both[1].String() != want {
				t.Fatalf("trial %d: %s over %s: fleet members located\n%s and\n%s, want\n%s", trial, q, h, &both[0], &both[1], want)
			}
			naive, err := SelectNaive(q, live, h)
			if err != nil {
				t.Fatal(err)
			}
			if len(naive) != len(res.Located) {
				t.Fatalf("trial %d: %s over %s: naive oracle located %d, Algorithm 1 %d", trial, q, h, len(naive), len(res.Located))
			}
			for n := range naive {
				if !res.Located[n] {
					t.Fatalf("trial %d: %s over %s: naive oracle located %s, Algorithm 1 did not", trial, q, h, n)
				}
			}
		}
	}
}
