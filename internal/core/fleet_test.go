package core

import (
	"fmt"
	"math/rand"
	"testing"

	"xpe/internal/ha"
	"xpe/internal/hedge"
)

// FuzzFleet evaluates a random set of 1–12 queries (randPHR envelopes,
// randSide e₁ conditions, eager or lazy) as fleets over a random hedge
// under a random allow-mask. Every allowed query must locate exactly the
// nodes SelectNaive does, in document order, and a query the mask leaves
// out must locate nothing. Up to six sides per query can exceed the
// 64-side limit, so a set may also split into several fleets. Run with
// `go test -fuzz FuzzFleet`; the seed corpus runs in every `go test`.
func FuzzFleet(f *testing.F) {
	for _, seed := range []struct {
		seed  int64
		n     uint8
		allow uint64
	}{{1, 1, 1}, {2, 5, ^uint64(0)}, {3, 12, 0x5a5}, {4, 12, 0}, {5, 8, 0xf0}, {6, 3, 6}} {
		f.Add(seed.seed, seed.n, seed.allow)
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint8, allow uint64) {
		rng := rand.New(rand.NewSource(seed))
		names := ha.NewNames()
		names.Syms.Intern("a")
		names.Syms.Intern("b")
		names.Vars.Intern("x")
		opts := Options{LazyDeterminize: seed&1 == 1}
		if seed&2 != 0 {
			opts.LazyTransitionBudget = 1
		}
		qs := make([]*Query, 1+int(n)%12)
		cqs := make([]*CompiledQuery, len(qs))
		for i := range qs {
			qs[i] = &Query{Subhedge: randSide(rng), Envelope: randPHR(rng)}
			cq, err := CompileQueryOpt(qs[i], names, opts)
			if err != nil {
				t.Fatalf("query %d (%s): %v", i, qs[i], err)
			}
			cqs[i] = cq
		}
		h := hedge.Random(rng, hedge.RandConfig{Symbols: []string{"a", "b"}, Vars: []string{"x"}, MaxDepth: 4, MaxWidth: 4})
		got := make([]string, len(qs))
		for _, fl := range AppendFleets(nil, cqs) {
			fl.Each(h, allow>>uint(fl.First), func(m int, p hedge.Path, _ *hedge.Node) bool {
				got[fl.First+m] += p.String() + " "
				return true
			})
		}
		for i, q := range qs {
			want := ""
			if allow&(1<<uint(i)) != 0 {
				located, err := SelectNaive(q, names, h)
				if err != nil {
					t.Fatal(err)
				}
				h.Visit(func(p hedge.Path, n *hedge.Node) bool {
					if located[n] {
						want += p.String() + " "
					}
					return true
				})
			}
			if got[i] != want {
				t.Fatalf("query %d of %d (%s), allowed=%v, over %s: fleet located [%s], naive [%s]",
					i, len(qs), q, allow&(1<<uint(i)) != 0, h, got[i], want)
			}
		}
	})
}

// TestFleetSplitsAndShares pins how AppendFleets partitions a query set:
// contiguous runs sharing one Names, with repeated side expressions and
// e₁ conditions stepped once per fleet — but only between compilations at
// one alphabet generation, since a '.' side ranges over the labels
// interned when it was compiled.
func TestFleetSplitsAndShares(t *testing.T) {
	a, b := ha.NewNames(), ha.NewNames()
	for _, l := range []string{"w", "x", "y", "z"} {
		a.Syms.Intern(l)
	}
	compile := func(names *ha.Names, src string) *CompiledQuery {
		q, err := ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		cq, err := CompileQuery(q, names)
		if err != nil {
			t.Fatal(err)
		}
		return cq
	}
	shared := []*CompiledQuery{
		compile(a, "[* ; x ; y .] z*"),
		compile(a, "[* ; w ; y .] z*"),
		compile(a, "select(y*; [* ; x ; y .] z)"),
		compile(a, "select(y*; w z)"),
	}
	fs := AppendFleets(nil, shared)
	if len(fs) != 1 || fs[0].Len() != 4 {
		t.Fatalf("%d fleets, want one of 4", len(fs))
	}
	if len(fs[0].comps) != 1 || len(fs[0].subs) != 1 {
		t.Errorf("fleet steps %d sides and %d e₁, want 1 and 1", len(fs[0].comps), len(fs[0].subs))
	}
	a.Syms.Intern("v") // a new generation: its "y ." admits v
	late := compile(a, "[* ; v ; y .] z*")
	mixedGens := append(shared[:1:1], late)
	if fs = AppendFleets(fs, mixedGens); len(fs) != 1 || len(fs[0].comps) != 2 {
		t.Fatalf("a later generation's side shared a component: %d fleets", len(fs))
	}
	// Each member locates what it locates alone: late finds the first v,
	// whose younger siblings "y v" lie in its "y ."; the earlier "y ."
	// would not admit v.
	h := hedge.MustParse("z<v y v>")
	got := make([]string, len(mixedGens))
	fs[0].Each(h, ^uint64(0), func(m int, p hedge.Path, _ *hedge.Node) bool {
		got[m] += p.String() + " "
		return true
	})
	for m, cq := range mixedGens {
		want := ""
		cq.SelectEach(h, func(p hedge.Path, _ *hedge.Node) bool {
			want += p.String() + " "
			return true
		})
		if got[m] != want {
			t.Errorf("member %d over %s: fleet located [%s], alone [%s]", m, h, got[m], want)
		}
	}
	if got[1] == "" {
		t.Error("the later generation's query located nothing; the case lost its point")
	}
	mixed := []*CompiledQuery{shared[0], compile(b, "x z*"), shared[1]}
	fs = AppendFleets(fs, mixed)
	if len(fs) != 3 || fs[1].First != 1 || fs[2].First != 2 {
		t.Errorf("A, B, A made %d fleets; want 3 starting at 0, 1, 2", len(fs))
	}
	var wide []*CompiledQuery
	for k := 0; k < 40; k++ {
		wide = append(wide, compile(a, fmt.Sprintf("[l%d ; x ; r%d] z*", k, k)))
	}
	fs = AppendFleets(fs, wide)
	if len(fs) != 2 || fs[0].Len() != 32 || fs[1].First != 32 {
		t.Errorf("80 distinct sides over 40 queries made %d fleets; want 32 + 8", len(fs))
	}
}
