package stream

import (
	"context"
	"strings"
	"testing"

	"xpe/internal/core"
	"xpe/internal/gen"
	"xpe/internal/ha"
	"xpe/internal/hedge"
	"xpe/internal/xmlhedge"
)

// BenchmarkFleet sizes the evaluation kernel: a single-worker shared pass
// over one 1,500-node gen.Document record with the first 1, 8 and 64 of
// the dense fleet's queries (gen.DenseQueries), all compiled against one
// Names. Every query's required labels occur in the record, so the skim
// keeps it and the hint allows every query: ns/op is the split plus one
// evaluation of the whole fleet. The lazy case compiles the 64 queries
// with lazy determinization at the default transition budget, so its
// warm evaluation steps the lazily built side and e₁ automata.
func BenchmarkFleet(b *testing.B) {
	rec, err := xmlhedge.ToString(gen.Document(gen.DefaultDocConfig(), 1500))
	if err != nil {
		b.Fatal(err)
	}
	input := "<feed>" + rec + "</feed>"
	srcs := gen.DenseQueries()
	for _, c := range []struct {
		name string
		n    int
		opts core.Options
	}{
		{"queries=1", 1, core.Options{}},
		{"queries=8", 8, core.Options{}},
		{"queries=64", 64, core.Options{}},
		{"lazy/queries=64", 64, core.Options{LazyDeterminize: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			names := ha.NewNames()
			for _, l := range []string{"feed", "doc", "section", "figure", "table", "para"} {
				names.Syms.Intern(l)
			}
			names.Vars.Intern(hedge.TextVar)
			cqs := make([]*core.CompiledQuery, c.n)
			for i := range cqs {
				q, err := core.ParseQuery(srcs[i])
				if err != nil {
					b.Fatal(err)
				}
				if cqs[i], err = core.CompileQueryOpt(q, names, c.opts); err != nil {
					b.Fatal(err)
				}
			}
			run := func() int64 {
				st, err := RunMulti(context.Background(), strings.NewReader(input), cqs, Config{Workers: 1},
					func(*Result) error { return nil })
				if err != nil {
					b.Fatal(err)
				}
				return st.Matches
			}
			b.ReportMetric(float64(run()), "matches/op") // also warms the mirror automata
			b.SetBytes(int64(len(input)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}
