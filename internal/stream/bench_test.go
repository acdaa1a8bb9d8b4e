package stream

import (
	"context"
	"fmt"
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
// evaluation of the whole fleet.
func BenchmarkFleet(b *testing.B) {
	rec, err := xmlhedge.ToString(gen.Document(gen.DefaultDocConfig(), 1500))
	if err != nil {
		b.Fatal(err)
	}
	input := "<feed>" + rec + "</feed>"
	srcs := gen.DenseQueries()
	for _, n := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("queries=%d", n), func(b *testing.B) {
			names := ha.NewNames()
			for _, l := range []string{"feed", "doc", "section", "figure", "table", "para"} {
				names.Syms.Intern(l)
			}
			names.Vars.Intern(hedge.TextVar)
			cqs := make([]*core.CompiledQuery, n)
			for i := range cqs {
				cqs[i] = compile(b, names, srcs[i])
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
