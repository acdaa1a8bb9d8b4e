package serve

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"xpe"
	"xpe/internal/core"
	"xpe/internal/gen"
	"xpe/internal/hedge"
	"xpe/internal/xmlhedge"
)

// TestServeEvalCountsExact pins the paper's A1/C1 linearity on the served
// path as exact counts: for the same records, the documents, nodes and
// marks a POST /v1/feed/{name} adds to Stats().Eval equal the sums over
// per-query runs (Query.Select) exactly, and its transitions equal a
// direct core.Fleet evaluation of the records exactly — the shared pass
// and the HTTP layer change no work count. Two of the queries share the
// side "table .", which the fleet steps once, so the served transitions
// are strictly below the per-query sum. Transitions per node stay inside
// TestMetricsLinearity's band as the records grow 16×.
func TestServeEvalCountsExact(t *testing.T) {
	sources := []string{
		"figure section* [* ; doc ; *]",
		"[* ; figure ; table .] (section|doc)*",
		"select(figure*; [* ; section ; *] (section|doc)*)",
		"para (section|doc)*",
		"[* ; para ; table .] (section|doc)*",
	}
	// Both pipeline shapes: the inline single-worker run and the parallel
	// one.
	for _, workers := range []int{1, 4} {
		var ratios []float64
		for _, size := range []int{150, 600, 2400} {
			eng := xpe.NewEngine()
			_, ts := newTestServer(t, Options{Engine: eng, Workers: workers})
			// Parse the records first so every label is interned before the
			// queries compile: served and reference runs share one
			// compilation.
			var body strings.Builder
			body.WriteString("<feed>")
			var docs []*xpe.Document
			for seed := int64(1); seed <= 4; seed++ {
				cfg := gen.DefaultDocConfig()
				cfg.Seed = seed
				rec, err := xmlhedge.ToString(gen.Document(cfg, size))
				if err != nil {
					t.Fatal(err)
				}
				body.WriteString(rec)
				d, err := eng.ParseXMLString(rec)
				if err != nil {
					t.Fatal(err)
				}
				docs = append(docs, d)
			}
			body.WriteString("</feed>")
			var qs []*xpe.Query
			for i, src := range sources {
				mustRegister(t, ts, fmt.Sprintf(`{"tenant":"t","name":"q%d","query":%q,"feed":"docs"}`, i, src))
				q, err := eng.CompileQuery(src)
				if err != nil {
					t.Fatal(err)
				}
				qs = append(qs, q)
			}

			s0 := eng.Stats()
			_, summary, _ := postNDJSON(t, ts.URL+"/v1/feed/docs", body.String())
			s1 := eng.Stats()
			for _, q := range qs {
				for _, d := range docs {
					q.Select(d)
				}
			}
			s2 := eng.Stats()
			cqs := make([]*core.CompiledQuery, len(qs))
			for i, q := range qs {
				cqs[i] = q.Compiled()
			}
			fleets := core.AppendFleets(nil, cqs)
			for _, d := range docs {
				for _, f := range fleets {
					f.Each(d.Hedge(), ^uint64(0), func(int, hedge.Path, *hedge.Node) bool { return true })
				}
			}
			served, each, direct := s1.Sub(s0).Eval, s2.Sub(s1).Eval, eng.Stats().Sub(s2).Eval
			if summary.Records != int64(len(docs)) || summary.Prefiltered != 0 {
				t.Fatalf("workers %d, size %d: %d records evaluated, %d prefiltered; want all %d live",
					workers, size, summary.Records, summary.Prefiltered, len(docs))
			}
			if served.Docs != each.Docs || served.NodesVisited != each.NodesVisited || served.MarksEmitted != each.MarksEmitted {
				t.Errorf("workers %d, size %d: served eval counts %+v, per-query Select %+v", workers, size, served, each)
			}
			if served != direct {
				t.Errorf("workers %d, size %d: served eval counts %+v, direct fleet evaluation %+v", workers, size, served, direct)
			}
			if served.Transitions >= each.Transitions {
				t.Errorf("workers %d, size %d: served transitions %d, per-query sum %d; the shared side must count once",
					workers, size, served.Transitions, each.Transitions)
			}
			if served.Docs != int64(len(docs)*len(qs)) {
				t.Errorf("workers %d, size %d: %d evaluations, want %d", workers, size, served.Docs, len(docs)*len(qs))
			}
			ratios = append(ratios, float64(served.Transitions)/float64(served.NodesVisited))
		}
		min, max := ratios[0], ratios[0]
		for _, r := range ratios[1:] {
			min, max = math.Min(min, r), math.Max(max, r)
		}
		if max/min > 1.5 {
			t.Errorf("workers %d: served transitions per node drifted %v (max/min %.2f > 1.5): evaluation is not linear",
				workers, ratios, max/min)
		}
	}
}
