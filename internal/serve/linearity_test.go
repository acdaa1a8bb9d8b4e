package serve

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"xpe"
	"xpe/internal/gen"
	"xpe/internal/xmlhedge"
)

// TestServeEvalCountsExact pins the paper's A1/C1 linearity on the served
// path as exact counts: for the same records, the evaluation counters a
// POST /v1/feed/{name} adds to Stats().Eval equal the sum over per-query
// SelectEach runs (Query.Select) exactly — the shared pass, the hoisted
// label resolution and the HTTP layer change no work count — and
// transitions per node stay inside TestMetricsLinearity's band as the
// records grow 16×.
func TestServeEvalCountsExact(t *testing.T) {
	sources := []string{
		"figure section* [* ; doc ; *]",
		"[* ; figure ; table .] (section|doc)*",
		"select(figure*; [* ; section ; *] (section|doc)*)",
		"para (section|doc)*",
	}
	var ratios []float64
	for _, size := range []int{150, 600, 2400} {
		eng := xpe.NewEngine()
		_, ts := newTestServer(t, Options{Engine: eng})
		// Parse the records first so every label is interned before the
		// queries compile: served and reference runs share one compilation.
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
		served, each := s1.Sub(s0).Eval, eng.Stats().Sub(s1).Eval
		if summary.Records != int64(len(docs)) || summary.Prefiltered != 0 {
			t.Fatalf("size %d: %d records evaluated, %d prefiltered; want all %d live", size, summary.Records, summary.Prefiltered, len(docs))
		}
		if served != each {
			t.Errorf("size %d: served eval counts %+v, per-query SelectEach %+v", size, served, each)
		}
		if served.Docs != int64(len(docs)*len(qs)) {
			t.Errorf("size %d: %d evaluations, want %d", size, served.Docs, len(docs)*len(qs))
		}
		ratios = append(ratios, float64(served.Transitions)/float64(served.NodesVisited))
	}
	min, max := ratios[0], ratios[0]
	for _, r := range ratios[1:] {
		min, max = math.Min(min, r), math.Max(max, r)
	}
	if max/min > 1.5 {
		t.Errorf("served transitions per node drifted %v (max/min %.2f > 1.5): evaluation is not linear", ratios, max/min)
	}
}
