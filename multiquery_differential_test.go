package xpe

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"xpe/internal/core"
	"xpe/internal/gen"
	"xpe/internal/ha"
	"xpe/internal/hedge"
	"xpe/internal/metrics"
	"xpe/internal/stream"
	"xpe/internal/xmlhedge"
)

// The multi-query differential harness: a shared-pass SelectStreamMulti
// run over N queries must produce, per query, exactly the match set of
// that query's own independent SelectStream run — across worker counts
// and with the prefilter on and off. This is the executable form of the
// shared-pass correctness argument: the union prefilter may only skip
// records no query can match, and the per-query evaluation gate may only
// drop (query, record) pairs whose required labels are provably absent.

// multiStreamAll runs one shared-pass evaluation and renders every match,
// bucketed by query index.
func multiStreamAll(t *testing.T, eng *Engine, qs []*Query, corpus string, opts SelectOptions) ([]string, StreamStats) {
	t.Helper()
	got := make([]strings.Builder, len(qs))
	stats, err := eng.SelectStreamMulti(context.Background(), strings.NewReader(corpus), qs, opts,
		func(m MultiStreamMatch) error {
			fmt.Fprintf(&got[m.Query], "%d|%s|%s|%s\n", m.Record, m.RecordPath, m.Path, m.Term)
			return nil
		})
	if err != nil {
		t.Fatalf("SelectStreamMulti: %v", err)
	}
	out := make([]string, len(qs))
	for i := range got {
		out[i] = got[i].String()
	}
	return out, stats
}

func TestDifferentialMultiQuery(t *testing.T) {
	corpus := diffCorpus(t, 5)
	eng := NewEngine()
	if _, err := eng.ParseXMLString(corpus); err != nil {
		t.Fatal(err)
	}
	qs := make([]*Query, len(diffQueries))
	for i, src := range diffQueries {
		q, err := eng.CompileQuery(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		qs[i] = q
	}

	// References: each query's own single-query streaming run, prefilter
	// off, sequential — the most direct evaluation path.
	want := make([]string, len(qs))
	var wantMatches, refRecords int64
	for i, q := range qs {
		out, st := streamAll(t, eng, q, corpus, SelectOptions{Workers: 1, Prefilter: PrefilterOff})
		want[i] = out
		wantMatches += st.Matches
		refRecords = st.Records
	}

	for _, workers := range []int{1, 4} {
		for _, mode := range []PrefilterMode{PrefilterAuto, PrefilterOff} {
			name := fmt.Sprintf("workers=%d/prefilter=%v", workers, mode == PrefilterAuto)
			got, stats := multiStreamAll(t, eng, qs, corpus,
				SelectOptions{Workers: workers, Prefilter: mode})
			for i, src := range diffQueries {
				if got[i] != want[i] {
					t.Errorf("%s: query %d (%s): match sets differ\ngot:\n%s\nwant:\n%s",
						name, i, src, got[i], want[i])
				}
			}
			if stats.Matches != wantMatches {
				t.Errorf("%s: Matches = %d, want %d", name, stats.Matches, wantMatches)
			}
			// The shared pass sees every record exactly once: skips move
			// records from Records to Prefiltered, nothing else.
			if got := stats.Records + stats.Prefiltered; got != refRecords {
				t.Errorf("%s: Records+Prefiltered = %d, want %d", name, got, refRecords)
			}
			if mode == PrefilterOff && stats.Prefiltered != 0 {
				t.Errorf("%s: Prefiltered = %d with the prefilter off", name, stats.Prefiltered)
			}
			// One query has an empty requirement set, so no record can be
			// skipped whole — the union prefilter must degrade to gating
			// only.
			if mode == PrefilterAuto && stats.Prefiltered != 0 {
				t.Errorf("%s: Prefiltered = %d, but an unfiltered query is registered", name, stats.Prefiltered)
			}
		}
	}

	// Without the unfiltered query the union prefilter must actually skip:
	// the corpus has sparse records lacking figure and table.
	selective := qs[:5]
	got, stats := multiStreamAll(t, eng, selective, corpus,
		SelectOptions{Workers: 1, Prefilter: PrefilterAuto})
	for i := range selective {
		if got[i] != want[i] {
			t.Errorf("selective: query %d (%s): match sets differ", i, diffQueries[i])
		}
	}
	if stats.Prefiltered == 0 {
		t.Error("selective query set: union prefilter skipped nothing; corpus lost its selectivity")
	}
	if got := stats.Records + stats.Prefiltered; got != refRecords {
		t.Errorf("selective: Records+Prefiltered = %d, want %d", got, refRecords)
	}

	// A duplicated query must simply report its matches twice, under two
	// indices.
	dup := []*Query{qs[0], qs[0]}
	gotDup, _ := multiStreamAll(t, eng, dup, corpus, SelectOptions{Workers: 1})
	if gotDup[0] != want[0] || gotDup[1] != want[0] {
		t.Error("duplicated query: per-index match sets differ from the single-query run")
	}
}

// TestDifferentialMultiQueryNamespacePrefixes pins the prefilter's label
// matching against namespace-prefixed and mixed-case tags in the
// multi-query gate too: the tokenizer strips prefixes at the first colon,
// so required label "price" must hit <ns:price>, and matching is
// byte-exact on case for both sides of the comparison. A gate that
// dropped a (query, record) pair the evaluator would match is exactly the
// skip-a-matching-record bug class this guards against.
func TestDifferentialMultiQueryNamespacePrefixes(t *testing.T) {
	corpus := `<corpus>` +
		`<doc><ns:price>10</ns:price></doc>` +
		`<doc><Price>20</Price></doc>` +
		`<doc><price currency="EUR">30</price></doc>` +
		`<doc><quote price="yes"><!-- price --></quote></doc>` +
		`<doc><sku/></doc>` +
		`</corpus>`
	eng := NewEngine()
	if _, err := eng.ParseXMLString(corpus); err != nil {
		t.Fatal(err)
	}
	sources := []string{
		"price doc* *",     // hits records 0 and 2 (prefix stripped)
		"Price doc* *",     // hits record 1 only (case is significant)
		"(quote|sku) doc*", // decoy-adjacent labels
	}
	qs := make([]*Query, len(sources))
	for i, src := range sources {
		q, err := eng.CompileQuery(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		qs[i] = q
	}
	want := make([]string, len(qs))
	for i, q := range qs {
		want[i], _ = streamAll(t, eng, q, corpus, SelectOptions{Workers: 1, Prefilter: PrefilterOff})
		if want[i] == "" {
			t.Fatalf("query %q matched nothing; fixture lost its point", sources[i])
		}
	}
	for _, mode := range []PrefilterMode{PrefilterAuto, PrefilterOff} {
		got, _ := multiStreamAll(t, eng, qs, corpus, SelectOptions{Workers: 1, Prefilter: mode})
		for i := range qs {
			if got[i] != want[i] {
				t.Errorf("prefilter=%v: query %q: got:\n%swant:\n%s",
					mode == PrefilterAuto, sources[i], got[i], want[i])
			}
		}
	}
}

// TestDifferentialMultiQueryWide pins the shared pass past the 64-query
// word boundary: with more than 64 registered queries the per-record
// verdict spills into Hint's overflow words, and every query — in
// particular those with index >= 64 — must still produce exactly its
// independent run's match set. Before the hint widened to a word-slice,
// query indices past 63 degraded to evaluate-everything at best and to
// aliased gating at worst; this is the differential pin for both.
func TestDifferentialMultiQueryWide(t *testing.T) {
	const nq = 80
	var b strings.Builder
	b.WriteString("<corpus>")
	// Each record carries exactly one field label, cycling through all nq,
	// so query i matches records i, i+nq, ... and nothing else. Interleaved
	// decoys carry a label no query requires: the union prefilter must
	// skip them whole.
	const docs = 3 * nq
	for i := 0; i < docs; i++ {
		fmt.Fprintf(&b, "<doc><f%03d>v%d</f%03d></doc><doc><zz/></doc>", i%nq, i, i%nq)
	}
	b.WriteString("</corpus>")
	corpus := b.String()

	eng := NewEngine()
	if _, err := eng.ParseXMLString(corpus); err != nil {
		t.Fatal(err)
	}
	qs := make([]*Query, nq)
	for i := range qs {
		src := fmt.Sprintf("f%03d doc* *", i)
		q, err := eng.CompileQuery(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		qs[i] = q
	}

	want := make([]string, nq)
	var wantMatches, refRecords int64
	for i, q := range qs {
		out, st := streamAll(t, eng, q, corpus, SelectOptions{Workers: 1, Prefilter: PrefilterOff})
		if out == "" {
			t.Fatalf("query %d matched nothing; fixture lost its point", i)
		}
		want[i] = out
		wantMatches += st.Matches
		refRecords = st.Records
	}

	for _, workers := range []int{1, 4} {
		for _, mode := range []PrefilterMode{PrefilterAuto, PrefilterOff} {
			name := fmt.Sprintf("workers=%d/prefilter=%v", workers, mode == PrefilterAuto)
			got, stats := multiStreamAll(t, eng, qs, corpus,
				SelectOptions{Workers: workers, Prefilter: mode})
			for i := range qs {
				if got[i] != want[i] {
					t.Errorf("%s: query %d: match sets differ\ngot:\n%swant:\n%s",
						name, i, got[i], want[i])
				}
			}
			if stats.Matches != wantMatches {
				t.Errorf("%s: Matches = %d, want %d", name, stats.Matches, wantMatches)
			}
			if got := stats.Records + stats.Prefiltered; got != refRecords {
				t.Errorf("%s: Records+Prefiltered = %d, want %d", name, got, refRecords)
			}
			if mode == PrefilterAuto && stats.Prefiltered != docs {
				t.Errorf("%s: Prefiltered = %d, want %d decoy records skipped",
					name, stats.Prefiltered, docs)
			}
			if mode == PrefilterOff && stats.Prefiltered != 0 {
				t.Errorf("%s: Prefiltered = %d with the prefilter off", name, stats.Prefiltered)
			}
		}
	}
}

// The fleet differential: a shared pass evaluates its queries in fleets
// (core.Fleet), sharing one bottom-up pass and one walk per record among
// up to 64 queries. For every query set below, each query's matches from
// stream.RunMulti, in delivery order, must equal that query's own
// SelectEach over every record and the naive oracle (core.SelectNaive),
// at one and four workers, with the skim on and off, and every record's
// matches must arrive grouped by ascending query index.

// fleetQuery is one query of a fleet case with its source and the
// alphabet it was compiled against.
type fleetQuery struct {
	src   string
	q     *core.Query
	names *ha.Names
	cq    *core.CompiledQuery
}

// fleetNames returns a Names holding the corpus alphabet, the closed
// world the queries are compiled in.
func fleetNames(corpus hedge.Hedge) *ha.Names {
	names := ha.NewNames()
	syms, vars, _ := corpus.Labels()
	for _, s := range syms {
		names.Syms.Intern(s)
	}
	for _, v := range vars {
		names.Vars.Intern(v)
	}
	return names
}

func compileFleetQuery(t *testing.T, names *ha.Names, src string, opts core.Options) fleetQuery {
	t.Helper()
	q, err := core.ParseQuery(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	cq, err := core.CompileQueryOpt(q, names, opts)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return fleetQuery{src: src, q: q, names: names, cq: cq}
}

// fleetReference renders every query's matches record by record, in
// document order, from the query's own SelectEach, and checks them
// against the naive oracle. The oracle's answers are memoized in naive by
// source and alphabet, which is all they depend on.
func fleetReference(t *testing.T, qs []fleetQuery, records []hedge.Hedge, naive map[string]string) []string {
	t.Helper()
	want := make([]string, len(qs))
	for i, fq := range qs {
		var each strings.Builder
		for ri, h := range records {
			fq.cq.SelectEach(h, func(p hedge.Path, _ *hedge.Node) bool {
				fmt.Fprintf(&each, "%d|%s\n", ri, p)
				return true
			})
		}
		key := fmt.Sprintf("%p %s", fq.names, fq.src)
		if _, ok := naive[key]; !ok {
			var b strings.Builder
			for ri, h := range records {
				located, err := core.SelectNaive(fq.q, fq.names, h)
				if err != nil {
					t.Fatal(err)
				}
				h.Visit(func(p hedge.Path, n *hedge.Node) bool {
					if located[n] {
						fmt.Fprintf(&b, "%d|%s\n", ri, p)
					}
					return true
				})
			}
			naive[key] = b.String()
		}
		if each.String() != naive[key] {
			t.Fatalf("query %d (%s): SelectEach\n%s\nnaive\n%s", i, fq.src, each.String(), naive[key])
		}
		want[i] = each.String()
	}
	return want
}

func TestDifferentialFleet(t *testing.T) {
	corpus := diffCorpus(t, 2)
	doc, err := xmlhedge.ParseString(corpus, xmlhedge.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var records []hedge.Hedge
	for _, n := range doc[0].Children {
		if n.Kind == hedge.Elem {
			records = append(records, hedge.Hedge{n})
		}
	}
	a := fleetNames(doc)
	b := a.Clone()
	b.Syms.Intern("fresh") // a second snapshot, one generation on
	eager, lazy := core.Options{}, core.Options{LazyDeterminize: true}
	torture := core.Options{LazyDeterminize: true, LazyTransitionBudget: 1}

	compileAll := func(names *ha.Names, opts core.Options, srcs ...string) []fleetQuery {
		var out []fleetQuery
		for _, src := range srcs {
			out = append(out, compileFleetQuery(t, names, src, opts))
		}
		return out
	}
	// More than 64 distinct sides: each query brings two of its own, so
	// the set splits into fleets by sides long before 64 members.
	var wide []string
	for k := 1; k <= 36; k++ {
		wide = append(wide, fmt.Sprintf("[%s ; section ; %s .] (section|doc)*",
			strings.Repeat("para ", k), strings.Repeat("figure ", k)))
	}
	shared := []string{
		"[* ; figure ; table .] (section|doc)*",
		"[* ; para ; table .] (section|doc)*",
		"[. ; figure ; .] (section|doc)*",
		"[. ; table ; table .] doc* section*",
		"select(figure*; [* ; section ; *] (section|doc)*)",
		"select(figure*; [* ; section ; table .] doc*)",
		"select(figure*; para (section|doc)*)",
		"select(.; [* ; table ; . figure .] (section|doc)*)",
	}
	cases := []struct {
		name string
		qs   []fleetQuery
		// subset: some kept record's hint allows some but not all of the
		// queries, so the skim-on runs evaluate fewer (record, query)
		// pairs than the skim-off runs.
		subset bool
	}{
		{name: "shared sides and e1", qs: compileAll(a, eager, shared...), subset: true},
		{name: "dense 64", qs: compileAll(a, eager, gen.DenseQueries()...)},
		{name: "over 64 queries", qs: compileAll(a, eager, append(gen.DenseQueries(), shared...)...), subset: true},
		{name: "over 64 sides", qs: compileAll(a, eager, wide...)},
		{name: "snapshots A B A", qs: slices.Concat(
			compileAll(a, eager, shared[:3]...),
			compileAll(b, eager, shared[1:5]...),
			compileAll(a, eager, shared[4:]...))},
		{name: "lazy and eager", qs: slices.Concat(
			compileAll(a, lazy, shared[:4]...),
			compileAll(a, eager, shared...),
			compileAll(a, torture, shared[2:]...))},
		{name: "budget-1 torture", qs: compileAll(a, torture, append(shared, wide[:6]...)...)},
	}
	naive := map[string]string{}
	for _, c := range cases {
		want := fleetReference(t, c.qs, records, naive)
		cqs := make([]*core.CompiledQuery, len(c.qs))
		for i := range c.qs {
			cqs[i] = c.qs[i].cq
		}
		fleets := core.AppendFleets(nil, cqs)
		if c.name == "over 64 queries" || c.name == "over 64 sides" {
			if len(fleets) < 2 {
				t.Errorf("%s: %d fleet(s), want the set split", c.name, len(fleets))
			}
		}
		docs := map[bool]int64{}
		for _, workers := range []int{1, 4} {
			for _, mode := range []stream.PrefilterMode{stream.PrefilterAuto, stream.PrefilterOff} {
				name := fmt.Sprintf("%s/workers=%d/skim=%v", c.name, workers, mode == stream.PrefilterAuto)
				var sink metrics.Eval
				for _, cq := range cqs {
					cq.SetMetrics(&sink)
				}
				got := make([]strings.Builder, len(cqs))
				_, err := stream.RunMulti(context.Background(), strings.NewReader(corpus), cqs,
					stream.Config{Workers: workers, Prefilter: mode}, func(r *stream.Result) error {
						for i, m := range r.Matches {
							if i > 0 && m.Query < r.Matches[i-1].Query {
								t.Errorf("%s: record %d: query %d after query %d", name, r.Index, m.Query, r.Matches[i-1].Query)
							}
							fmt.Fprintf(&got[m.Query], "%d|%s\n", r.Index, m.Path)
						}
						return nil
					})
				for _, cq := range cqs {
					cq.SetMetrics(nil)
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for i := range got {
					if got[i].String() != want[i] {
						t.Errorf("%s: query %d (%s): shared pass\n%swant\n%s", name, i, c.qs[i].src, got[i].String(), want[i])
					}
				}
				docs[mode == stream.PrefilterAuto] = sink.Docs.Load()
			}
		}
		if all := int64(len(records) * len(cqs)); docs[false] != all {
			t.Errorf("%s: skim off evaluated %d (record, query) pairs, want all %d", c.name, docs[false], all)
		}
		if c.subset && !(0 < docs[true] && docs[true] < docs[false]) {
			t.Errorf("%s: skim on evaluated %d pairs, skim off %d: no hint allowed a strict subset", c.name, docs[true], docs[false])
		}
	}
}
