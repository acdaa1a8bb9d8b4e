package xpe

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"xpe/internal/core"
	"xpe/internal/gen"
	"xpe/internal/hedge"
	"xpe/internal/xmlhedge"
)

// stableSources are the '.'-free query shapes the compile-order
// differential covers: the served topic queries, churn registrations
// (labels no document holds), and the '.'-free members of the 64 dense
// sources.
func stableSources() []string {
	var srcs []string
	for k := 0; k < 8; k++ {
		srcs = append(srcs, fmt.Sprintf("figure topic%d doc*", k))
	}
	for i := 0; i < 4; i++ {
		srcs = append(srcs, fmt.Sprintf("figure w%04dq doc*", i))
	}
	for _, src := range gen.DenseQueries() {
		if !strings.Contains(src, ".") {
			srcs = append(srcs, src)
		}
	}
	return srcs
}

// stableCorpus holds topic records (one in four carries topicK's figure)
// and docbook records, under a wrapper whose children are the records.
func stableCorpus(t testing.TB) (corpus string, records []string) {
	t.Helper()
	for i := 0; i < 16; i++ {
		var b strings.Builder
		b.WriteString("<doc><para>prose</para>")
		if i%4 == 0 {
			k := (i / 4) % 8
			fmt.Fprintf(&b, "<topic%d><figure/><table/></topic%d>", k, k)
		}
		b.WriteString("</doc>")
		records = append(records, b.String())
	}
	for i := 0; i < 4; i++ {
		cfg := gen.DefaultDocConfig()
		cfg.Seed = int64(i + 1)
		s, err := xmlhedge.ToString(gen.Document(cfg, 150+50*i))
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, s)
	}
	return "<corpus>" + strings.Join(records, "") + "</corpus>", records
}

// compileAll compiles srcs in order on eng.
func compileAll(t *testing.T, eng *Engine, srcs []string) []*Query {
	t.Helper()
	qs := make([]*Query, len(srcs))
	for i, src := range srcs {
		q, err := eng.CompileQuery(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		qs[i] = q
	}
	return qs
}

// TestStableCompileBeforeGrowthEqualsAfter is the compile-order
// differential for '.'-free queries: compiled on a fresh engine before
// any document brings its labels, each locates exactly what it locates
// when compiled after the documents were parsed — in SelectStream, in a
// multi-query fleet and in Select — and keeps its first compilation
// throughout.
func TestStableCompileBeforeGrowthEqualsAfter(t *testing.T) {
	srcs := stableSources()
	corpus, records := stableCorpus(t)

	before := NewEngine()
	early := compileAll(t, before, srcs)
	first := make([]*core.CompiledQuery, len(early))
	for i, q := range early {
		first[i] = q.cq.Load()
		if !first[i].Stable {
			t.Fatalf("%s: not a stable compilation", srcs[i])
		}
	}
	after := NewEngine()
	if _, err := after.ParseXMLString(corpus); err != nil {
		t.Fatal(err)
	}
	late := compileAll(t, after, srcs)

	// Streams first, while the early engine has interned no document label.
	for _, workers := range []int{1, 3} {
		opts := SelectOptions{Workers: workers}
		got, _ := multiStreamAll(t, before, early, corpus, opts)
		want, _ := multiStreamAll(t, after, late, corpus, opts)
		matched := 0
		for i := range srcs {
			if got[i] != want[i] {
				t.Errorf("workers=%d %s: fleet matches differ by compile order:\n%s---\n%s", workers, srcs[i], got[i], want[i])
			}
			alone, _ := streamAll(t, before, early[i], corpus, opts)
			if alone != want[i] {
				t.Errorf("workers=%d %s: SelectStream matches differ by compile order:\n%s---\n%s", workers, srcs[i], alone, want[i])
			}
			if want[i] != "" {
				matched++
			}
		}
		if matched < len(srcs)/2 {
			t.Fatalf("only %d of %d queries matched: the corpus lost its point", matched, len(srcs))
		}
	}
	// The early queries, compiled one after another at growing alphabet
	// generations, form one fleet.
	if fleets := core.AppendFleets(nil, first); len(fleets) != 1 {
		t.Errorf("%d '.'-free queries compiled in turn form %d fleets, want 1", len(first), len(fleets))
	}

	// Then in memory, after parsing brought every label.
	for _, rec := range records {
		dBefore, err := before.ParseXMLString(rec)
		if err != nil {
			t.Fatal(err)
		}
		dAfter, err := after.ParseXMLString(rec)
		if err != nil {
			t.Fatal(err)
		}
		for i := range srcs {
			if got, want := selectPaths(t, early[i], dBefore), selectPaths(t, late[i], dAfter); got != want {
				t.Errorf("%s over %s: Select differs by compile order:\n%s---\n%s", srcs[i], rec, got, want)
			}
		}
	}
	for i, q := range early {
		if q.Compiled() != first[i] {
			t.Errorf("%s: recompiled after the alphabet grew", srcs[i])
		}
	}
}

// TestStableQueriesCompiledInTurnShareAFleet pins the fleet over views:
// eight '.'-free queries compiled one after another on one engine, each
// interning a fresh label (and so compiled against its own alphabet
// view), keep their compilations and evaluate as one fleet.
func TestStableQueriesCompiledInTurnShareAFleet(t *testing.T) {
	eng := NewEngine()
	var cqs []*core.CompiledQuery
	for k := 0; k < 8; k++ {
		q, err := eng.CompileQuery(fmt.Sprintf("figure topic%d doc*", k))
		if err != nil {
			t.Fatal(err)
		}
		cqs = append(cqs, q.cq.Load())
		if k > 0 && cqs[k].Names == cqs[k-1].Names {
			t.Fatalf("query %d shares its predecessor's alphabet view: no fresh label", k)
		}
	}
	fleets := core.AppendFleets(nil, cqs)
	if len(fleets) != 1 || fleets[0].Len() != 8 {
		t.Fatalf("8 queries form %d fleets, want one of 8", len(fleets))
	}
	d, err := eng.ParseXMLString("<corpus><doc><topic3><figure/></topic3></doc><doc><topic5><figure/></topic5></doc></corpus>")
	if err != nil {
		t.Fatal(err)
	}
	h := d.Hedge()[0].Children
	var got []string
	fleets[0].Each(h, ^uint64(0), func(m int, p hedge.Path, _ *hedge.Node) bool {
		got = append(got, fmt.Sprintf("q%d@%s", m, p))
		return true
	})
	if want := "[q3@1.1.1 q5@2.1.1]"; fmt.Sprint(got) != want {
		t.Fatalf("fleet located %v, want %s", got, want)
	}
}

// TestChurnMissesOncePerRegistration pins what a churning vocabulary
// costs the compiled-query cache: each iteration registers a query naming
// a never-seen label, then evaluates eight feed queries in one shared
// pass, and adds exactly one cache miss, the registration's own compile.
// The feed queries hold no '.', so the grown alphabet does not recompile
// them.
func TestChurnMissesOncePerRegistration(t *testing.T) {
	eng := NewEngine()
	var qs []*Query
	for k := 0; k < 8; k++ {
		q, err := eng.CompileQuery(fmt.Sprintf("figure topic%d doc*", k))
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	corpus, _ := stableCorpus(t)
	post := func() {
		var n int64
		if _, err := eng.SelectStreamMulti(context.Background(), strings.NewReader(corpus), qs, SelectOptions{},
			func(MultiStreamMatch) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		if n != 4 {
			t.Fatalf("feed located %d nodes, want 4", n)
		}
	}
	post()
	for i := 0; i < 16; i++ {
		m0 := eng.Stats().Cache.Misses
		if _, err := eng.CompileQuery(fmt.Sprintf("figure w%04dq doc*", i)); err != nil {
			t.Fatal(err)
		}
		post()
		if d := eng.Stats().Cache.Misses - m0; d != 1 {
			t.Fatalf("iteration %d: %d cache misses, want 1", i, d)
		}
	}
}

// TestTextUnderDotStreamDivergence pins a divergence between streams and
// in-memory selection. Only ParseXML interns the text variable #text, and
// a '.'-side ranges over the variables interned when it is compiled. So a
// '.'-side accepts a text leaf in Select, but in SelectStream only on an
// engine that has parsed some document first: on one that has only
// compiled queries, the text leaf falls outside '.'. An open-world '.'
// would flip the last case; a change that does so must update this test.
func TestTextUnderDotStreamDivergence(t *testing.T) {
	const src = "[* ; figure ; table .] (section|doc)*"
	const doc = "<doc><section><figure/><table/><para>abc</para></section></doc>"
	streamed := func(eng *Engine, q *Query) int {
		st, err := eng.SelectStream(context.Background(), strings.NewReader("<feed>"+doc+"</feed>"), q,
			SelectOptions{}, func(StreamMatch) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		return int(st.Matches)
	}
	compiled := func() (*Engine, *Query) {
		eng := NewEngine()
		q, err := eng.CompileQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		return eng, q
	}

	eng, q := compiled()
	d, err := eng.ParseXMLString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(q.Select(d)); n != 1 {
		t.Errorf("Select located %d nodes, want 1", n)
	}
	if n := streamed(eng, q); n != 1 {
		t.Errorf("SelectStream after a ParseXML located %d nodes, want 1", n)
	}
	eng, q = compiled()
	if n := streamed(eng, q); n != 0 {
		t.Errorf("SelectStream on an engine that only compiled located %d nodes, want 0 (the divergence)", n)
	}
}
