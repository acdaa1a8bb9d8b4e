package xmlhedge

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"xpe/internal/hedge"
	"xpe/internal/metrics"
	"xpe/internal/trace"
)

func TestNewPrefilter(t *testing.T) {
	if p := NewPrefilter(nil); p != nil {
		t.Errorf("NewPrefilter(nil) = %v, want nil", p)
	}
	if p := NewPrefilter([]string{"", ""}); p != nil {
		t.Errorf("NewPrefilter of empties = %v, want nil", p)
	}
	p := NewPrefilter([]string{"b", "a", "b", ""})
	if p == nil {
		t.Fatal("NewPrefilter returned nil for a real label set")
	}
	if got := p.Labels(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Labels() = %v, want [a b]", got)
	}
}

func TestLocalName(t *testing.T) {
	for raw, want := range map[string]string{
		"price":     "price",
		"ns:price":  "price",
		"a:b:price": "b:price", // prefix stripped at the first colon only
		":price":    ":price",  // a leading colon is no prefix separator
		"a:":        "a:",      // nor is a trailing one, as in encoding/xml
		"p":         "p",
	} {
		if got := string(localName([]byte(raw))); got != want {
			t.Errorf("localName(%q) = %q, want %q", raw, got, want)
		}
	}
}

// TestPrefilterTagNameRule pins the exact presence rule: a label is present
// when it is the local name of the record root or of a start tag in the
// record (self-closing or not) — byte-exact, prefix stripped at the first
// colon — and never because it occurs in an attribute name or value, text,
// a comment or a CDATA section. Each case is one record; the whole table
// also runs through the differential harness, so no rule change can lose a
// match.
func TestPrefilterTagNameRule(t *testing.T) {
	cases := []struct {
		record, label string
		keep          bool
	}{
		{`<e><price>1</price></e>`, "price", true},
		{`<e><x><price/></x></e>`, "price", true}, // self-closing, nested
		{`<e><ns:price/></e>`, "price", true},
		{`<e><ns:price/></e>`, "ns:price", false}, // labels are local names
		{`<e><a:b:price/></e>`, "price", false},   // local name is b:price
		{`<e><a:b:price/></e>`, "b:price", true},
		{`<e><:price/></e>`, "price", false}, // local name is :price
		{`<e><:price/></e>`, ":price", true},
		{`<e><Price/></e>`, "price", false}, // byte-exact: case matters
		{`<e><Price/></e>`, "Price", true},
		{`<e><priceList/><aprice/></e>`, "price", false},
		{`<e><x price="1"/></e>`, "price", false},    // attribute name
		{`<e><x a="<price/>"/></e>`, "price", false}, // attribute value
		{`<e price="1"/>`, "price", false},           // self-closing root's attribute
		{`<e>price</e>`, "price", false},
		{`<e><!--<price/>--></e>`, "price", false},
		{`<e><![CDATA[<price/>]]></e>`, "price", false},
		{`<e><?price?></e>`, "price", false},
		{`<price><x/></price>`, "price", true}, // the record root
		{`<price/>`, "price", true},            // a self-closing root
		{`<ns:price><x/></ns:price>`, "price", true},
	}
	var all strings.Builder
	all.WriteString("<f>")
	for _, c := range cases {
		rr := NewRecordReader(strings.NewReader("<f>"+c.record+"</f>"),
			RecordOptions{Prefilter: NewPrefilter([]string{c.label})})
		// One record: delivered when kept, else skipped straight to EOF.
		_, err := rr.Read(nil)
		if kept := err == nil; kept != c.keep || (!kept && err != io.EOF) {
			t.Errorf("%s, label %q: kept = %v (err %v), want %v", c.record, c.label, kept, err, c.keep)
		}
		all.WriteString(c.record)
	}
	all.WriteString("</f>")
	for _, l := range []string{"price", "b:price", ":price", "Price"} {
		runSplitDiff(t, all.String(), RecordOptions{}, []string{l})
	}
}

// hedgeHasLabel reports whether some element of the hedge is named label.
func hedgeHasLabel(h hedge.Hedge, label string) bool {
	return groupVerdict(h, [][]string{{label}})[0]
}

func TestPrefilterSkipsNonMatching(t *testing.T) {
	input := `<feed>` +
		`<e><price>1</price></e>` +
		`<e><name>x</name></e>` +
		`<e><a><price>2</price></a></e>` +
		`<e>plain text</e>` +
		`</feed>`
	var sink metrics.Split
	opts := RecordOptions{
		Prefilter: NewPrefilter([]string{"price"}),
		Metrics:   &sink,
	}
	rr := NewRecordReader(strings.NewReader(input), opts)
	var recs []Record
	for {
		rec, err := rr.Read(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2 (two skipped)", len(recs))
	}
	// Skipped records burn their indices and sibling slots.
	if recs[0].Index != 0 || recs[1].Index != 2 {
		t.Errorf("indices = %d,%d, want 0,2", recs[0].Index, recs[1].Index)
	}
	want0, want2 := hedge.Path{0, 0}, hedge.Path{0, 2}
	if recs[0].Path.String() != want0.String() || recs[1].Path.String() != want2.String() {
		t.Errorf("paths = %s,%s, want %s,%s", recs[0].Path, recs[1].Path, want0, want2)
	}
	if got := rr.Prefiltered(); got != 2 {
		t.Errorf("Prefiltered() = %d, want 2", got)
	}
	s := sink.Snapshot()
	if s.RecordsPrefiltered != 2 {
		t.Errorf("records_prefiltered = %d, want 2", s.RecordsPrefiltered)
	}
	if s.Records != 2 {
		t.Errorf("records = %d, want 2 (skipped records are not parsed)", s.Records)
	}
	// All input bytes flow through consume either way.
	if s.Bytes != int64(len(input)) {
		t.Errorf("bytes = %d, want %d", s.Bytes, len(input))
	}
}

func TestPrefilterRootNameCounts(t *testing.T) {
	// The required label is the record root itself: nothing may be skipped.
	input := `<feed><price/><price>x</price></feed>`
	rr := NewRecordReader(strings.NewReader(input),
		RecordOptions{Prefilter: NewPrefilter([]string{"price"})})
	n := 0
	for {
		_, err := rr.Read(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 2 || rr.Prefiltered() != 0 {
		t.Fatalf("records = %d (skipped %d), want 2 delivered, 0 skipped", n, rr.Prefiltered())
	}
}

func TestPrefilterSelfCloseRoot(t *testing.T) {
	input := `<feed><e/><e><price/></e><e attr="price"/></feed>`
	rr := NewRecordReader(strings.NewReader(input),
		RecordOptions{Prefilter: NewPrefilter([]string{"price"})})
	var recs []Record
	for {
		rec, err := rr.Read(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 1 || recs[0].Index != 1 {
		t.Fatalf("records = %v, want only index 1", recs)
	}
	if rr.Prefiltered() != 2 {
		t.Fatalf("Prefiltered() = %d, want 2 (both self-closing roots)", rr.Prefiltered())
	}
}

func TestPrefilterNamespacePrefix(t *testing.T) {
	// The tokenizer strips namespace prefixes, so <ns:price> satisfies the
	// required label "price" and the skim must agree.
	input := `<feed><e><ns:price>1</ns:price></e><e><ns:other/></e></feed>`
	rr := NewRecordReader(strings.NewReader(input),
		RecordOptions{Prefilter: NewPrefilter([]string{"price"})})
	var recs []Record
	for {
		rec, err := rr.Read(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 1 || recs[0].Index != 0 {
		t.Fatalf("records = %d, want the prefixed-price record only", len(recs))
	}
	if !hedgeHasLabel(recs[0].Hedge, "price") {
		t.Fatalf("delivered record lacks price: %s", recs[0].Hedge)
	}
}

func TestPrefilterDecoysSkipped(t *testing.T) {
	// The label appears only in a comment, a CDATA section, and an attribute
	// value. None of the three records holds a price element, so the exact
	// rule skips all three along with the clean record.
	input := `<feed>` +
		`<e><!-- <price/> --><x/></e>` +
		`<e><![CDATA[<price/>]]></e>` +
		`<e><x a="<price/>"/></e>` +
		`<e><y/></e>` +
		`<e><price/></e>` +
		`</feed>`
	rr := NewRecordReader(strings.NewReader(input),
		RecordOptions{Prefilter: NewPrefilter([]string{"price"})})
	var idx []int
	for {
		rec, err := rr.Read(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		idx = append(idx, rec.Index)
	}
	if len(idx) != 1 || idx[0] != 4 {
		t.Fatalf("delivered indices = %v, want [4]", idx)
	}
	if rr.Prefiltered() != 4 {
		t.Fatalf("Prefiltered() = %d, want 4", rr.Prefiltered())
	}
	runSplitDiff(t, input, RecordOptions{}, []string{"price"})
}

func TestPrefilterInvalidEntityParsesNormally(t *testing.T) {
	// The record lacks the label but contains an entity the tokenizer
	// rejects: the skim must not skip it, so the parse error surfaces
	// exactly as without a prefilter.
	input := `<feed><e>&bogus;</e><e><price/></e></feed>`
	for _, pf := range []*Prefilter{nil, NewPrefilter([]string{"price"})} {
		rr := NewRecordReader(strings.NewReader(input), RecordOptions{Split: "e", Prefilter: pf})
		_, err := rr.Read(nil)
		if err == nil || err == io.EOF {
			t.Fatalf("prefilter=%v: err = %v, want entity syntax error", pf != nil, err)
		}
		if !rr.CanRecover() {
			t.Fatalf("prefilter=%v: entity error not recoverable under a named split", pf != nil)
		}
		if rerr := rr.Recover(); rerr != nil {
			t.Fatal(rerr)
		}
		rec, err := rr.Read(nil)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Index != 1 || !hedgeHasLabel(rec.Hedge, "price") {
			t.Fatalf("prefilter=%v: recovered record = %d %s", pf != nil, rec.Index, rec.Hedge)
		}
	}
}

func TestPrefilterValidEntitiesSkip(t *testing.T) {
	// Valid entities in a label-free record do not spook the skim.
	input := `<feed><e>a &lt; b &#65; &#x41; &amp;</e><e><price/></e></feed>`
	rr := NewRecordReader(strings.NewReader(input),
		RecordOptions{Prefilter: NewPrefilter([]string{"price"})})
	rec, err := rr.Read(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Index != 1 || rr.Prefiltered() != 1 {
		t.Fatalf("record %d, skipped %d; want record 1 after 1 skip", rec.Index, rr.Prefiltered())
	}
}

// TestPrefilterSelfCloseRootLimits: a self-closing record root is skimmed
// like any record, so a label-free one over the byte budget fails as it
// does unfiltered instead of being skipped.
func TestPrefilterSelfCloseRootLimits(t *testing.T) {
	input := `<f><e a="0123456789"/><e/><e><price/></e></f>`
	runSplitDiff(t, input, RecordOptions{MaxBytes: 8}, []string{"price"})
	runSplitDiff(t, input, RecordOptions{MaxStreamBytes: 20}, []string{"price"})
}

// TestPrefilterSkipsDirective: the skim reads a directive inside a record
// by the tokenizer's own directive rule, nested brackets and quotes
// included, so a label-free record holding one is skipped like any other.
func TestPrefilterSkipsDirective(t *testing.T) {
	input := `<feed><e><!X y><x/></e><e><!Y [<!Z "]>">]><y/></e><e><price/></e></feed>`
	rr := NewRecordReader(strings.NewReader(input),
		RecordOptions{Prefilter: NewPrefilter([]string{"price"})})
	rec, err := rr.Read(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Index != 2 || rr.Prefiltered() != 2 {
		t.Fatalf("record %d, skipped %d; want record 2 after 2 skips", rec.Index, rr.Prefiltered())
	}
	runSplitDiff(t, input, RecordOptions{}, []string{"price"})
}

// TestSkippedMarkupNotBuffered: a 4 MiB comment and a 4 MiB processing
// instruction between records pass through the read buffer a window at a
// time, with or without a prefilter, and the line count stays exact across
// them.
func TestSkippedMarkupNotBuffered(t *testing.T) {
	body := strings.Repeat("nineteen bytes, \n ", 4<<20/19)
	input := "<feed>\n<e><x/></e><!--" + body + "--><e><price/></e><?pi " + body + "?><e><y/></e>\n</oops>"
	lines := 1 + strings.Count(input, "\n")
	for _, pf := range []*Prefilter{nil, NewPrefilter([]string{"price"})} {
		rr := NewRecordReader(strings.NewReader(input), RecordOptions{Prefilter: pf})
		var err error
		for err == nil {
			_, err = rr.Read(nil)
		}
		var se *xml.SyntaxError
		if !errors.As(err, &se) || se.Line != lines {
			t.Errorf("prefilter=%v: err = %v, want a syntax error on line %d", pf != nil, err, lines)
		}
		if got := len(rr.tr.buf); got >= 64<<10 {
			t.Errorf("prefilter=%v: read buffer grew to %d bytes", pf != nil, got)
		}
	}
}

func TestPrefilterRespectsLimits(t *testing.T) {
	// A label-free record that exceeds MaxNodes must fail like an unfiltered
	// run — a silent skip would hide the limit violation.
	input := `<feed><e><a/><b/><c/><d/></e></feed>`
	rr := NewRecordReader(strings.NewReader(input),
		RecordOptions{MaxNodes: 3, Prefilter: NewPrefilter([]string{"price"})})
	_, err := rr.Read(nil)
	var le *LimitError
	if !errors.As(err, &le) || le.Kind != "nodes" {
		t.Fatalf("err = %v, want nodes LimitError despite the prefilter", err)
	}

	// Same for MaxDepth.
	rr = NewRecordReader(strings.NewReader(`<feed><e><a><b/></a></e></feed>`),
		RecordOptions{MaxDepth: 2, Prefilter: NewPrefilter([]string{"price"})})
	_, err = rr.Read(nil)
	if !errors.As(err, &le) || le.Kind != "depth" {
		t.Fatalf("err = %v, want depth LimitError despite the prefilter", err)
	}

	// And MaxBytes.
	big := `<feed><e>` + strings.Repeat("<pad>xxxx</pad>", 64) + `</e></feed>`
	rr = NewRecordReader(strings.NewReader(big),
		RecordOptions{Split: "e", MaxBytes: 128, Prefilter: NewPrefilter([]string{"price"})})
	_, err = rr.Read(nil)
	if !errors.As(err, &le) || le.Kind != "bytes" {
		t.Fatalf("err = %v, want bytes LimitError despite the prefilter", err)
	}

	// Within the limits the skip happens.
	rr = NewRecordReader(strings.NewReader(`<feed><e><a/></e><e><price/></e></feed>`),
		RecordOptions{MaxNodes: 10, MaxDepth: 10, MaxBytes: 1 << 16,
			Prefilter: NewPrefilter([]string{"price"})})
	rec, rerr := rr.Read(nil)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if rec.Index != 1 || rr.Prefiltered() != 1 {
		t.Fatalf("record %d, skipped %d; want record 1 after 1 skip", rec.Index, rr.Prefiltered())
	}
}

func TestPrefilterLargeRecordGrowsLookahead(t *testing.T) {
	// A skippable record far larger than the reader's 4 KiB buffer: the
	// lookahead must grow to hold it, and everything after it must parse
	// intact.
	var b strings.Builder
	b.WriteString("<feed><e>")
	for i := 0; i < 2000; i++ {
		b.WriteString("<row>some text content here</row>")
	}
	b.WriteString("</e><e><price>1</price></e></feed>")
	rr := NewRecordReader(strings.NewReader(b.String()),
		RecordOptions{Prefilter: NewPrefilter([]string{"price"})})
	rec, err := rr.Read(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Index != 1 || rr.Prefiltered() != 1 {
		t.Fatalf("record %d, skipped %d; want record 1 after skipping the big record", rec.Index, rr.Prefiltered())
	}
	if _, err := rr.Read(nil); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestPrefilterLookaheadCapParsesNormally(t *testing.T) {
	// A record bigger than the lookahead cap is parsed, not skipped: the
	// prefilter bounds its own memory, never correctness.
	var b strings.Builder
	b.WriteString("<feed><e>")
	row := "<row>" + strings.Repeat("x", 1024) + "</row>"
	for i := 0; i < (prefilterLookahead/len(row))+4; i++ {
		b.WriteString(row)
	}
	b.WriteString("</e></feed>")
	rr := NewRecordReader(strings.NewReader(b.String()),
		RecordOptions{Prefilter: NewPrefilter([]string{"price"})})
	rec, err := rr.Read(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Prefiltered() != 0 {
		t.Fatalf("Prefiltered() = %d, want 0 (over the lookahead cap)", rr.Prefiltered())
	}
	if rec.Nodes < prefilterLookahead/len(row) {
		t.Fatalf("big record came back with %d nodes", rec.Nodes)
	}
}

func TestPrefilterResyncAfterSkip(t *testing.T) {
	// Chaos interplay: a skip immediately before a malformed record. The
	// skipped bytes must have flowed through the tail window so the resync
	// scan can re-anchor, and no healthy record may be lost or renumbered.
	doc := `<f>` +
		`<r><id>0</id><price/></r>` + // delivered
		`<r><id>1</id><x/></r>` + // skipped by prefilter
		`<r><id>2</id><price/><a></b></r>` + // malformed: resync
		`<r><id>3</id><price/></r>` + // delivered (degraded mode)
		`<r><id>4</id></r>` + // delivered: prefiltering is off while degraded
		`<r><id>5</id><price/></r>` + // delivered
		`</f>`
	sink := trace.NewEventSink()
	rr := NewRecordReader(strings.NewReader(doc),
		RecordOptions{Split: "r", Prefilter: NewPrefilter([]string{"price"}), Events: sink})
	recs, fails, terminal := readAllSkip(t, rr)
	if terminal != nil {
		t.Fatalf("terminal error: %v", terminal)
	}
	if len(fails) != 1 {
		t.Fatalf("failures = %d, want 1: %v", len(fails), fails)
	}
	var rpe *RecordParseError
	if !errors.As(fails[0], &rpe) || rpe.Index != 2 {
		t.Fatalf("failure = %v, want RecordParseError for record 2", fails[0])
	}
	got := ids(recs)
	want := []string{"0", "3", "4", "5"}
	if len(got) != len(want) {
		t.Fatalf("ids = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ids = %v, want %v", got, want)
		}
	}
	for i, idx := range []int{0, 3, 4, 5} {
		if recs[i].Index != idx {
			t.Fatalf("record %d index = %d, want %d", i, recs[i].Index, idx)
		}
	}
	var pfEvents int
	for _, e := range sink.Drain() {
		if e.Name == "prefilter" {
			pfEvents++
		}
	}
	if int64(pfEvents) != rr.Prefiltered() {
		t.Fatalf("prefilter events = %d, counter = %d", pfEvents, rr.Prefiltered())
	}
	if rr.Prefiltered() < 1 {
		t.Fatalf("Prefiltered() = %d, want at least the pre-resync skip", rr.Prefiltered())
	}
}

// runSplitDiff drains the same input through an unfiltered reader and one
// filtered by the requirement groups and checks the differential contract: the
// filtered reader delivers a subset of the unfiltered records (identical
// index, path, and hedge); every dropped record's element names satisfy no
// group; every delivered record's Hint is HintAll (the skim aborted) or
// exactly the per-group verdict its element names give; every failure and
// the terminal outcome agree exactly; and both consume the whole input.
func runSplitDiff(t *testing.T, input string, opts RecordOptions, groups ...[]string) {
	t.Helper()
	type outcome struct {
		recs  []Record
		fails []string
		term  string
		off   int64
		pre   int64
	}
	run := func(pf *Prefilter) outcome {
		o := opts
		o.Prefilter = pf
		rr := NewRecordReader(strings.NewReader(input), o)
		var out outcome
		for i := 0; i < 1<<14; i++ {
			rec, err := rr.Read(nil)
			if err == io.EOF {
				break
			}
			if err != nil {
				if !rr.CanRecover() {
					out.term = err.Error()
					break
				}
				out.fails = append(out.fails, err.Error())
				if rerr := rr.Recover(); rerr != nil {
					out.term = rerr.Error()
					break
				}
				continue
			}
			out.recs = append(out.recs, rec)
		}
		out.off = rr.InputOffset()
		out.pre = rr.Prefiltered()
		return out
	}
	pf := NewMultiPrefilter(groups)
	plain := run(nil)
	filt := run(pf)

	if plain.term != filt.term {
		t.Fatalf("terminal outcomes diverge:\nplain: %q\nfilt:  %q", plain.term, filt.term)
	}
	if len(plain.fails) != len(filt.fails) {
		t.Fatalf("failure counts diverge: plain %v, filtered %v", plain.fails, filt.fails)
	}
	for i := range plain.fails {
		if plain.fails[i] != filt.fails[i] {
			t.Fatalf("failure %d diverges:\nplain: %q\nfilt:  %q", i, plain.fails[i], filt.fails[i])
		}
	}
	byIndex := make(map[int]Record, len(plain.recs))
	for _, r := range plain.recs {
		byIndex[r.Index] = r
	}
	seen := make(map[int]bool, len(filt.recs))
	for _, r := range filt.recs {
		p, ok := byIndex[r.Index]
		if !ok {
			t.Fatalf("filtered delivered record %d the plain run never produced", r.Index)
		}
		seen[r.Index] = true
		if p.Path.String() != r.Path.String() || !p.Hedge.Equal(r.Hedge) || p.Nodes != r.Nodes {
			t.Fatalf("record %d diverges: plain %s %s, filtered %s %s",
				r.Index, p.Path, p.Hedge, r.Path, r.Hedge)
		}
		if pf == nil || (r.Hint.W0 == HintAll.W0 && r.Hint.More == nil) {
			continue
		}
		want := groupVerdict(r.Hedge, groups)
		for g := range groups {
			if r.Hint.Allows(g) != want[g] {
				t.Fatalf("record %d: Hint.Allows(%d) = %v, but its element names give %v (groups %q): %s",
					r.Index, g, r.Hint.Allows(g), want[g], groups, r.Hedge)
			}
		}
	}
	dropped := 0
	for _, p := range plain.recs {
		if seen[p.Index] {
			continue
		}
		dropped++
		for g, ok := range groupVerdict(p.Hedge, groups) {
			if ok {
				t.Fatalf("record %d was skipped but satisfies group %d %q: %s",
					p.Index, g, groups[g], p.Hedge)
			}
		}
	}
	if int64(dropped) != filt.pre {
		t.Fatalf("dropped %d records but Prefiltered() = %d", dropped, filt.pre)
	}
	if plain.term == "" && plain.off != filt.off {
		t.Fatalf("input offsets diverge: plain %d, filtered %d", plain.off, filt.off)
	}
}

// groupVerdict is the prefilter verdict recomputed from a parsed record:
// group g is satisfied when each of its non-empty labels is the name of
// some element in the hedge.
func groupVerdict(h hedge.Hedge, groups [][]string) []bool {
	names := map[string]bool{}
	var walk func(n *hedge.Node)
	walk = func(n *hedge.Node) {
		if n.Kind == hedge.Elem {
			names[n.Name] = true
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, n := range h {
		walk(n)
	}
	out := make([]bool, len(groups))
	for g, labels := range groups {
		out[g] = true
		for _, l := range labels {
			if l != "" && !names[l] {
				out[g] = false
			}
		}
	}
	return out
}

// TestPrefilterDifferentialCorpus runs the differential harness over
// inputs that pin the skim's agreement with the tokenizer: structure,
// limits, recovery, and the line numbers of errors after skipped records.
func TestPrefilterDifferentialCorpus(t *testing.T) {
	labels := []string{"price"}
	corpus := []struct {
		name, input string
		opts        RecordOptions
	}{
		{"mixed", `<f><e><price>1</price></e><e><x/></e><e><a><price/></a></e></f>`, RecordOptions{}},
		{"named-split", `<db><g><item><price/></item><item><x/></item></g><item/></db>`, RecordOptions{Split: "item"}},
		{"self-close", `<f><e/><e><price/></e><e/></f>`, RecordOptions{}},
		{"comments", `<f><e><!--price--><x/></e><e><price/><!--x--></e></f>`, RecordOptions{}},
		{"cdata", `<f><e><![CDATA[<price/>]]></e><e><price/></e></f>`, RecordOptions{}},
		{"entities", `<f><e>&amp;&lt;&#65;</e><e><price>&gt;</price></e></f>`, RecordOptions{}},
		{"bad-entity", `<f><e>&nope;</e><e><price/></e></f>`, RecordOptions{Split: "e"}},
		{"attrs", `<f><e a="price" b='<price>'><x/></e><e c="1"><price/></e></f>`, RecordOptions{}},
		{"prefixes", `<f><e><ns:price/></e><e><ns:x/></e></f>`, RecordOptions{}},
		{"malformed-mid", `<f><e><x/></e><e><a></b></e><e><price/></e></f>`, RecordOptions{Split: "e"}},
		{"truncated", `<f><e><x/></e><e><price>`, RecordOptions{Split: "e"}},
		{"limits", `<f><e><a/><b/><c/><d/></e><e><price/></e></f>`, RecordOptions{MaxNodes: 4}},
		{"depth-limit", `<f><e><a><b><c/></b></a></e><e><price/></e></f>`, RecordOptions{MaxDepth: 3}},
		{"whitespace", "<f>\n  <e>\n    <x/>\n  </e>\n  <e><price/></e>\n</f>", RecordOptions{}},
		{"keep-ws", "<f><e> <x/> </e><e><price/></e></f>", RecordOptions{KeepWhitespace: true}},
		{"pi-doctype", `<?xml version="1.0"?><f><e><?pi data?><x/></e><e><price/></e></f>`, RecordOptions{}},
		{"text-between", `<db>text<item><x/></item>more<item><price/></item></db>`, RecordOptions{Split: "item"}},
		{"nested-split", `<db><item><item><price/></item></item></db>`, RecordOptions{Split: "item"}},
		// A root closed by another name must fail as unfiltered, not skip.
		{"root-close-case", `<f><e><x/></E><e><price/></e></f>`, RecordOptions{}},
		{"root-close-other", `<A><A></B>`, RecordOptions{}},
		// Whitespace-only runs are text nodes under KeepWhitespace, so
		// they count toward MaxNodes.
		{"keep-ws-limit", "<f><e> <a/> <b/> </e><e><price/></e></f>", RecordOptions{KeepWhitespace: true, MaxNodes: 4}},
		// A lone CR counts as a line in text and CDATA only; errors after
		// a skipped record must report the unfiltered line.
		{"cr-comment", "<f><e><!-- a\rb --><x/></e><e><x/></e><e><a></b></e></f>", RecordOptions{Split: "e"}},
		{"cr-tag-space", "<f><e><x\ra='1'/></e><e><a></b></e></f>", RecordOptions{Split: "e"}},
		{"cr-attr-value", "<f><e><x a='1\r2'/></e><e><a></b></e></f>", RecordOptions{Split: "e"}},
		{"cr-pi", "<f><e><?pi a\rb?><x/></e><e><a></b></e></f>", RecordOptions{Split: "e"}},
		{"cr-text", "<f><e>a\rb\r\nc\r</e><e><a></b></e></f>", RecordOptions{Split: "e"}},
		{"cr-cdata", "<f><e><![CDATA[a\rb\r\nc\r]]></e><e><a></b></e></f>", RecordOptions{Split: "e"}},
		// A CDATA section longer than the skim's search chunk, read after a
		// pin has grown the buffer and the input has ended.
		{"long-cdata", "<f><e><![CDATA[" + strings.Repeat("a", 15000) + "]]></e></f>", RecordOptions{}},
		{"long-cdata-kept", "<f><e><price/><![CDATA[" + strings.Repeat("a", 15000) + "]]></e></f>", RecordOptions{}},
	}
	for _, c := range corpus {
		c := c
		t.Run(c.name, func(t *testing.T) {
			runSplitDiff(t, c.input, c.opts, labels)
		})
	}
}

// FuzzPrefilterDifferential holds the prefiltered reader to the unfiltered
// reader's observable behavior on arbitrary input, with and without
// KeepWhitespace: identical failures and terminal outcome, identical
// surviving records carrying exact verdicts, and only records that satisfy
// no group skipped. groupsCSV separates requirement groups with ';' and a
// group's labels with ','.
func FuzzPrefilterDifferential(f *testing.F) {
	f.Add(`<f><e><price/></e><e><x/></e></f>`, "", "price", 0, 0)
	f.Add(`<f><r><a/></r><r><a></b></r><r><price/></r></f>`, "r", "price", 0, 0)
	f.Add(`<f><e>&#65;&bad;</e><e><price/></e></f>`, "e", "price", 0, 0)
	f.Add(`<f><e><a/><b/><c/></e></f>`, "", "price", 3, 0)
	f.Add(`<f><e><!--<price/>--></e></f>`, "", "price", 0, 4)
	f.Add(`<f><e><ns:price a="x"/></e><e/></f>`, "", "price,name", 0, 0)
	f.Add(`<f><e><x/></E><e><price/></e></f>`, "", "price", 0, 0)
	f.Add(`<A><A></B>`, "", "0", 0, 0)
	f.Add("<f><e><!-- a\rb --><x/></e><e><x/></e><e><a></b></e></f>", "e", "price", 0, 0)
	f.Add(`<f><e><figure/><t1/></e><e><t2/></e><e><figure/></e></f>`, "", "figure,t1;figure,t2;;t2", 0, 0)
	f.Fuzz(func(t *testing.T, xmlStr, split, groupsCSV string, maxNodes, maxDepth int) {
		if maxNodes < 0 || maxNodes > 1<<12 || maxDepth < 0 || maxDepth > 1<<8 {
			return
		}
		if len(xmlStr) > 1<<16 || len(split) > 32 || len(groupsCSV) > 64 {
			return
		}
		var groups [][]string
		labels := 0
		for _, g := range strings.Split(groupsCSV, ";") {
			var group []string
			for _, l := range strings.Split(g, ",") {
				if l != "" {
					group = append(group, l)
					labels++
				}
			}
			groups = append(groups, group)
		}
		if labels == 0 {
			return
		}
		for _, keepWS := range []bool{false, true} {
			opts := RecordOptions{Split: split, MaxNodes: maxNodes, MaxDepth: maxDepth, KeepWhitespace: keepWS}
			runSplitDiff(t, xmlStr, opts, groups...)
		}
	})
}

// TestPrefilterManyRecords pushes enough skips through one reader to cross
// several buffer refills and exercise slot accounting at scale.
func TestPrefilterManyRecords(t *testing.T) {
	var b strings.Builder
	b.WriteString("<feed>")
	var wantIdx []int
	for i := 0; i < 500; i++ {
		if i%7 == 0 {
			b.WriteString("<e><id>" + strconv.Itoa(i) + "</id><price>1</price></e>")
			wantIdx = append(wantIdx, i)
		} else {
			b.WriteString("<e><id>" + strconv.Itoa(i) + "</id><other/></e>")
		}
	}
	b.WriteString("</feed>")
	rr := NewRecordReader(strings.NewReader(b.String()),
		RecordOptions{Prefilter: NewPrefilter([]string{"price"})})
	var got []int
	for {
		rec, err := rr.Read(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rec.Index)
		if want := (hedge.Path{0, rec.Index}); rec.Path.String() != want.String() {
			t.Fatalf("record %d path = %s, want %s", rec.Index, rec.Path, want)
		}
	}
	if len(got) != len(wantIdx) {
		t.Fatalf("delivered %d records, want %d", len(got), len(wantIdx))
	}
	for i := range wantIdx {
		if got[i] != wantIdx[i] {
			t.Fatalf("indices = %v..., want %v...", got[:i+1], wantIdx[:i+1])
		}
	}
	if rr.Prefiltered() != int64(500-len(wantIdx)) {
		t.Fatalf("Prefiltered() = %d, want %d", rr.Prefiltered(), 500-len(wantIdx))
	}
}

func TestHintAllows(t *testing.T) {
	for _, i := range []int{0, 1, 63, 64, 127, 128, 1000} {
		if !HintAll.Allows(i) {
			t.Errorf("HintAll.Allows(%d) = false, want true", i)
		}
	}
	h := Hint{W0: 1 << 5}
	if !h.Allows(5) || h.Allows(4) || h.Allows(6) || h.Allows(63) {
		t.Errorf("Hint{W0:1<<5}: word-0 gating wrong")
	}
	// Words beyond len(More) read all-ones: absent evidence never gates.
	if !h.Allows(64) || !h.Allows(200) {
		t.Errorf("Hint{W0:1<<5}: missing overflow words must allow")
	}
	h2 := Hint{More: []uint64{1 << 3}}
	if !h2.Allows(67) || h2.Allows(66) || h2.Allows(68) || h2.Allows(3) {
		t.Errorf("Hint{More:[1<<3]}: overflow-word gating wrong")
	}
	if !h2.Allows(128) {
		t.Errorf("Hint{More:[1<<3]}: Allows(128) = false, want true (beyond More)")
	}
	// Word(lo) packs Allows(lo) to Allows(lo+63), across word boundaries
	// and past the last word.
	for _, hint := range []Hint{HintAll, h, h2, {W0: 0xf0f0, More: []uint64{0x0ff0, 1 << 63}}} {
		for _, lo := range []int{0, 3, 32, 63, 64, 100, 127, 128, 190} {
			w := hint.Word(lo)
			for i := 0; i < 64; i++ {
				if got := w&(1<<uint(i)) != 0; got != hint.Allows(lo+i) {
					t.Fatalf("%+v.Word(%d) bit %d = %v, Allows(%d) = %v", hint, lo, i, got, lo+i, !got)
				}
			}
		}
	}
	if !(Hint{}).zero() || !(Hint{More: []uint64{0}}).zero() {
		t.Error("all-clear hints must report zero()")
	}
	if (Hint{W0: 1}).zero() || (Hint{More: []uint64{0, 2}}).zero() {
		t.Error("non-empty hints must not report zero()")
	}
}

// TestPrefilterWideGroupVerdicts pins the multi-word verdict path: with
// more than 64 requirement groups, hint bits past group 63 live in the
// overflow words and must keep gating per group instead of degrading to
// evaluate-everything. Each kept record satisfies exactly one group; the
// verdict must allow that group and gate off all others, on both sides of
// the 64-bit word boundary.
func TestPrefilterWideGroupVerdicts(t *testing.T) {
	const n = 70
	groups := make([][]string, n)
	for i := range groups {
		groups[i] = []string{"l" + strconv.Itoa(100+i)}
	}
	pf := NewMultiPrefilter(groups)
	if pf == nil {
		t.Fatalf("NewMultiPrefilter returned nil for %d groups", n)
	}
	keep := []int{0, 31, 63, 64, 65, 69}
	var b strings.Builder
	b.WriteString("<feed>")
	for _, k := range keep {
		// One record satisfying exactly group k, then a decoy no group
		// requires — the decoy's all-clear verdict must skip it whole.
		b.WriteString("<e><l" + strconv.Itoa(100+k) + "/></e><e><none/></e>")
	}
	b.WriteString("</feed>")
	rr := NewRecordReader(strings.NewReader(b.String()), RecordOptions{Prefilter: pf})
	var got []Record
	for {
		rec, err := rr.Read(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rec)
	}
	if len(got) != len(keep) {
		t.Fatalf("kept %d records, want %d", len(got), len(keep))
	}
	for i, rec := range got {
		k := keep[i]
		for g := 0; g < n; g++ {
			if rec.Hint.Allows(g) != (g == k) {
				t.Errorf("record satisfying group %d: Hint.Allows(%d) = %v, want %v",
					k, g, rec.Hint.Allows(g), g == k)
			}
		}
		// The verdict must survive later skims of the same reader: it was
		// cloned off scratch, not aliased into it.
		if i > 0 && got[i-1].Hint.Allows(k) {
			t.Errorf("record %d's verdict leaked into record %d's hint", i, i-1)
		}
	}
	if rr.Prefiltered() != int64(len(keep)) {
		t.Errorf("Prefiltered() = %d, want %d decoys skipped", rr.Prefiltered(), len(keep))
	}
}

// TestPrefilterSkipAllocsFlat pins that a skipped record costs no
// allocation: draining a reader whose multi-group prefilter skips every
// record allocates exactly the same for N records as for 4N. The fixed
// cost is the reader itself and the prefilter's scratch.
func TestPrefilterSkipAllocsFlat(t *testing.T) {
	pf := NewMultiPrefilter(topicGroups(8))
	drainAllocs := func(n int) float64 {
		input := benchSparseFeed(n)
		var a Arena
		return testing.AllocsPerRun(5, func() {
			rr := NewRecordReader(strings.NewReader(input), RecordOptions{Split: "doc", Prefilter: pf})
			for {
				a.Reset()
				if _, err := rr.Read(&a); err != nil {
					break
				}
			}
			if rr.Prefiltered() != int64(n) {
				t.Fatalf("skipped %d of %d records", rr.Prefiltered(), n)
			}
		})
	}
	for _, n := range []int{50, 100} {
		if small, large := drainAllocs(n), drainAllocs(4*n); small != large {
			t.Errorf("draining %d skipped records allocates %v, %d allocates %v; want equal", n, small, 4*n, large)
		}
	}
}

// readOutcome drains a reader over r with the skip policy and renders
// everything it observably did: each record (index, path, node count,
// hint word, tree with text), each failure, the terminal error, the bytes
// consumed and the records prefiltered.
func readOutcome(r io.Reader, opts RecordOptions) string {
	rr := NewRecordReader(r, opts)
	var b strings.Builder
	for i := 0; i < 1<<14; i++ {
		rec, err := rr.Read(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			fmt.Fprintf(&b, "fail %v\n", err)
			if !rr.CanRecover() {
				break
			}
			if rerr := rr.Recover(); rerr != nil {
				fmt.Fprintf(&b, "terminal %v\n", rerr)
				break
			}
			continue
		}
		s, _ := ToString(rec.Hedge)
		fmt.Fprintf(&b, "record %d %s %d %x %q\n", rec.Index, rec.Path, rec.Nodes, rec.Hint.W0, s)
	}
	fmt.Fprintf(&b, "off %d prefiltered %d\n", rr.InputOffset(), rr.Prefiltered())
	return b.String()
}

// chunkDiff requires the reader to do exactly the same over input read
// whole and read one byte per Read call, where every token, entity, name
// and terminator straddles a refill, with and without a prefilter over
// groups. Parse must agree across the two reads too.
func chunkDiff(t *testing.T, input string, opts RecordOptions, groups ...[]string) {
	t.Helper()
	for _, pf := range []*Prefilter{nil, NewMultiPrefilter(groups)} {
		o := opts
		o.Prefilter = pf
		whole := readOutcome(strings.NewReader(input), o)
		if bytewise := readOutcome(iotest.OneByteReader(strings.NewReader(input)), o); bytewise != whole {
			t.Fatalf("prefilter=%v: one-byte reads diverge from whole reads\nwhole:\n%s\none-byte:\n%s", pf != nil, whole, bytewise)
		}
	}
	h1, err1 := Parse(strings.NewReader(input), Options{KeepWhitespace: opts.KeepWhitespace})
	h2, err2 := Parse(iotest.OneByteReader(strings.NewReader(input)), Options{KeepWhitespace: opts.KeepWhitespace})
	if fmt.Sprint(err1) != fmt.Sprint(err2) || !sameHedge(h1, h2) {
		t.Fatalf("Parse diverges on one-byte reads: %s %v, %s %v", h1, err1, h2, err2)
	}
}

// TestReaderChunking runs the differential corpora through chunkDiff.
func TestReaderChunking(t *testing.T) {
	docs := []struct {
		input string
		opts  RecordOptions
	}{
		{"<f>\r\n<e a='1\r\n2' b = \"&x;\">t&lt;&#x41;\r<![CDATA[c\r\nd]]]]><?p ??><!--c--->" +
			"<!D [<!-- it's > --><!E '>'>]><price/></e>\r<e><x/>\r\n</e></f>", RecordOptions{Split: "e"}},
		{"<f><e><a/></e><e><a></b></e><e><price>1</price></e><e>&bad;</e><e><price/>", RecordOptions{Split: "e"}},
		{"<f><e> <a/> </e><e><price/> x </e></f>", RecordOptions{KeepWhitespace: true, MaxNodes: 4}},
		{"<f><e><a><b><c/></b></a></e><e><price/></e></f>", RecordOptions{MaxDepth: 3, MaxBytes: 40}},
		{"<f><e>" + strings.Repeat("<row>some text\r\n</row>", 300) + "</e><e><price/></e></f>", RecordOptions{}},
		{"<f><e><![CDATA[" + strings.Repeat("a", 15000) + "]]></e><e><price/></e></f>", RecordOptions{}},
		{"<f><e><price/><![CDATA[" + strings.Repeat("a", 15000) + "]]></e></f>", RecordOptions{}},
	}
	for _, c := range docs {
		chunkDiff(t, c.input, c.opts, []string{"price"})
	}
}

// FuzzReaderChunking holds the reader to chunkDiff on arbitrary input.
func FuzzReaderChunking(f *testing.F) {
	f.Add("<f>\r\n<e a='1'>t&lt;\r<![CDATA[c\r\n]]><?p?><!--c--><price/></e><e><x/></e></f>", "e", "price", false)
	f.Add("<f><e><a></b></e><e><price/></e></f>", "e", "price", true)
	f.Fuzz(func(t *testing.T, input, split, label string, keepWS bool) {
		if len(input) > 1<<12 || len(split) > 16 || label == "" {
			return
		}
		chunkDiff(t, input, RecordOptions{Split: split, KeepWhitespace: keepWS}, []string{label})
	})
}
