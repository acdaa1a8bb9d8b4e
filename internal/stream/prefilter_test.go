package stream

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"xpe/internal/core"
	"xpe/internal/ha"
	"xpe/internal/xmlhedge"
)

// priceFeed builds a multi-record document where only every k-th entry
// contains a <price> element — a low-selectivity feed for the prefilter.
func priceFeed(n, k int) string {
	var b strings.Builder
	b.WriteString("<feed>")
	for i := 0; i < n; i++ {
		if i%k == 0 {
			fmt.Fprintf(&b, "<entry><name>item %d</name><price>%d</price></entry>", i, i)
		} else {
			fmt.Fprintf(&b, "<entry><name>item %d</name><note>n/a &amp; counting</note></entry>", i)
		}
	}
	b.WriteString("</feed>")
	return b.String()
}

// runCollect streams input and returns per-record delivered results: the
// set of delivered record indices and the rendered matches.
func runCollect(t *testing.T, input string, cq *core.CompiledQuery, cfg Config) (map[int]bool, []string, Stats) {
	t.Helper()
	delivered := map[int]bool{}
	var matches []string
	stats, err := Run(context.Background(), strings.NewReader(input), cq, cfg,
		func(r *Result) error {
			delivered[r.Index] = true
			for _, m := range r.Matches {
				matches = append(matches, fmt.Sprintf("%d:%s:%s:%s", r.Index, r.Path, m.Path, m.Node.Name))
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return delivered, matches, stats
}

// TestRunPrefilterEquivalence is the stream-level half of the differential
// harness: for every (workers, batch size) combination the prefiltered run
// must deliver exactly the matches of the unfiltered run, records must only
// move from "delivered" to "prefiltered" (never vanish), and every record
// the skim dropped must evaluate to zero matches when forced through the
// normal parse+eval path.
func TestRunPrefilterEquivalence(t *testing.T) {
	const n = 120
	input := priceFeed(n, 5)
	names := ha.NewNames()
	cq := compile(t, names, "[* ; price ; *] entry")
	if len(cq.RequiredLabels()) == 0 {
		t.Fatal("query has no required labels; prefilter cannot engage")
	}

	// Reference: the unfiltered sequential run.
	offCfg := Config{Workers: 1, Prefilter: PrefilterOff}
	offDelivered, offMatches, offStats := runCollect(t, input, cq, offCfg)
	if offStats.Prefiltered != 0 {
		t.Fatalf("prefilter off: Prefiltered = %d", offStats.Prefiltered)
	}
	if len(offMatches) == 0 {
		t.Fatal("reference run located nothing; test is vacuous")
	}

	// Records the whole document once so skipped records can be force-fed
	// through the normal evaluation path.
	whole := xmlhedge.MustParseString(input)

	for _, workers := range []int{1, 4} {
		for _, batch := range []int{1, 32, 100} {
			name := fmt.Sprintf("workers=%d/batch=%d", workers, batch)
			cfg := Config{Workers: workers, BatchSize: batch}
			onDelivered, onMatches, onStats := runCollect(t, input, cq, cfg)

			if len(onMatches) != len(offMatches) {
				t.Fatalf("%s: %d matches with prefilter, want %d", name, len(onMatches), len(offMatches))
			}
			for i := range onMatches {
				if onMatches[i] != offMatches[i] {
					t.Fatalf("%s: match %d = %s, want %s", name, i, onMatches[i], offMatches[i])
				}
			}
			if onStats.Prefiltered == 0 {
				t.Errorf("%s: prefilter never engaged on a low-selectivity feed", name)
			}
			if got := onStats.Records + onStats.Prefiltered; got != offStats.Records {
				t.Errorf("%s: Records+Prefiltered = %d, want %d", name, got, offStats.Records)
			}
			if onStats.Matches != offStats.Matches {
				t.Errorf("%s: Matches = %d, want %d", name, onStats.Matches, offStats.Matches)
			}
			if onStats.Bytes != offStats.Bytes {
				t.Errorf("%s: Bytes = %d, want %d", name, onStats.Bytes, offStats.Bytes)
			}

			// Every record the skim dropped must be (a) delivered by the
			// unfiltered run and (b) a genuine non-match under full parse+eval.
			skipped := 0
			for idx := range offDelivered {
				if onDelivered[idx] {
					continue
				}
				skipped++
				rec := whole[0].Children[idx]
				res := cq.Select(append(whole[:0:0], rec))
				if len(res.Paths) != 0 {
					t.Errorf("%s: prefilter dropped record %d which matches at %v", name, idx, res.Paths)
				}
			}
			if int64(skipped) != onStats.Prefiltered {
				t.Errorf("%s: %d records missing from delivery, Prefiltered = %d", name, skipped, onStats.Prefiltered)
			}
			for idx := range onDelivered {
				if !offDelivered[idx] {
					t.Errorf("%s: record %d delivered only with the prefilter on", name, idx)
				}
			}
		}
	}
}

// TestRunPrefilterNoRequiredLabels: a query with an empty requirement set
// must leave the cascade disengaged (NewPrefilter returns nil) and deliver
// every record.
func TestRunPrefilterNoRequiredLabels(t *testing.T) {
	input := priceFeed(30, 3)
	names := ha.NewNames()
	cq := compile(t, names, "[* ; price ; *] | [. ; note ; .]")
	// price|note intersects to ∅ at the top level... unless both branches
	// require "entry"-free sets; assert whatever the extraction yields and
	// adapt: the test only demands consistency between labels and stats.
	_, matches, stats := runCollect(t, input, cq, Config{Workers: 1})
	_, offMatches, _ := runCollect(t, input, cq, Config{Workers: 1, Prefilter: PrefilterOff})
	if len(matches) != len(offMatches) {
		t.Fatalf("prefilter changed match count: %d vs %d", len(matches), len(offMatches))
	}
	if len(cq.RequiredLabels()) == 0 && stats.Prefiltered != 0 {
		t.Fatalf("no required labels but Prefiltered = %d", stats.Prefiltered)
	}
}

// TestRunByteOrderMark: a stream whose input opens with a UTF-8
// byte-order mark, alone or before an XML declaration, delivers the
// matches of the same stream without it, unfiltered, prefiltered and under
// a named split, and counts the mark's three bytes in Stats.Bytes.
func TestRunByteOrderMark(t *testing.T) {
	names := ha.NewNames()
	cq := compile(t, names, "[* ; price ; *] entry")
	plain := priceFeed(30, 4)
	_, want, _ := runCollect(t, plain, cq, Config{Workers: 1, Prefilter: PrefilterOff})
	for _, prefix := range []string{"\xef\xbb\xbf", "\xef\xbb\xbf<?xml version=\"1.0\"?>"} {
		input := prefix + plain
		for name, cfg := range map[string]Config{
			"unfiltered":  {Workers: 1, Prefilter: PrefilterOff},
			"prefiltered": {Workers: 1, Prefilter: PrefilterAuto},
			"named split": {Workers: 2, Split: "entry"},
		} {
			_, got, stats := runCollect(t, input, cq, cfg)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s %q: matches %v, want %v", name, prefix, got, want)
			}
			if stats.Bytes != int64(len(input)) {
				t.Errorf("%s %q: Stats.Bytes = %d, want %d", name, prefix, stats.Bytes, len(input))
			}
		}
	}
}

// TestRunPrefilterLazyStats: a lazily determinized compilation reports its
// per-run state-construction deltas through Stats.
func TestRunPrefilterLazyStats(t *testing.T) {
	input := priceFeed(60, 4)
	names := ha.NewNames()
	// '.' sides (unlike the unconditioned '*') compile real side automata,
	// which is what lazy determinization defers.
	q, err := core.ParseQuery("[. ; price ; .] entry")
	if err != nil {
		t.Fatal(err)
	}
	cq, err := core.CompileQueryOpt(q, names, core.Options{LazyDeterminize: true})
	if err != nil {
		t.Fatal(err)
	}
	if !cq.Lazy() {
		t.Fatal("compilation is not lazy")
	}

	_, matches, stats := runCollect(t, input, cq, Config{Workers: 1})
	if stats.LazyStates == 0 {
		t.Errorf("lazy run built no states: %+v", stats)
	}
	if stats.Prefiltered == 0 {
		t.Errorf("prefilter disengaged under lazy compilation: %+v", stats)
	}

	// Differential: lazy+prefilter delivers the eager unfiltered match set.
	eager := compile(t, names, "[. ; price ; .] entry")
	_, want, eagerStats := runCollect(t, input, eager, Config{Workers: 1, Prefilter: PrefilterOff})
	if len(matches) != len(want) {
		t.Fatalf("lazy+prefilter: %d matches, eager unfiltered: %d", len(matches), len(want))
	}
	for i := range matches {
		if matches[i] != want[i] {
			t.Fatalf("match %d: %s vs %s", i, matches[i], want[i])
		}
	}
	if eagerStats.LazyStates != 0 {
		t.Errorf("eager run reported lazy states: %+v", eagerStats)
	}

	// A second run over the same compilation reuses the cached transitions:
	// its delta must be hits-heavy, not construction-heavy.
	_, _, again := runCollect(t, input, cq, Config{Workers: 1})
	if again.LazyStates > stats.LazyStates {
		t.Errorf("second run built more states (%d) than the first (%d)", again.LazyStates, stats.LazyStates)
	}
	if again.LazyHits == 0 {
		t.Errorf("second run recorded no cache hits: %+v", again)
	}
}

// TestRunPrefilterWithChaos: prefilter skips interleaved with malformed
// records must not disturb the skip/recover bookkeeping — the filtered and
// unfiltered runs agree on delivered records, matches, and failure counts.
func TestRunPrefilterWithChaos(t *testing.T) {
	var b strings.Builder
	b.WriteString("<feed>")
	for i := 0; i < 40; i++ {
		switch {
		case i%10 == 3:
			b.WriteString("<entry><price>7</price><oops></entry>") // malformed: unclosed child
		case i%4 == 0:
			fmt.Fprintf(&b, "<entry><price>%d</price></entry>", i)
		default:
			fmt.Fprintf(&b, "<entry><note>%d</note></entry>", i)
		}
	}
	b.WriteString("</feed>")
	input := b.String()

	names := ha.NewNames()
	cq := compile(t, names, "[* ; price ; *] entry")
	pol := func(*RecordError) error { return nil } // skip all failures

	run := func(mode PrefilterMode, workers int) (map[int]bool, []string, Stats) {
		cfg := Config{Workers: workers, Split: "entry", OnRecordError: pol, Prefilter: mode}
		return runCollect(t, input, cq, cfg)
	}

	offDelivered, offMatches, offStats := run(PrefilterOff, 1)
	for _, workers := range []int{1, 4} {
		onDelivered, onMatches, onStats := run(PrefilterAuto, workers)
		name := fmt.Sprintf("workers=%d", workers)
		if len(onMatches) != len(offMatches) {
			t.Fatalf("%s: %d matches, want %d", name, len(onMatches), len(offMatches))
		}
		for i := range onMatches {
			if onMatches[i] != offMatches[i] {
				t.Fatalf("%s: match %d = %s, want %s", name, i, onMatches[i], offMatches[i])
			}
		}
		if onStats.Skipped != offStats.Skipped {
			t.Errorf("%s: Skipped = %d, want %d", name, onStats.Skipped, offStats.Skipped)
		}
		if got := onStats.Records + onStats.Prefiltered; got != offStats.Records {
			t.Errorf("%s: Records+Prefiltered = %d, want %d", name, got, offStats.Records)
		}
		if onStats.Prefiltered == 0 {
			t.Errorf("%s: prefilter never engaged", name)
		}
		for idx := range onDelivered {
			if !offDelivered[idx] {
				t.Errorf("%s: record %d delivered only with the prefilter on", name, idx)
			}
		}
	}
}

// TestRunPrefilterTruncatedFeed: a stream cut off mid-record fails
// identically with the prefilter on and off — same terminal error, same
// matches, and the prefilter still skips the healthy label-free records
// that preceded the cut.
func TestRunPrefilterTruncatedFeed(t *testing.T) {
	full := priceFeed(30, 5)
	input := full[:len(full)-len("</entry></feed>")-10] // cut inside the last entry
	names := ha.NewNames()
	cq := compile(t, names, "[* ; price ; *] entry")

	run := func(mode PrefilterMode) ([]string, Stats, error) {
		var matches []string
		stats, err := Run(context.Background(), strings.NewReader(input), cq,
			Config{Workers: 1, Prefilter: mode},
			func(r *Result) error {
				for _, m := range r.Matches {
					matches = append(matches, fmt.Sprintf("%d:%s", r.Index, m.Path))
				}
				return nil
			})
		return matches, stats, err
	}

	offMatches, offStats, offErr := run(PrefilterOff)
	onMatches, onStats, onErr := run(PrefilterAuto)
	if offErr == nil || onErr == nil {
		t.Fatalf("truncated feed did not fail: off=%v on=%v", offErr, onErr)
	}
	if offErr.Error() != onErr.Error() {
		t.Fatalf("terminal errors differ:\noff: %v\non:  %v", offErr, onErr)
	}
	if fmt.Sprint(onMatches) != fmt.Sprint(offMatches) {
		t.Fatalf("matches differ: %v vs %v", onMatches, offMatches)
	}
	if onStats.Prefiltered == 0 {
		t.Errorf("prefilter never engaged before the cut: %+v", onStats)
	}
	if got := onStats.Records + onStats.Prefiltered; got != offStats.Records {
		t.Errorf("Records+Prefiltered = %d, want %d", got, offStats.Records)
	}
}
