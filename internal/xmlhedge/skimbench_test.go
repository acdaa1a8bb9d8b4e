package xmlhedge

import (
	"fmt"
	"strings"
	"testing"
)

// Benchmarks for the reader's two uses of the tokenizer on feed-shaped
// input: the skim, which runs it over a record building nothing and takes
// label presence from the tag names, and the parse, which builds a kept
// record into arena nodes. A skipped record costs one skim; a kept one
// costs a skim and a parse. The skim should run well ahead of the parse
// (EXPERIMENTS.md, section R1, records the MB/s); if the two converge, the
// cascade stops paying for itself.

func benchSparseFeed(n int) string {
	var b strings.Builder
	b.WriteString("<corpus>")
	for i := 0; i < n; i++ {
		b.WriteString("<doc>")
		for j := 0; j < 24; j++ {
			fmt.Fprintf(&b, "<para>record %d paragraph %d: plain prose with no matching structure, "+
				"just enough text that skimming beats parsing &amp; node building.</para>", i, j)
		}
		b.WriteString("</doc>")
	}
	b.WriteString("</corpus>")
	return b.String()
}

// benchTopicFeed is shaped like the served selective feed: n records of 24
// prose paragraphs, one record in four topical, carrying a
// <topicK><figure/><table/></topicK> element among its paragraphs.
func benchTopicFeed(n, topics int) string {
	var b strings.Builder
	b.WriteString("<corpus>")
	for i := 0; i < n; i++ {
		b.WriteString("<doc>")
		for j := 0; j < 24; j++ {
			if i%4 == 1 && j == (i/4)%24 {
				k := (i / 4) % topics
				fmt.Fprintf(&b, "<topic%d><figure/><table/></topic%d>", k, k)
			}
			fmt.Fprintf(&b, "<para>amber basil cedar %d delta eagle fable grain %d haven ivory jolly</para>", i, j)
		}
		b.WriteString("</doc>")
	}
	b.WriteString("</corpus>")
	return b.String()
}

// topicGroups is one {figure, topicK} requirement group per topic query.
func topicGroups(topics int) [][]string {
	groups := make([][]string, topics)
	for k := range groups {
		groups[k] = []string{"figure", fmt.Sprintf("topic%d", k)}
	}
	return groups
}

func benchSplit(b *testing.B, input string, opts RecordOptions) {
	b.SetBytes(int64(len(input)))
	b.ReportAllocs()
	b.ResetTimer()
	var a Arena
	for i := 0; i < b.N; i++ {
		rr := NewRecordReader(strings.NewReader(input), opts)
		for {
			a.Reset()
			if _, err := rr.Read(&a); err != nil {
				break
			}
		}
	}
}

func BenchmarkSplitNoPrefilter(b *testing.B) {
	benchSplit(b, benchSparseFeed(200), RecordOptions{})
}

func BenchmarkSplitPrefilter(b *testing.B) {
	benchSplit(b, benchSparseFeed(200), RecordOptions{Prefilter: NewPrefilter([]string{"section"})})
}

// BenchmarkSplitTopicUnion is the served selective feed's reader path: an
// 8-group union prefilter skips three records in four and keeps the
// topical one with a one-group hint.
func BenchmarkSplitTopicUnion(b *testing.B) {
	benchSplit(b, benchTopicFeed(1000, 8), RecordOptions{Split: "doc", Prefilter: NewMultiPrefilter(topicGroups(8))})
}

// BenchmarkSplitTopicSkim skims every record of the same feed against a
// label no record carries, so nothing is parsed.
func BenchmarkSplitTopicSkim(b *testing.B) {
	benchSplit(b, benchTopicFeed(1000, 8), RecordOptions{Split: "doc", Prefilter: NewPrefilter([]string{"absentlabel"})})
}

// BenchmarkSplitTopicTokenize parses every record of the same feed.
func BenchmarkSplitTopicTokenize(b *testing.B) {
	benchSplit(b, benchTopicFeed(1000, 8), RecordOptions{Split: "doc"})
}
