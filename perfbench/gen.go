package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
)

// The generators live here, not in the repository's own generator
// packages, so that a change to the program cannot change a workload. The
// seed changes content only: the property each workload was chosen for is
// fixed by construction (see the doc comments).

// words is the prose vocabulary. Every word has five letters, so a seed
// changes the text of the feeds but not their size.
var words = []string{
	"amber", "basil", "cedar", "delta", "eagle", "fable", "grain", "haven",
	"ivory", "jolly", "karma", "lemon", "maple", "noble", "olive", "pearl",
	"quail", "raven", "sable", "tulip", "umbra", "vivid", "wheat", "xenon",
	"yacht", "zesty", "brisk", "crane", "drift", "ember", "flint", "glade",
}

// prose appends n space-separated words.
func prose(b *bytes.Buffer, rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(words[rng.Intn(len(words))])
	}
}

// topicHit is one topical record of a topic feed: the record index, the
// topic it carries, and the Dewey path of its figure within the record.
type topicHit struct {
	record int
	topic  int
	path   string
}

// topicFeed builds a feed of records doc elements holding paras prose
// paragraphs each. Exactly one record in every block of four is topical:
// it carries one <topicK><figure/><table/></topicK> element, so the query
// "figure topicK doc*" locates exactly one node in it. The seed picks which
// record of each block is topical, the topic, the slot of the topic element
// among the paragraphs, and the prose.
func topicFeed(rng *rand.Rand, records, paras, topics int) ([]byte, []topicHit) {
	var b bytes.Buffer
	var hits []topicHit
	b.WriteString("<corpus>")
	topical := -1
	for i := 0; i < records; i++ {
		if i%4 == 0 {
			topical = i + rng.Intn(4)
		}
		b.WriteString("<doc>")
		slot := -1
		if i == topical {
			slot = rng.Intn(paras + 1)
		}
		for j := 0; j <= paras; j++ {
			if j == slot {
				k := rng.Intn(topics)
				fmt.Fprintf(&b, "<topic%d><figure/><table/></topic%d>", k, k)
				hits = append(hits, topicHit{record: i, topic: k, path: "1." + strconv.Itoa(j+1) + ".1"})
			}
			if j < paras {
				b.WriteString("<para>")
				prose(&b, rng, 11)
				b.WriteString("</para>")
			}
		}
		b.WriteString("</doc>")
	}
	b.WriteString("</corpus>")
	return b.Bytes(), hits
}

// docbookFeed builds a feed of records docbook-shaped doc elements of
// exactly nodes nodes each (elements plus text leaves): doc holds
// sections, and a section holds nested sections, figures, tables and
// paragraphs with one text leaf each. Every record opens with a section
// holding a figure, a table and a paragraph, so it carries every label the
// dense queries require, whatever the seed.
func docbookFeed(rng *rand.Rand, records, nodes int) []byte {
	var b bytes.Buffer
	b.WriteString("<corpus>")
	for i := 0; i < records; i++ {
		b.WriteString("<doc><section><figure/><table/><para>")
		prose(&b, rng, 3)
		b.WriteString("</para>")
		left := nodes - 6 // doc, section, figure, table, para, text
		left = sectionBody(&b, rng, 5, left)
		b.WriteString("</section>")
		for left > 0 {
			b.WriteString("<section>")
			left = sectionBody(&b, rng, 5, left-1)
			b.WriteString("</section>")
		}
		b.WriteString("</doc>")
	}
	b.WriteString("</corpus>")
	return b.Bytes()
}

// sectionBody writes the children of one section, spending at most left
// nodes, and returns the nodes still unspent. Depth bounds the nesting of
// subsections.
func sectionBody(b *bytes.Buffer, rng *rand.Rand, depth, left int) int {
	slots := 2 + rng.Intn(6)
	for s := 0; s < slots && left > 0; s++ {
		r := rng.Float64()
		switch {
		case left == 1 || r < 0.15:
			b.WriteString("<figure/>")
			left--
		case r < 0.25:
			b.WriteString("<table/>")
			left--
		case r < 0.50 && depth > 1 && left > 2:
			b.WriteString("<section>")
			sub := 1 + left/3 + rng.Intn(left/3+1)
			if sub > left-1 {
				sub = left - 1
			}
			left -= 1 + sub
			left += sectionBody(b, rng, depth-1, sub)
			b.WriteString("</section>")
		default:
			b.WriteString("<para>")
			prose(b, rng, 3)
			b.WriteString("</para>")
			left -= 2
		}
	}
	return left
}

// freshLabel is the never-seen label the i-th churn op registers. The seed
// picks a prefix; the op index makes every label distinct.
func freshLabel(prefix string, i int) string {
	return prefix + strconv.Itoa(i)
}

// labelPrefix draws the seeded prefix of the churn workload's labels.
func labelPrefix(rng *rand.Rand) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	p := []byte("w")
	for i := 0; i < 6; i++ {
		p = append(p, letters[rng.Intn(len(letters))])
	}
	return string(p)
}
