// Package gen provides deterministic workload generators for the
// experiment harness: docbook-like documents of controlled size (the
// document class the paper's introduction motivates: sections, figures,
// tables, paragraphs), and the adversarial expression families used to
// exhibit the worst-case exponential determinization cost the paper
// discusses in Sections 2 and 6.
package gen

import (
	"fmt"
	"math/rand"
	"strings"

	"xpe/internal/hedge"
)

// DocConfig parameterizes document generation.
type DocConfig struct {
	Seed     int64
	MaxDepth int     // section nesting depth (≥1)
	FigProb  float64 // probability a content slot is a figure
	TabProb  float64 // probability a content slot is a table
	SecProb  float64 // probability a content slot is a subsection
}

// DefaultDocConfig is the configuration used by the experiments.
func DefaultDocConfig() DocConfig {
	return DocConfig{Seed: 1, MaxDepth: 6, FigProb: 0.15, TabProb: 0.1, SecProb: 0.25}
}

// Document generates a docbook-like document with approximately targetNodes
// nodes: doc⟨section*⟩ with sections holding nested sections, figures,
// tables, and paragraphs (paragraphs hold one text leaf). Generation is
// deterministic in the configuration.
func Document(cfg DocConfig, targetNodes int) hedge.Hedge {
	rng := rand.New(rand.NewSource(cfg.Seed))
	doc := hedge.NewElem("doc")
	count := 1
	for count < targetNodes {
		sec, n := section(rng, cfg, cfg.MaxDepth, targetNodes-count)
		doc.Children = append(doc.Children, sec)
		count += n
	}
	return hedge.Hedge{doc}
}

func section(rng *rand.Rand, cfg DocConfig, depth, budget int) (*hedge.Node, int) {
	sec := hedge.NewElem("section")
	count := 1
	slots := 2 + rng.Intn(6)
	for i := 0; i < slots && count < budget; i++ {
		r := rng.Float64()
		switch {
		case r < cfg.FigProb:
			sec.Children = append(sec.Children, hedge.NewElem("figure"))
			count++
		case r < cfg.FigProb+cfg.TabProb:
			sec.Children = append(sec.Children, hedge.NewElem("table"))
			count++
		case r < cfg.FigProb+cfg.TabProb+cfg.SecProb && depth > 1:
			sub, n := section(rng, cfg, depth-1, budget-count)
			sec.Children = append(sec.Children, sub)
			count += n
		default:
			text := hedge.NewVar(hedge.TextVar)
			text.Text = "lorem"
			par := hedge.NewElem("para", text)
			sec.Children = append(sec.Children, par)
			count += 2
		}
	}
	return sec, count
}

// DocGrammar is the grammar the generated documents conform to, in package
// schema syntax.
const DocGrammar = `
start = doc
element doc { section* }
element section { (section | figure | table | para)* }
element figure { empty }
element table { empty }
element para { text* }
`

// KthFromEndExpr returns the classic exponential-determinization family as
// a string regular expression over labels a and b: words whose k-th symbol
// from the end is b. Its minimal DFA has 2^k states, while the NFA has
// k+1 — the blowup the paper's Section 6 complexity discussion refers to.
func KthFromEndExpr(k int) string {
	var b strings.Builder
	b.WriteString("(a | b)* b")
	for i := 1; i < k; i++ {
		b.WriteString(" (a | b)")
	}
	return b.String()
}

// KthFromEndHRE returns the same family as a hedge regular expression over
// leaf elements a and b (a horizontal condition on a sibling sequence).
func KthFromEndHRE(k int) string { return KthFromEndExpr(k) }

// KthFromEndPHR returns a pointed hedge representation whose left-sibling
// condition is the k-th-from-end language: it locates c nodes whose elder
// siblings satisfy the adversarial condition, under a root r.
func KthFromEndPHR(k int) string {
	return fmt.Sprintf("[%s ; c ; *] [* ; r ; *]", KthFromEndExpr(k))
}

// TypicalPHR returns a benign query family of comparable syntactic size:
// the k-fold child chain c under sections (polynomial determinization).
func TypicalPHR(k int) string {
	var b strings.Builder
	b.WriteString("c")
	for i := 1; i < k; i++ {
		b.WriteString(" c")
	}
	b.WriteString(" [* ; r ; *]")
	return b.String()
}

// SiblingRow generates a flat hedge r⟨w c⟩ whose elder siblings of c spell
// the given a/b word — the input family for the determinization
// experiments.
func SiblingRow(rng *rand.Rand, width int) hedge.Hedge {
	r := hedge.NewElem("r")
	for i := 0; i < width; i++ {
		label := "a"
		if rng.Intn(2) == 0 {
			label = "b"
		}
		r.Children = append(r.Children, hedge.NewElem(label))
	}
	r.Children = append(r.Children, hedge.NewElem("c"))
	return hedge.Hedge{r}
}

// DenseQueries returns the 64 query sources of the dense fleet shape over
// the Document vocabulary: for every pair of leaf labels, sibling and
// envelope conditions on both sides of a leaf or a section; per leaf
// label, fixed-depth paths and empty-sibling tests; and sixteen
// select(e₁; phr) subhedge conditions on sections. Many of them share a
// side expression or an e₁, as the queries of one served feed do.
func DenseQueries() []string {
	leaves := []string{"figure", "table", "para"}
	var qs []string
	for _, x := range leaves {
		for _, y := range leaves {
			qs = append(qs,
				fmt.Sprintf("[* ; %s ; %s .] (section|doc)*", x, y),
				fmt.Sprintf("[. %s ; %s ; *] (section|doc)*", y, x),
				fmt.Sprintf("%s [* ; section ; %s .] (section|doc)*", x, y),
				fmt.Sprintf("[* ; %s ; %s %s .] (section|doc)*", x, y, y),
			)
		}
		qs = append(qs,
			fmt.Sprintf("%s section section section section doc", x),
			fmt.Sprintf("[() ; %s ; ()] section (section|doc)*", x),
			fmt.Sprintf("%s [() ; section ; ()] (section|doc)*", x),
			fmt.Sprintf("%s doc", x),
		)
	}
	envelope := "[* ; section ; *] (section|doc)*"
	for _, e1 := range []string{"figure*", "figure figure*", "table table*", "(figure|table)*",
		"figure", "table", "figure figure", "table table", "figure table", "table figure",
		"figure table figure", "table (figure|table)"} {
		qs = append(qs, fmt.Sprintf("select(%s; %s)", e1, envelope))
	}
	return append(qs,
		"select(table*; [* ; section ; *] section (section|doc)*)",
		"select(figure (figure|table)*; [. figure ; section ; *] (section|doc)*)",
		"select(.; [* ; table ; . figure .] (section|doc)*)",
		"select(.; [* ; figure ; . table .] (section|doc)*)",
	)
}
