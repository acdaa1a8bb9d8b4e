package main

import "fmt"

// denseQueries are the 64 query sources of feed-dense-64q: sibling and
// envelope conditions and select(e1; phr) subhedge conditions over
// doc/section/figure/table/para. Every query requires only labels each
// dense record carries, so the union prefilter keeps every record and the
// hint allows every query on it. About half of them locate nothing in a
// typical record (a para is never empty, and doc holds only sections):
// that is the wasted evaluation a shared product automaton would remove.
// They locate leaves, or sections of leaf-only content, so the answer stays
// small next to the evaluation.
func denseQueries() []string {
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
	return append(qs,
		"select(figure*; [* ; section ; *] (section|doc)*)",
		"select(figure figure*; [* ; section ; *] (section|doc)*)",
		"select(table table*; [* ; section ; *] (section|doc)*)",
		"select((figure|table)*; [* ; section ; *] (section|doc)*)",
		"select(figure; [* ; section ; *] (section|doc)*)",
		"select(table; [* ; section ; *] (section|doc)*)",
		"select(figure figure; [* ; section ; *] (section|doc)*)",
		"select(table table; [* ; section ; *] (section|doc)*)",
		"select(figure table; [* ; section ; *] (section|doc)*)",
		"select(table figure; [* ; section ; *] (section|doc)*)",
		"select(figure table figure; [* ; section ; *] (section|doc)*)",
		"select(table (figure|table); [* ; section ; *] (section|doc)*)",
		"select(table*; [* ; section ; *] section (section|doc)*)",
		"select(figure (figure|table)*; [. figure ; section ; *] (section|doc)*)",
		"select(.; [* ; table ; . figure .] (section|doc)*)",
		"select(.; [* ; figure ; . table .] (section|doc)*)",
	)
}
