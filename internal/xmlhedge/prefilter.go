package xmlhedge

// Record prefiltering: the runtime half of the prefilter cascade.
//
// A compiled query knows a set of element labels every matching record must
// contain (core.RequiredLabels). Before building a record, the reader skims
// it: it runs the tokenizer over the record's bytes without building
// anything, looking up each start tag's local name in the prefilter's label
// index and setting that label's presence bit. Together with the record
// root's own name that is exactly the set of element names the parsed
// record holds, so the verdict is exact: a label that occurs only in a
// comment, a CDATA section, an attribute value, or text never keeps a
// record, because such a record holds no element of that name. A record
// whose names satisfy no requirement group is skipped whole: no node
// allocation, no evaluation.
//
// The skim is the parse minus the tree, so it cannot disagree with it: the
// grammar, the line count and the limit checks are the tokenizer's and
// readRecord's own. The read buffer is pinned just after the root start
// tag; a record that parses cleanly inside every limit and satisfies no
// group stays consumed, and any other (or one past the lookahead cap) is
// rewound to the pin and parsed byte-identically to an unfiltered run.

import (
	"sort"

	"xpe/internal/trace"
)

// prefilterLookahead caps how many bytes past the record root's start tag
// the skim will buffer before giving up and parsing normally. It bounds
// the reader's memory against a huge record on a skippable-looking prefix.
const prefilterLookahead = 1 << 20

// MaxPrefilterGroups bounds how many requirement groups (and how many
// distinct labels) a prefilter can track. Verdicts and label presence are
// word-slice bitsets, so the bound is a memory/scan-cost cap, not a
// representation limit. NewMultiPrefilter returns nil beyond the bound —
// every record then parses and evaluates normally.
const MaxPrefilterGroups = 1024

// Hint is the prefilter's per-group verdict bitset for one record: bit
// i%64 of word i/64 set means requirement group i may match. Word 0 rides
// inline, so runs with at most 64 groups — the common case — never
// allocate; groups 64+ live in the More overflow words, allocated once
// per kept record only when that many groups are registered. A word
// beyond len(More) reads as all-ones: absent evidence never gates a
// group off.
type Hint struct {
	W0   uint64
	More []uint64
}

// HintAll is the Record.Hint value meaning "no prefilter verdict": every
// requirement group may match, so nothing can be gated off (any group
// index beyond word 0 reads all-ones via the missing-word rule).
var HintAll = Hint{W0: ^uint64(0)}

// Allows reports whether requirement group i may match: only an
// explicitly clear bit — the skim proved a required label absent — gates
// a group off.
func (h Hint) Allows(i int) bool {
	return h.word(i/64)&(1<<(uint(i)&63)) != 0
}

// Word returns the verdicts of groups lo to lo+63 as one word, bit i for
// group lo+i, with Allows' reading of the words past More.
func (h Hint) Word(lo int) uint64 {
	i, shift := lo/64, uint(lo%64)
	if shift == 0 {
		return h.word(i)
	}
	return h.word(i)>>shift | h.word(i+1)<<(64-shift)
}

// word returns verdict word i: W0, then More, then all-ones.
func (h Hint) word(i int) uint64 {
	switch {
	case i == 0:
		return h.W0
	case i-1 < len(h.More):
		return h.More[i-1]
	}
	return ^uint64(0)
}

// zero reports an all-clear verdict: no group can match, so the record is
// skippable whole. The zero Hint value doubles as RecordReader's
// "no pending verdict" sentinel (takeHint maps it to HintAll).
func (h Hint) zero() bool {
	if h.W0 != 0 {
		return false
	}
	for _, w := range h.More {
		if w != 0 {
			return false
		}
	}
	return true
}

// clone detaches the verdict from the scratch buffer it was computed in,
// so it stays valid across later records of the same reader.
func (h Hint) clone() Hint {
	if len(h.More) > 0 {
		h.More = append([]uint64(nil), h.More...)
	}
	return h
}

// bitset is a minimal word-slice bitset over scratch storage.
type bitset []uint64

func (b bitset) set(i int)      { b[i/64] |= 1 << (uint(i) & 63) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(uint(i)&63)) != 0 }
func bitsetWords(n int) int     { return (n + 63) / 64 }

// verdictScratch holds the per-record bitsets a reader's skims reuse: the
// labels present and the group verdict built from them. One reader skims
// one record at a time, so a single scratch set suffices; the verdict
// handed out on a kept record is cloned off mask.
type verdictScratch struct {
	present, mask bitset
}

// reset sizes the scratch for p and clears every presence bit.
func (sc *verdictScratch) reset(p *Prefilter) {
	lw, gw := bitsetWords(len(p.ids)), bitsetWords(len(p.groups))
	if cap(sc.present) < lw {
		sc.present = make(bitset, lw)
	}
	sc.present = sc.present[:lw]
	clear(sc.present)
	if cap(sc.mask) < gw {
		sc.mask = make(bitset, gw)
	}
	sc.mask = sc.mask[:gw]
}

// Prefilter is a compiled required-label matcher over one or more
// requirement groups. A nil *Prefilter disables prefiltering.
//
// One skim decides, per group, whether every label the group requires is
// an element name of the record. A record is skipped only when NO group is
// satisfied (requiring the union of the groups conjunctively would be
// unsound — it would skip records one group alone could match); kept
// records carry the per-group verdict as Record.Hint so the evaluator can
// skip automata whose requirements are provably absent.
type Prefilter struct {
	names []string // the label set, sorted (Labels)
	// ids maps each label to its index: the bit it owns in a presence set.
	ids map[string]int
	// lens has bit min(len(l), 63) set for every label l, so most names no
	// label can match are rejected on their length before the map lookup.
	lens uint64
	// groups[i] lists the indices of the labels group i requires; nil for
	// a group with no requirement.
	groups [][]int
	// free marks groups with an empty requirement set: they can match any
	// record, so their verdict bit is always on and no record is skippable.
	free bitset
}

// NewPrefilter compiles a single-group prefilter from required element
// labels: NewMultiPrefilter over the one group. Empty strings are dropped;
// it returns nil when nothing remains — an empty requirement set can never
// reject a record — or when more than MaxPrefilterGroups distinct labels
// remain.
func NewPrefilter(labels []string) *Prefilter {
	return NewMultiPrefilter([][]string{labels})
}

// NewMultiPrefilter compiles one prefilter over several requirement
// groups, typically one group per registered query (core.RequiredLabels).
// Empty labels are dropped; a group left empty is always satisfied, so it
// never lets a record be skipped but still contributes a hint bit. Returns
// nil when there are no groups, when every group is empty, or when the
// group count or the union label count exceeds MaxPrefilterGroups.
func NewMultiPrefilter(groups [][]string) *Prefilter {
	if len(groups) == 0 || len(groups) > MaxPrefilterGroups {
		return nil
	}
	p := &Prefilter{
		ids:    make(map[string]int),
		groups: make([][]int, len(groups)),
		free:   make(bitset, bitsetWords(len(groups))),
	}
	anyReq := false
	for gi, g := range groups {
		var is []int
		for _, l := range g {
			if l == "" {
				continue
			}
			li, ok := p.ids[l]
			if !ok {
				li = len(p.ids)
				p.ids[l] = li
				p.names = append(p.names, l)
				p.lens |= 1 << min(len(l), 63)
			}
			is = append(is, li)
		}
		if len(is) == 0 {
			p.free.set(gi)
			continue
		}
		anyReq = true
		p.groups[gi] = is
	}
	if !anyReq || len(p.ids) > MaxPrefilterGroups {
		return nil
	}
	sort.Strings(p.names)
	return p
}

// Labels returns the compiled label set, sorted.
func (p *Prefilter) Labels() []string { return p.names }

// mark sets the presence bit of the label equal to the element local name
// name, if there is one. It does not allocate.
func (p *Prefilter) mark(name []byte, present bitset) {
	if p.lens&(1<<min(len(name), 63)) == 0 {
		return
	}
	if li, ok := p.ids[string(name)]; ok {
		present.set(li)
	}
}

// verdict returns the bitset of requirement groups whose every required
// label is present (bit i set means group i may match; an all-clear
// verdict means the record can be skipped whole). The returned Hint's
// overflow words alias sc's storage; callers that retain a verdict past
// the next skim must clone it.
func (p *Prefilter) verdict(sc *verdictScratch) Hint {
	copy(sc.mask, p.free)
	for gi, g := range p.groups {
		sat := g != nil // a free group is already in the mask
		for _, li := range g {
			if !sc.present.has(li) {
				sat = false
				break
			}
		}
		if sat {
			sc.mask.set(gi)
		}
	}
	h := Hint{W0: sc.mask[0]}
	if len(sc.mask) > 1 {
		h.More = sc.mask[1:]
	}
	return h
}

// tryPrefilter runs the prefilter cascade on the record whose root start
// tag the tokenizer just consumed. It returns true when the record was
// skipped (bytes consumed, slot burned, counters bumped) and false when the
// record must be parsed — in which case the reader is back just after the
// root start tag and the parse proceeds byte-identically to an unfiltered
// run.
func (rr *RecordReader) tryPrefilter(startOff int64) bool {
	pf, tk, sc := rr.opts.Prefilter, rr.tk, &rr.pfScratch
	sc.reset(pf)
	pf.mark(tk.name, sc.present)
	tk.pin(prefilterLookahead)
	ok := rr.skimRecord(startOff, sc.present)
	if h := pf.verdict(sc); !ok || !h.zero() {
		tk.unpin(true)
		if ok {
			rr.hint = h.clone()
		}
		return false
	}
	tk.unpin(false)
	// Account the skip: trace event, metrics counter, and the record's
	// index and sibling slot (skipped records leave numbering gaps exactly
	// like failed ones).
	if s := rr.opts.Events; s.Enabled() {
		s.Emit(trace.RawEvent{Kind: trace.EvPrefilter, Record: rr.idx, Off: startOff, N: tk.off() - startOff})
	}
	if m := rr.opts.Metrics; m != nil {
		m.RecordsPrefiltered.Inc()
	}
	rr.prefiltered++
	rr.consumeSlot()
	return true
}

// skimRecord runs the tokenizer through the rest of the record whose root
// start tag it just produced, building nothing, and marks each start tag's
// local name present. It reports whether readRecord would have delivered
// the record: it parses cleanly, and each limit readRecord enforces holds
// at the same token. A record that ends past the stream budget parses
// normally, so the budget fails it exactly where an unfiltered run does.
func (rr *RecordReader) skimRecord(startOff int64, present bitset) bool {
	tk, o := rr.tk, rr.opts
	depth, nodes := 1, 1
	for depth > 0 {
		if o.MaxBytes > 0 && tk.off()-startOff > o.MaxBytes || tk.next() != nil {
			return false
		}
		switch tk.kind {
		case tokStart:
			if kind, _ := o.overLimit(true, depth, nodes); kind != "" {
				return false
			}
			depth++
			nodes++
			o.Prefilter.mark(tk.name, present)
		case tokEnd:
			depth--
		case tokText:
			if !o.textNode(tk.text) {
				continue
			}
			if kind, _ := o.overLimit(false, depth, nodes); kind != "" {
				return false
			}
			nodes++
		}
	}
	return o.MaxStreamBytes <= 0 || tk.off() <= o.MaxStreamBytes
}
