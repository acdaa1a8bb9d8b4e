package xmlhedge

// Raw-byte record prefiltering: the runtime half of the prefilter cascade.
//
// A compiled query knows a set of element labels every matching record must
// contain (core.RequiredLabels). Before parsing a record, the reader skims
// its raw bytes: a structural scan that finds the record's extent and
// validates it without building anything. Validating a start tag means
// reading its name, so the skim takes label presence from the names
// themselves: it looks up each tag's local name (localName, the very
// helper the tokenizer uses) in the prefilter's label index and sets that
// label's presence bit. Together with the record root's own name that is
// exactly the set of element names the parsed record holds, so the verdict
// is exact: a label that occurs only in a comment, a CDATA section, an
// attribute value, or text never keeps a record, because such a record
// holds no element of that name. A record whose names satisfy no
// requirement group is skipped whole: no node allocation, no evaluation,
// one bulk consume.
//
// The skim must preserve the reader's observable behavior exactly, so it
// only skips a record when the scanned bytes would definitely have parsed
// cleanly (tag structure, end-tag names, attribute grammar, entities,
// comments/CDATA/PIs all validated to the tokenizer's rules) and definitely
// stay inside every configured resource limit. On any doubt — truncation, a
// lookahead cap, markup the tokenizer would reject, a limit that might trip
// — the skim consumes nothing and the record parses byte-identically to an
// unfiltered run. Skipped bytes flow through the normal consume path, so
// the resynchronization tail stays exactly as an unfiltered run would have
// left it, and the line count advances by exactly what the tokenizer would
// have counted over them.
//
// The skim indexes the read buffer's window directly and refills it only
// when a position passes the window's end; text runs, attribute values,
// and comment/CDATA/PI bodies are found with memchr-style searches.

import (
	"bytes"
	"fmt"
	"sort"
)

// prefilterLookahead caps how many bytes the skim will buffer ahead of the
// parse position before giving up and parsing normally. It bounds the
// reader's memory against a huge record on a skippable-looking prefix.
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

// Terminators of the markup the skim steps over whole.
var (
	commentEnd = []byte("-->")
	cdataEnd   = []byte("]]>")
	piEnd      = []byte("?>")
)

// skimResult describes a successfully skimmed record: its extent and the
// structural tallies the caller checks against resource limits.
type skimResult struct {
	n        int // bytes from the current position through the closing '>'
	elems    int // start tags seen, the record root excluded
	texts    int // text runs and CDATA sections that could each become a text node
	maxDepth int // deepest open-element nesting, the root counting as 1
	loneCRs  int // '\r' bytes no '\n' follows in text and CDATA (with skimmer.crs)
}

// skimmer scans buffered lookahead bytes without consuming them. All
// positions are relative to the tail reader's current read position (the
// byte after the record root's start tag).
type skimmer struct {
	t   *tailReader
	max int
	// w is the buffered window from the read position, capped at max;
	// positions index it directly. A fill may move the buffer, so w is
	// re-sliced after every one.
	w []byte
	// pf and present receive the label presence of every start tag.
	pf      *Prefilter
	present bitset
	// root is the record root's raw start-tag name — the tokenizer's top
	// open name — which the end tag that closes the record must repeat.
	root []byte
	// keepWS makes a whitespace-only text run count as a potential text
	// node (RecordOptions.KeepWhitespace).
	keepWS bool
	// crs turns on counting skimResult.loneCRs.
	crs bool
	// stack holds the open elements' raw-name extents as (start, end)
	// pairs of positions, for end-tag matching. Extents stay valid across
	// fills because refilling preserves relative positions.
	stack []int
}

// fill extends the window to cover position i, reading more input. It
// reports false at the cap, at the end of input, or on a read error — all
// of which abort the skim.
func (s *skimmer) fill(i int) bool {
	if i >= s.max {
		return false
	}
	w := s.t.fillTo(i + 1)
	s.w = w[:min(len(w), s.max)]
	return i < len(s.w)
}

// at returns the byte at position i; ok=false aborts the skim.
func (s *skimmer) at(i int) (byte, bool) {
	if i >= len(s.w) && !s.fill(i) {
		return 0, false
	}
	return s.w[i], true
}

// skimRecord scans forward from the current position — immediately after a
// record root's start tag — to the end tag that closes the root, validating
// structure to the tokenizer's rules along the way. ok=false means "parse
// normally": the input may be malformed, truncated, or just bigger than the
// cap; nothing has been consumed either way.
func (s *skimmer) skimRecord() (res skimResult, ok bool) {
	depth := 1
	res.maxDepth = 1
	i := 0
	for {
		end, text, ok := s.textRun(i)
		if !ok {
			return res, false
		}
		if text {
			res.texts++
		}
		if s.crs {
			res.loneCRs += loneCRs(s.w[i:end])
		}
		// Markup at end ('<').
		i = end
		b, ok := s.at(i + 1)
		if !ok {
			return res, false
		}
		switch {
		case b == '/':
			if i, ok = s.endTag(i + 2); !ok {
				return res, false
			}
			if depth--; depth == 0 {
				res.n = i
				return res, true
			}
		case b == '!':
			end, cdata, ok := s.bang(i + 2)
			if !ok {
				return res, false
			}
			if cdata {
				res.texts++
				if s.crs {
					res.loneCRs += loneCRs(s.w[i+len("<![CDATA[") : end-len(cdataEnd)])
				}
			}
			i = end
		case b == '?':
			if i, ok = s.skipTo(i+2, piEnd); !ok {
				return res, false
			}
		case isNameStart(b):
			end, selfClose, ok := s.startTag(i + 1)
			if !ok {
				return res, false
			}
			res.elems++
			// Even a self-closing element occupies depth+1 for the parser's
			// MaxDepth check, so it counts toward maxDepth either way.
			res.maxDepth = max(res.maxDepth, depth+1)
			if !selfClose {
				depth++
			}
			i = end
		default:
			return res, false // the tokenizer would reject this too
		}
	}
}

// textRun scans character data from position i to the next '<' and
// returns that position. text reports whether the run may become a text
// node: it holds a non-space byte or an entity, or, under keepWS, any byte
// at all. Every entity must be one the tokenizer accepts, or the skim
// aborts.
func (s *skimmer) textRun(i int) (end int, text, ok bool) {
	if i < len(s.w) && s.w[i] == '<' {
		return i, false, true // no text between two tags
	}
	k := i // bytes before k are scanned, their entities validated
	for {
		lim := len(s.w)
		j := bytes.IndexByte(s.w[k:], '<')
		if j >= 0 {
			lim = k + j
		}
		for k < lim {
			a := bytes.IndexByte(s.w[k:lim], '&')
			if a < 0 {
				text = text || hasText(s.w[k:lim])
				k = lim
				break
			}
			text = text || hasText(s.w[k:k+a])
			k += a
			n, valid := validEntityAt(s.w[k:lim])
			if !valid {
				// An entity cannot contain '<' and spans at most 18 bytes,
				// so with a tag boundary or 19+ bytes in view the verdict
				// is final; otherwise it may end past the window.
				if j >= 0 || lim-k >= 19 {
					return 0, false, false
				}
				break
			}
			text = true
			k += n
		}
		if j >= 0 {
			return lim, text || (s.keepWS && lim > i), true
		}
		if !s.fill(len(s.w)) {
			return 0, false, false
		}
	}
}

// nameEnd returns the position of the first byte at or after i that
// cannot continue an XML name.
func (s *skimmer) nameEnd(i int) (int, bool) {
	for {
		for ; i < len(s.w); i++ {
			if !isNameByte(s.w[i]) {
				return i, true
			}
		}
		if !s.fill(i) {
			return 0, false
		}
	}
}

// spaceEnd returns the position of the first non-whitespace byte at or
// after i.
func (s *skimmer) spaceEnd(i int) (int, bool) {
	for {
		for ; i < len(s.w); i++ {
			if !isXMLSpace(s.w[i]) {
				return i, true
			}
		}
		if !s.fill(i) {
			return 0, false
		}
	}
}

// past returns the position just after the first c at or after i.
func (s *skimmer) past(i int, c byte) (int, bool) {
	for {
		if j := bytes.IndexByte(s.w[i:], c); j >= 0 {
			return i + j + 1, true
		}
		i = len(s.w)
		if !s.fill(i) {
			return 0, false
		}
	}
}

// skipTo returns the position just after the first occurrence of pat at or
// after i.
func (s *skimmer) skipTo(i int, pat []byte) (int, bool) {
	for {
		if j := bytes.Index(s.w[i:], pat); j >= 0 {
			return i + j + len(pat), true
		}
		// An occurrence may straddle the window's end: resume just before.
		i = max(i, len(s.w)-len(pat)+1)
		if !s.fill(len(s.w)) {
			return 0, false
		}
	}
}

// startTag validates a start tag from the first name byte at i through
// its '>' (or '/>'), applying the tokenizer's attribute grammar exactly:
// anything it would reject aborts the skim. The tag's local name marks its
// label present, and the raw name extent is pushed for end-tag matching
// unless the tag self-closes.
func (s *skimmer) startTag(i int) (end int, selfClose, ok bool) {
	start := i
	if i, ok = s.nameEnd(i); !ok {
		return 0, false, false
	}
	nameEnd := i
	s.pf.mark(localName(s.w[start:nameEnd]), s.present)
	for {
		if i, ok = s.spaceEnd(i); !ok {
			return 0, false, false
		}
		switch b := s.w[i]; {
		case b == '>':
			s.stack = append(s.stack, start, nameEnd)
			return i + 1, false, true
		case b == '/':
			if c, ok := s.at(i + 1); !ok || c != '>' {
				return 0, false, false
			}
			return i + 2, true, true
		case !isNameStart(b):
			return 0, false, false
		}
		// Attribute: name, optional spaces, '=', optional spaces, quoted
		// value — the tokenizer accepts nothing less.
		if i, ok = s.nameEnd(i + 1); !ok {
			return 0, false, false
		}
		if i, ok = s.spaceEnd(i); !ok || s.w[i] != '=' {
			return 0, false, false
		}
		if i, ok = s.spaceEnd(i + 1); !ok {
			return 0, false, false
		}
		q := s.w[i]
		if q != '\'' && q != '"' {
			return 0, false, false
		}
		if i, ok = s.past(i+1, q); !ok {
			return 0, false, false
		}
	}
}

// endTag validates an end tag from the first name byte at i through its
// '>', and matches the raw name against the innermost open element — the
// record root's own name once the skim's stack is empty. A mismatch would
// fail the real parse, so it aborts the skim.
func (s *skimmer) endTag(i int) (end int, ok bool) {
	if b, ok := s.at(i); !ok || !isNameStart(b) {
		return 0, false
	}
	start := i
	if i, ok = s.nameEnd(i); !ok {
		return 0, false
	}
	nameEnd := i
	if i, ok = s.spaceEnd(i); !ok || s.w[i] != '>' {
		return 0, false
	}
	open := s.root
	if n := len(s.stack); n > 0 {
		open = s.w[s.stack[n-2]:s.stack[n-1]]
		s.stack = s.stack[:n-2]
	}
	if !bytes.Equal(open, s.w[start:nameEnd]) {
		return 0, false
	}
	return i + 1, true
}

// bang handles "<!" with i at the byte after the '!': comments and CDATA
// sections are skipped to their terminators. Directives inside a record
// are rare and DOCTYPE-shaped ones need nesting rules, so they abort the
// skim.
func (s *skimmer) bang(i int) (end int, cdata, ok bool) {
	b, ok := s.at(i)
	switch {
	case !ok:
	case b == '-':
		if c, ok := s.at(i + 1); !ok || c != '-' {
			return 0, false, false
		}
		end, ok = s.skipTo(i+2, commentEnd)
		return end, false, ok
	case b == '[':
		for k, c := range []byte("CDATA[") {
			if d, ok := s.at(i + 1 + k); !ok || d != c {
				return 0, false, false
			}
		}
		end, ok = s.skipTo(i+7, cdataEnd)
		return end, true, ok
	}
	return 0, false, false
}

// hasText reports whether b contains any byte that is not XML whitespace.
func hasText(b []byte) bool {
	for _, c := range b {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return true
		}
	}
	return false
}

// validEntityAt checks whether b starts with a complete entity the
// tokenizer would accept ('&' at b[0]), returning its total byte length.
// It mirrors the tokenizer's rules exactly: the five predefined names and
// numeric character references within the rune range, at most 16 bytes
// between '&' and ';'.
func validEntityAt(b []byte) (n int, ok bool) {
	end := -1
	for i := 1; i < len(b) && i <= 17; i++ {
		if b[i] == ';' {
			end = i
			break
		}
		if !(b[i] == '#' || isNameByte(b[i])) {
			return 0, false
		}
	}
	if end < 2 {
		return 0, false
	}
	ent := b[1:end]
	if ent[0] == '#' {
		digits := ent[1:]
		hex := false
		if len(digits) > 0 && (digits[0] == 'x' || digits[0] == 'X') {
			hex, digits = true, digits[1:]
		}
		if len(digits) == 0 {
			return 0, false
		}
		var r int64
		for _, d := range digits {
			var v int64
			switch {
			case d >= '0' && d <= '9':
				v = int64(d - '0')
			case hex && d >= 'a' && d <= 'f':
				v = int64(d-'a') + 10
			case hex && d >= 'A' && d <= 'F':
				v = int64(d-'A') + 10
			default:
				return 0, false
			}
			base := int64(10)
			if hex {
				base = 16
			}
			if r = r*base + v; r > 0x10FFFF {
				return 0, false
			}
		}
		return end + 1, true
	}
	switch string(ent) {
	case "lt", "gt", "amp", "apos", "quot":
		return end + 1, true
	}
	return 0, false
}

// tryPrefilter runs the prefilter cascade on the record whose root start
// tag the tokenizer just consumed. It returns true when the record was
// skipped (bytes consumed, slot burned, counters bumped) and false when the
// record must be parsed — in which case nothing was consumed and the parse
// proceeds byte-identically to an unfiltered run.
func (rr *RecordReader) tryPrefilter(startOff int64) bool {
	pf := rr.opts.Prefilter
	tk := rr.tk
	sc := &rr.pfScratch
	sc.reset(pf)
	pf.mark(tk.name, sc.present)
	if tk.selfClose {
		// The record is exactly its root element.
		if h := pf.verdict(sc); !h.zero() {
			rr.hint = h.clone()
			return false
		}
		tk.selfClose = false
		tk.pop()
		rr.recordPrefiltered(startOff, tk.off()-startOff)
		return true
	}
	max := prefilterLookahead
	if mb := rr.opts.MaxBytes; mb > 0 {
		// Only skip records that provably fit the per-record byte budget;
		// an over-budget record must fail the normal way.
		rem := mb - (tk.off() - startOff)
		if rem <= 0 {
			return false
		}
		if int64(max) > rem {
			max = int(rem)
		}
	}
	sk := skimmer{t: rr.tr, max: max, pf: pf, present: sc.present, root: tk.top(),
		keepWS: rr.opts.KeepWhitespace, stack: rr.skimStack[:0]}
	res, ok := sk.skimRecord()
	rr.skimStack = sk.stack[:0]
	if !ok {
		return false
	}
	// Resource limits: a record that might trip one must parse normally so
	// the limit error (and its recovery) surface exactly as unfiltered.
	// elems+texts is an upper bound on node count, so clearing it here
	// guarantees the real parse would have finished.
	if d := rr.opts.MaxDepth; d > 0 && res.maxDepth > d {
		return false
	}
	if n := rr.opts.MaxNodes; n > 0 && 1+res.elems+res.texts > n {
		return false
	}
	if sb := rr.opts.MaxStreamBytes; sb > 0 && tk.off()+int64(res.n) > sb {
		return false
	}
	if h := pf.verdict(sc); !h.zero() {
		rr.hint = h.clone()
		return false
	}
	// Skip: advance the line count exactly as the tokenizer would have over
	// the skipped bytes — every '\n', plus each '\r' no '\n' follows in
	// text or CDATA (in markup the tokenizer reads a lone '\r' as plain
	// whitespace). Lone CRs are rare, so only a record holding one is
	// skimmed a second time to place them. Then consume the record's bytes
	// through the normal path (keeping the resync tail exactly as a parse
	// would), pop the root, burn the slot.
	body := sk.w[:res.n]
	tk.line += bytes.Count(body, newline)
	if loneCRs(body) > 0 {
		sk.crs = true
		res, _ = sk.skimRecord()
		tk.line += res.loneCRs
	}
	rr.tr.consume(len(body))
	tk.pop()
	rr.recordPrefiltered(startOff, int64(len(body)))
	return true
}

// recordPrefiltered accounts one record skipped by the prefilter: trace
// event, metrics counter, and the record's index and sibling slot (skipped
// records leave numbering gaps exactly like failed ones).
func (rr *RecordReader) recordPrefiltered(startOff, n int64) {
	if s := rr.opts.Events; s.Enabled() {
		s.Emit("prefilter", fmt.Sprintf("record %d skipped by prefilter at byte %d (%d bytes)",
			rr.idx, startOff, n))
	}
	if m := rr.opts.Metrics; m != nil {
		m.RecordsPrefiltered.Inc()
	}
	rr.prefiltered++
	rr.consumeSlot()
}

// loneCRs counts the '\r' bytes in b that no '\n' follows; a '\r' that
// ends b counts, since markup follows it.
func loneCRs(b []byte) int {
	n := 0
	for {
		j := bytes.IndexByte(b, '\r')
		if j < 0 {
			return n
		}
		if j+1 == len(b) || b[j+1] != '\n' {
			n++
		}
		b = b[j+1:]
	}
}
