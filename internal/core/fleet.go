package core

import (
	"math/bits"
	"slices"
	"sync"

	"xpe/internal/alphabet"
	"xpe/internal/ha"
	"xpe/internal/hedge"
	"xpe/internal/hre"
	"xpe/internal/sfa"
)

// MaxFleet bounds a fleet's members, its distinct side expressions and its
// distinct e₁ conditions: each of the three sets owns the bits of one
// uint64 mask.
const MaxFleet = 64

// Fleet is Algorithm 1 for a run of compiled queries at once. Theorem 4's
// M is the product of the component DHAs; a single CompiledPHR already
// runs one DHA per distinct side expression in lockstep, and a fleet lifts
// that deduplication across its members: every distinct side expression
// and every distinct e₁ is stepped once per node, however many members
// mention it. One evaluation makes one bottom-up pass, writing fleet-wide
// sibling-membership bits and e₁ marks, and one shared top-down walk that
// steps the mirror automaton of every live member at each element. A
// member whose mirror state dies leaves the walk for that subtree, and a
// subtree with no live member is not walked.
//
// Every CompiledQuery evaluates through a fleet of one, so Select,
// SelectEach, Locate, ExplainEach and the bindings share this one kernel.
// A Fleet is immutable once built and safe for concurrent evaluation.
type Fleet struct {
	// Names is the widest of the alphabet views the members were compiled
	// against, all views of one live alphabet; an evaluation resolves the
	// document's labels in it once. A label past a member's own view takes
	// that member's sinks, as the label would in its own view.
	Names *ha.Names
	// First is the index, in the slice given to AppendFleets, of the
	// fleet's first member: member i is query First+i.
	First int

	members  []member
	comps    []*component  // distinct side automata: comps[i] owns fleet bit i
	subs     []*subChecker // distinct e₁ checkers: subs[j] owns mark bit j
	compKeys []autoKey     // compKeys[i] identifies comps[i]
	subKeys  []autoKey     // subKeys[j] identifies subs[j]
	bases    []baseTest    // every member's bases, remapped to fleet component bits
	// labels[sym] holds the members with a base labeled sym: at an element
	// of any other label a member has no candidate, so its mirror state
	// dies without a lookup.
	labels []uint64
}

// autoKey identifies a side or e₁ automaton within a fleet: automata
// compiled from one expression answer every membership alike, whichever
// query compiled them, so the fleet steps the first one admitted. Only '.'
// reads the alphabet, so a '.'-free expression is keyed by its rendering
// alone (gen 0), and a '.'-bearing one also by the generation it was
// compiled at, which is never 0: its substitution symbol is interned first.
type autoKey struct {
	gen  uint64
	expr string
}

// newAutoKey returns the key of expression e, rendered as expr and
// compiled at generation gen.
func newAutoKey(e *hre.Expr, expr string, gen uint64) autoKey {
	if !e.MentionsAny() {
		gen = 0
	}
	return autoKey{gen: gen, expr: expr}
}

func indexKey(keys []autoKey, k autoKey) int {
	for i := range keys {
		if keys[i] == k {
			return i
		}
	}
	return -1
}

// member is one query of a fleet: its mirror automaton (through phr), its
// bases over fleet component bits, and the mark bit of its e₁.
type member struct {
	phr    *CompiledPHR
	bases  []baseTest // a window of Fleet.bases, set by seal
	lo, hi int
	comps  uint64 // fleet components the bases read
	mark   uint64 // fleet mark bit of the e₁ condition; 0 = any subhedge
}

// AppendFleets partitions qs into fleets, maximal contiguous runs over
// views of one alphabet that share one metrics sink within the MaxFleet
// limits, and returns them in dst[:0]. The elements of dst, and its spare
// capacity, lend their storage to the new fleets, so rebuilding a run's
// fleets into the slice a previous build returned allocates nothing once
// warm.
func AppendFleets(dst []Fleet, qs []*CompiledQuery) []Fleet {
	dst = dst[:0]
	for i, cq := range qs {
		if n := len(dst); n > 0 && dst[n-1].admit(cq.phr, cq.sub) {
			continue
		}
		dst = slices.Grow(dst, 1)[:len(dst)+1]
		f := &dst[len(dst)-1]
		f.reset(cq.Names, i)
		f.admit(cq.phr, cq.sub) // a query alone always fits
	}
	for i := range dst {
		dst[i].seal()
	}
	return dst
}

// newFleet returns the fleet of one query: its envelope phr and its e₁
// checker sub (nil = any subhedge).
func newFleet(phr *CompiledPHR, sub *subChecker) *Fleet {
	f := &Fleet{}
	f.reset(phr.Names, 0)
	f.admit(phr, sub)
	f.seal()
	return f
}

// Len returns the number of members.
func (f *Fleet) Len() int { return len(f.members) }

func (f *Fleet) reset(names *ha.Names, first int) {
	f.Names, f.First = names, first
	f.members, f.comps, f.subs = f.members[:0], f.comps[:0], f.subs[:0]
	f.compKeys, f.subKeys, f.bases = f.compKeys[:0], f.subKeys[:0], f.bases[:0]
}

// admit adds the query (phr, sub) as the fleet's next member. It reports
// false, leaving the fleet as it was, when the query's alphabet is not a
// view of the fleet's, its metrics sink is another, or it would break a
// MaxFleet limit.
func (f *Fleet) admit(phr *CompiledPHR, sub *subChecker) bool {
	if len(f.members) == MaxFleet || !phr.Names.SameOrigin(f.Names) ||
		(len(f.members) > 0 && phr.metrics != f.members[0].phr.metrics) {
		return false
	}
	var remap [maxComponents]int
	fresh := 0
	for ci, comp := range phr.comps {
		if remap[ci] = indexKey(f.compKeys, comp.key); remap[ci] < 0 {
			remap[ci] = len(f.comps) + fresh
			fresh++
		}
	}
	mark := -1
	if sub != nil {
		if mark = indexKey(f.subKeys, sub.key); mark < 0 {
			mark = len(f.subs)
		}
	}
	if len(f.comps)+fresh > MaxFleet || mark >= MaxFleet {
		return false
	}
	// Commit: the fresh components take the next indices in order.
	if phr.Names.Generation() > f.Names.Generation() {
		f.Names = phr.Names
	}
	for ci, comp := range phr.comps {
		if remap[ci] == len(f.comps) {
			f.comps = append(f.comps, comp)
			f.compKeys = append(f.compKeys, comp.key)
		}
	}
	m := member{phr: phr, lo: len(f.bases)}
	if mark == len(f.subs) {
		f.subs = append(f.subs, sub)
		f.subKeys = append(f.subKeys, sub.key)
	}
	if mark >= 0 {
		m.mark = 1 << uint(mark)
	}
	remapBits := func(b uint64) uint64 {
		var out uint64
		for ; b != 0; b &= b - 1 {
			out |= 1 << uint(remap[bits.TrailingZeros64(b)])
		}
		return out
	}
	for _, b := range phr.bases {
		rb := baseTest{sym: b.sym, left: remapBits(b.left), right: remapBits(b.right)}
		m.comps |= rb.left | rb.right
		f.bases = append(f.bases, rb)
	}
	m.hi = len(f.bases)
	f.members = append(f.members, m)
	return true
}

// seal points every member at its window of the bases slab, which no
// longer moves, and indexes the members by base label.
func (f *Fleet) seal() {
	f.labels = f.labels[:0]
	for i := range f.members {
		m := &f.members[i]
		m.bases = f.bases[m.lo:m.hi:m.hi]
		for _, b := range m.bases {
			if n := int(b.sym) + 1; n > len(f.labels) {
				f.labels = append(f.labels, make([]uint64, n-len(f.labels))...)
			}
			f.labels[b.sym] |= 1 << uint(i)
		}
	}
}

// Each runs Algorithm 1 for every member whose bit is set in allow (bit i
// = member i) and calls fn once per located node with the member index
// and the node's Dewey path, which is reused between calls. Matches come
// in document order; at one node, in ascending member order. It returns
// false when fn stopped the walk early. Warm evaluation allocates nothing.
func (f *Fleet) Each(h hedge.Hedge, allow uint64, fn func(m int, p hedge.Path, n *hedge.Node) bool) bool {
	s := getScratch()
	s.fn = fn
	return f.run(h, allow, s)
}

// each is Each for a fleet of one, with a callback that takes no member
// index.
func (f *Fleet) each(h hedge.Hedge, fn func(p hedge.Path, n *hedge.Node) bool) bool {
	s := getScratch()
	s.fn1 = fn
	return f.run(h, 1, s)
}

// visit is Each with a callback that can read the match's whole spine
// (ExplainEach, the bindings).
func (f *Fleet) visit(h hedge.Hedge, allow uint64, fn func(s *scratch, m int, n *hedge.Node) bool) bool {
	s := getScratch()
	s.visit = fn
	return f.run(h, allow, s)
}

// run evaluates the allowed members over h with s, flushes the counters
// and recycles s.
func (f *Fleet) run(h hedge.Hedge, allow uint64, s *scratch) bool {
	if allow &= ^uint64(0) >> uint(MaxFleet-len(f.members)); allow == 0 {
		putScratch(s)
		return true
	}
	s.f, s.root = f, h
	s.ids = resolveLabels(h, f.Names, s.ids[:0])
	// Only the automata the allowed members read are stepped.
	var needComps, needSubs uint64
	for l := allow; l != 0; l &= l - 1 {
		m := &f.members[bits.TrailingZeros64(l)]
		needComps |= m.comps
		needSubs |= m.mark
	}
	s.act = s.act[:0]
	for l := needComps; l != 0; l &= l - 1 {
		s.act = append(s.act, bits.TrailingZeros64(l))
	}
	s.nComps = len(s.act)
	for l := needSubs; l != 0; l &= l - 1 {
		s.act = append(s.act, bits.TrailingZeros64(l))
	}
	s.reset(len(s.ids))
	recs := f.annotate(h, s, 1)
	s.rootRecs = recs

	k := len(f.members)
	if need := (s.maxDepth + 1) * k; cap(s.mirror) < need {
		s.mirror = make([]*sfa.LazyState, need)
	}
	s.mirror = s.mirror[:cap(s.mirror)]
	for i := range f.members {
		s.mirror[i] = f.members[i].phr.mirror.Start
	}
	clear(s.marks[:])
	done := s.walk(h, recs, 0, allow)
	f.flush(s, allow)
	putScratch(s)
	return done
}

// flush reports the evaluation's lazy lookups to each stepped lazy
// automaton and adds its counters to the fleet's metrics sink: per allowed
// member one document, its nodes and its marks, as if each had run alone,
// and the transitions once, as the fleet took them.
func (f *Fleet) flush(s *scratch, allow uint64) {
	sink := f.members[0].phr.metrics
	for a, i := range s.act {
		var lz *ha.LazyDet
		if a < s.nComps {
			lz = f.comps[i].lazy
		} else {
			lz = f.subs[i].lazy
		}
		if lz == nil {
			continue
		}
		lz.Lookups.Add(s.lookups[a])
		if sink != nil {
			flushLazyDelta(sink, lz)
		}
	}
	if sink == nil {
		return
	}
	n := int64(bits.OnesCount64(allow))
	var marks int64
	for l := allow; l != 0; l &= l - 1 {
		marks += s.marks[bits.TrailingZeros64(l)]
	}
	sink.Docs.Add(n)
	sink.Nodes.Add(n * int64(len(s.ids)))
	sink.Marks.Add(marks)
	sink.Transitions.Add(s.steps)
}

// resolveLabels appends the label id of every node of h, in pre-order, to
// dst and returns the extended slice: element labels from names.Syms,
// variables from names.Vars, alphabet.None for other leaves and for names
// the view does not hold. A fleet resolves against the widest of its
// members' views, so a label interned after a member's compilation lies
// past that member's alphabet and takes its sink.
func resolveLabels(h hedge.Hedge, names *ha.Names, dst []int32) []int32 {
	for _, n := range h {
		id := alphabet.None
		switch n.Kind {
		case hedge.Elem:
			id = names.Syms.Lookup(n.Name)
		case hedge.Var:
			id = names.Vars.Lookup(n.Name)
		}
		dst = append(dst, int32(id))
		if n.Kind == hedge.Elem {
			dst = resolveLabels(n.Children, names, dst)
		}
	}
	return dst
}

// annot is the per-node record of the bottom-up pass, a tree parallel to
// the hedge so the walk runs map-free in document order.
type annot struct {
	sym         int32  // label id (see resolveLabels)
	kids        int32  // offset in the states slab of the children's block
	left, right uint64 // fleet bit i: elder/younger siblings ∈ F of comps[i]
	marks       uint64 // fleet bit j: subhedge ∈ L(subs[j])
	children    []annot
}

// scratch is one evaluation's state: the bottom-up records and automaton
// states, bump-allocated from slabs sized to the document, and the walk's
// mirror states, one row of members per depth. Scratches are pooled, so
// warm evaluation allocates nothing; the pass tallies its transitions in
// steps as plain arithmetic.
type scratch struct {
	f        *Fleet
	root     hedge.Hedge
	rootRecs []annot
	ids      []int32 // the document's label ids, one per node in pre-order
	next     int     // pre-order index of the next node to annotate
	act      []int   // stepped automata: fleet comps, then fleet subs
	nComps   int     // len of the comps prefix of act
	maxDepth int
	steps    int64
	lookups  []int64 // per stepped automaton: its steps, reported in flush when it is lazy

	recsBuf   []annot
	recs      []annot // the unused tail of recsBuf
	statesBuf []int32 // per sibling list: one column per stepped automaton
	used      int     // statesBuf entries handed out

	mirror []*sfa.LazyState // row d: each member's state at the level-d ancestor (row 0: start)
	path   hedge.Path
	marks  [MaxFleet]int64 // located nodes per member

	fn    func(m int, p hedge.Path, n *hedge.Node) bool
	fn1   func(p hedge.Path, n *hedge.Node) bool
	visit func(s *scratch, m int, n *hedge.Node) bool
}

var scratchPool = sync.Pool{New: func() any { return &scratch{path: make(hedge.Path, 0, 32)} }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func putScratch(s *scratch) {
	s.f, s.root, s.rootRecs = nil, nil, nil
	s.fn, s.fn1, s.visit = nil, nil, nil
	s.path = s.path[:0]
	scratchPool.Put(s)
}

func (s *scratch) reset(nodes int) {
	if cap(s.recsBuf) < nodes {
		s.recsBuf = make([]annot, nodes)
	}
	if need := nodes * len(s.act); cap(s.statesBuf) < need {
		s.statesBuf = make([]int32, need)
	}
	s.recs = s.recsBuf[:nodes]
	s.statesBuf = s.statesBuf[:nodes*len(s.act)]
	s.used, s.next, s.maxDepth, s.steps = 0, 0, 0, 0
	s.lookups = slices.Grow(s.lookups[:0], len(s.act))[:len(s.act)]
	clear(s.lookups)
}

// annotate is the bottom-up pass over one sibling list at depth: label
// ids, then per stepped automaton a column of states, computed from the
// children's columns. A side component's column then yields the list's
// membership bits (forward final DFA for elder siblings, reversed final
// DFA for younger ones); an e₁ checker's yields each element's mark, the
// final DFA run over its children's column.
func (f *Fleet) annotate(h hedge.Hedge, s *scratch, depth int) []annot {
	if depth > s.maxDepth {
		s.maxDepth = depth
	}
	n := len(h)
	recs := s.recs[:n:n]
	s.recs = s.recs[n:]
	for i, node := range h {
		a := &recs[i]
		// Slabs are recycled: every field is (re)assigned here.
		a.sym = s.ids[s.next]
		s.next++
		a.children, a.kids = nil, 0
		a.left, a.right, a.marks = 0, 0, 0
		if node.Kind == hedge.Elem && len(node.Children) > 0 {
			a.children = f.annotate(node.Children, s, depth+1)
			a.kids = int32(s.used - len(node.Children)*len(s.act))
		}
	}
	block := s.statesBuf[s.used : s.used+n*len(s.act)]
	s.used += n * len(s.act)
	for c, i := range s.act {
		col := block[c*n : (c+1)*n]
		if c < s.nComps {
			f.comps[i].states(h, recs, col, s, c)
			f.comps[i].membership(recs, col, uint64(1)<<uint(i))
			// Each horizontal DFA steps once per child, each final DFA once
			// per node in both directions.
			s.steps += 2 * int64(n)
			s.lookups[c] += 2 * int64(n)
		} else {
			f.subs[i].states(h, recs, col, s, c, uint64(1)<<uint(i))
		}
	}
	return recs
}

// kidsOf returns column c of a's children's block.
func (s *scratch) kidsOf(a *annot, c int) []int32 {
	k := len(a.children)
	off := int(a.kids) + c*k
	return s.statesBuf[off : off+k]
}

// states fills col with the component's state at every node of the list.
func (comp *component) states(h hedge.Hedge, recs []annot, col []int32, s *scratch, c int) {
	if lz := comp.lazy; lz != nil {
		// A lazy horizontal run is total (its empty-set state steps to
		// itself, with the sink as payload), so only the label can fall to
		// the sink early.
		for i, node := range h {
			a := &recs[i]
			col[i] = int32(lz.Sink())
			switch node.Kind {
			case hedge.Var:
				if a.sym >= 0 {
					col[i] = int32(lz.IotaState(int(a.sym)))
				}
			case hedge.Elem:
				st := lz.HorizStart(int(a.sym))
				if st == nil {
					break
				}
				kids := s.kidsOf(a, c)
				for _, q := range kids {
					st = st.Step(uint64(q))
				}
				s.steps += int64(len(kids))
				s.lookups[c] += int64(len(kids))
				col[i] = st.Payload
			}
		}
		return
	}
	for i, node := range h {
		a := &recs[i]
		if node.Kind != hedge.Elem {
			col[i] = comp.tab.leaf(node.Kind, a.sym)
			continue
		}
		hz := comp.tab.horizOf(a.sym)
		st := hz.Start
		kids := s.kidsOf(a, c)
		for _, q := range kids {
			st = hz.Step(st, q)
		}
		s.steps += int64(len(kids))
		col[i] = comp.tab.elem(hz, st)
	}
}

// membership sets bit in the left (right) bits of every node whose elder
// (younger) siblings' states, col, lie in the component's final language.
func (comp *component) membership(recs []annot, col []int32, bit uint64) {
	if lz := comp.lazy; lz != nil {
		st := lz.FwdStart()
		for i := range recs {
			if st.Accept {
				recs[i].left |= bit
			}
			st = st.Step(uint64(col[i]))
		}
		rt := lz.BwdStart()
		for i := len(recs) - 1; i >= 0; i-- {
			if rt.Accept {
				recs[i].right |= bit
			}
			rt = rt.Step(uint64(col[i]))
		}
		return
	}
	fwd, bwd := &comp.fwdT, &comp.bwdT
	st := fwd.Start
	for i := range recs {
		if fwd.Accepting(st) {
			recs[i].left |= bit
		}
		st = fwd.Step(st, col[i])
	}
	rt := bwd.Start
	for i := len(recs) - 1; i >= 0; i-- {
		if bwd.Accepting(rt) {
			recs[i].right |= bit
		}
		rt = bwd.Step(rt, col[i])
	}
}

// states fills col with the e₁ DHA state at every node of the list and
// sets bit in the marks of every element whose subhedge ∈ L(e₁) — exactly
// the marking bit of Theorem 3's M↓e.
func (sc *subChecker) states(h hedge.Hedge, recs []annot, col []int32, s *scratch, c int, bit uint64) {
	if lz := sc.lazy; lz != nil {
		for i, node := range h {
			a := &recs[i]
			if node.Kind != hedge.Elem {
				col[i] = int32(lz.Sink())
				if node.Kind == hedge.Var && a.sym >= 0 {
					col[i] = int32(lz.IotaState(int(a.sym)))
				}
				continue
			}
			kids := s.kidsOf(a, c)
			// One final-DFA step and one horizontal-DFA step per child.
			s.steps += 2 * int64(len(kids))
			fs := lz.FwdStart()
			for _, q := range kids {
				fs = fs.Step(uint64(q))
			}
			s.lookups[c] += int64(len(kids))
			if fs.Accept {
				a.marks |= bit
			}
			col[i] = int32(lz.Sink())
			if st := lz.HorizStart(int(a.sym)); st != nil {
				for _, q := range kids {
					st = st.Step(uint64(q))
				}
				s.lookups[c] += int64(len(kids))
				col[i] = st.Payload
			}
		}
		return
	}
	for i, node := range h {
		a := &recs[i]
		if node.Kind != hedge.Elem {
			col[i] = sc.tab.leaf(node.Kind, a.sym)
			continue
		}
		kids := s.kidsOf(a, c)
		s.steps += 2 * int64(len(kids))
		fs := sc.fin.Start
		hz := sc.tab.horizOf(a.sym)
		st := hz.Start
		for _, q := range kids {
			fs = sc.fin.Step(fs, q)
			st = hz.Step(st, q)
		}
		if sc.fin.Accepting(fs) {
			a.marks |= bit
		}
		col[i] = sc.tab.elem(hz, st)
	}
}

// walk is the shared top-down pass over one sibling list at depth d: at
// each element it steps the mirror automaton of every live member from
// the member's state in row d and emits the member's match when the new
// state accepts and the e₁ mark holds. A member whose state dies leaves
// the live set for the element's subtree; a subtree with no live member
// is skipped. It returns false when the callback stopped the walk.
func (s *scratch) walk(h hedge.Hedge, recs []annot, d int, live uint64) bool {
	f := s.f
	k := len(f.members)
	parent := s.mirror[d*k : (d+1)*k]
	row := s.mirror[(d+1)*k : (d+2)*k]
	for i, n := range h {
		if n.Kind != hedge.Elem {
			continue
		}
		a := &recs[i]
		s.path = append(s.path, i)
		// Every live member steps. One with no candidate here steps to the
		// empty set, so only the members with a base of this label look
		// theirs up.
		s.steps += int64(bits.OnesCount64(live))
		var labeled uint64
		if uint(a.sym) < uint(len(f.labels)) {
			labeled = live & f.labels[a.sym]
		}
		next := uint64(0)
		for l := labeled; l != 0; l &= l - 1 {
			m := bits.TrailingZeros64(l)
			mb := &f.members[m]
			cands := candidatesOf(mb.bases, a.sym, a.left, a.right)
			if cands == 0 {
				continue
			}
			st := parent[m].Step(cands)
			if st.Dead {
				continue
			}
			row[m] = st
			next |= 1 << uint(m)
			if st.Accept && a.marks&mb.mark == mb.mark {
				s.marks[m]++
				if !s.emit(m, n) {
					return false
				}
			}
		}
		if next != 0 && len(a.children) > 0 && !s.walk(n.Children, a.children, d+1, next) {
			return false
		}
		s.path = s.path[:len(s.path)-1]
	}
	return true
}

func (s *scratch) emit(m int, n *hedge.Node) bool {
	switch {
	case s.fn != nil:
		return s.fn(m, s.path, n)
	case s.fn1 != nil:
		return s.fn1(s.path, n)
	default:
		return s.visit(s, m, n)
	}
}

// spine calls fn for every level of the current match of member m, top
// first: the level's node, the candidate set the member's mirror
// automaton stepped with there, and the state it entered.
func (s *scratch) spine(m int, fn func(n *hedge.Node, cands uint64, st *sfa.LazyState)) {
	k := len(s.f.members)
	bases := s.f.members[m].bases
	h, recs := s.root, s.rootRecs
	for d, i := range s.path {
		n, a := h[i], &recs[i]
		fn(n, candidatesOf(bases, a.sym, a.left, a.right), s.mirror[(d+1)*k+m])
		h, recs = n.Children, a.children
	}
}

// candidatesOf returns the bit set of the bases matched by the pointed
// base hedge at a node: label equal and both side memberships hold
// (Definition 17 via the ξ mapping of Theorem 4).
func candidatesOf(bases []baseTest, sym int32, left, right uint64) uint64 {
	var out uint64
	for i := range bases {
		b := &bases[i]
		if b.sym == sym && left&b.left == b.left && right&b.right == b.right {
			out |= 1 << uint(i)
		}
	}
	return out
}
