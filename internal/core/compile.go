package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"xpe/internal/alphabet"
	"xpe/internal/ha"
	"xpe/internal/hedge"
	"xpe/internal/hre"
	"xpe/internal/metrics"
	"xpe/internal/sfa"
)

// CompiledPHR is the executable form of a pointed hedge representation —
// the (M, ≡, L) triple of Theorem 4 in evaluation-ready shape:
//
//   - the component automata realize the single deterministic hedge
//     automaton M: one complete DHA per distinct side expression, run in
//     lockstep (their product is M; materializing the product is deferred
//     to the match-identifying construction, which needs it explicitly);
//   - the right-invariant equivalence ≡ is used only through which final
//     sets Fᵢ₁/Fᵢ₂ a class is contained in, so the evaluator computes
//     exactly those membership bits: forward DFA runs for elder siblings,
//     reversed-DFA runs for younger siblings;
//   - the regular set L is represented by the mirror automaton N
//     (Theorem 4's deterministic string automaton accepting the mirror
//     image of L), lazily determinized over the concrete membership-bit
//     symbols and evaluated top-down in the second traversal.
type CompiledPHR struct {
	PHR   *PHR
	Names *ha.Names

	// Gen is the alphabet generation (Names.Generation) the side automata
	// were compiled against. The closed-world machinery — component DHAs
	// complete over the interned alphabet, '.'-side desugaring — is exact
	// for documents whose labels were interned at or before Gen; callers
	// that intern labels afterwards must recompile (the xpe facade does so
	// transparently through its compiled-query cache).
	Gen uint64

	comps []*component // deduplicated side automata
	bases []baseTest   // per base: label and required membership bits

	mirror *mirrorDFA

	// arenas recycles annotation slabs across Locate/Select calls, so the
	// first traversal costs two slab reslices instead of zeroing fresh
	// pages per call (which would dominate on megabyte-scale documents).
	arenas sync.Pool

	// metrics, when non-nil, receives one flush of evaluation counters per
	// Locate call. Work counts accumulate in the per-call arena as plain
	// integer arithmetic regardless; the nil check gates only the atomic
	// flush, so detached evaluation pays no synchronization.
	metrics *metrics.Eval
}

// maxComponents bounds the distinct side expressions of one PHR: component
// i owns bit i of the uint64 sibling-membership sets.
const maxComponents = 64

// baseTest is one base representation as the second traversal tests it:
// the label id, and the component bits its elder- and younger-sibling
// conditions require (0 = any hedge).
type baseTest struct {
	sym         int32
	left, right uint64
}

// SetMetrics attaches (or, with nil, detaches) an evaluation sink: every
// Locate flushes its node, mark, and transition counts there. Do not call
// concurrently with evaluation.
func (c *CompiledPHR) SetMetrics(m *metrics.Eval) { c.metrics = m }

// component is one side automaton: a complete DHA plus its final membership
// DFAs in both directions — or, in lazy mode, an on-demand subset
// construction behind the same stepping surface.
type component struct {
	dha *ha.DHA
	fwd *sfa.DFA // complete final DFA over dha states (prefix membership)
	bwd *sfa.DFA // complete DFA of the reversed final language (suffix membership)

	// tab, fwdT and bwdT are dha, fwd and bwd flattened for evaluation;
	// the map forms above serve the schema-level constructions.
	tab        dhaTables
	fwdT, bwdT sfa.Table

	// lazy, when non-nil, replaces the eager structures on the evaluation
	// paths: states and transitions materialize as documents demand them.
	// The source NHA is retained so schema-level constructions (which need
	// the concrete DFAs) can materialize the eager structures on first use.
	lazy     *ha.LazyDet
	nha      *ha.NHA
	eager    sync.Once
	minimize bool
}

// materialize builds the eager structures of a lazily compiled component.
// Evaluation keeps using the lazy path (annotateIn and the membership
// passes branch on comp.lazy); the eager DFAs exist only for schema-level
// constructions like BuildMatchAutomaton, which run their own product
// exploration and never mix states with the lazy ids.
func (comp *component) materialize() {
	if comp.lazy == nil {
		return
	}
	comp.eager.Do(func() {
		det := comp.nha.Determinize()
		fwd := det.DHA.Final.Complete()
		bwd := det.DHA.Final.Reverse().Determinize().Complete()
		if comp.minimize {
			fwd = fwd.Minimize()
			bwd = bwd.Minimize()
		}
		comp.dha, comp.fwd, comp.bwd = det.DHA, fwd, bwd
	})
}

// dhaTables is a complete DHA in evaluation form: ι and every per-label
// horizontal DFA flattened to tables. A label id past the compiled
// alphabet — interned after compilation, or never — takes the sink, which
// is what the complete automaton assigns to nodes over foreign labels.
type dhaTables struct {
	iota  []int32
	horiz []horizTable // label id → horizontal table
	none  horizTable   // stands in for labels without one (Start = Dead)
	sink  int32
}

// horizTable is one label's horizontal DFA and, per DFA state, the DHA
// state an element reaching it takes (alphabet.None = undefined).
type horizTable struct {
	sfa.Table
	out []int32
}

func newDHATables(d *ha.DHA, sink int) dhaTables {
	t := dhaTables{iota: ints32(make([]int32, len(d.Iota)), d.Iota), horiz: make([]horizTable, len(d.Horiz)),
		none: horizTable{Table: sfa.Table{Start: sfa.Dead}}, sink: int32(sink)}
	// One slab each for every label's rows and outputs: an alphabet of
	// hundreds of labels then costs a handful of allocations, not three per
	// label per automaton.
	rows, outs := 0, 0
	for _, hz := range d.Horiz {
		if hz != nil {
			rows += hz.DFA.NumStates * hz.DFA.NumSymbols
			outs += len(hz.Out)
		}
	}
	rowSlab, outSlab := make([]int32, rows), make([]int32, outs)
	for sym, hz := range d.Horiz {
		if hz == nil {
			t.horiz[sym] = t.none
			continue
		}
		n := hz.DFA.NumStates * hz.DFA.NumSymbols
		t.horiz[sym] = horizTable{Table: hz.DFA.TableIn(rowSlab[:n:n]),
			out: ints32(outSlab[:len(hz.Out):len(hz.Out)], hz.Out)}
		rowSlab, outSlab = rowSlab[n:], outSlab[len(hz.Out):]
	}
	return t
}

// ints32 converts xs into dst, which has len(xs) entries, and returns dst.
func ints32(dst []int32, xs []int) []int32 {
	for i, x := range xs {
		dst[i] = int32(x)
	}
	return dst
}

// leaf returns the state of a non-element node: ι of a known variable,
// otherwise the sink.
func (t *dhaTables) leaf(kind hedge.NodeKind, id int32) int32 {
	if kind == hedge.Var && id >= 0 && int(id) < len(t.iota) && t.iota[id] >= 0 {
		return t.iota[id]
	}
	return t.sink
}

// horizOf returns the horizontal table of element label id.
func (t *dhaTables) horizOf(id int32) *horizTable {
	if id < 0 || int(id) >= len(t.horiz) {
		return &t.none
	}
	return &t.horiz[id]
}

// elem returns the state of an element whose children drove hz to st.
func (t *dhaTables) elem(hz *horizTable, st int32) int32 {
	if st != sfa.Dead {
		if q := hz.out[st]; q >= 0 {
			return q
		}
	}
	return t.sink
}

// Options tunes PHR compilation; the zero value is the default
// configuration (used by CompilePHR).
type Options struct {
	// SkipMinimize disables Hopcroft-style minimization of the sibling
	// membership DFAs. Minimization is a design choice the ablation
	// benchmark (BenchmarkAblationMinimize) measures: it shrinks the
	// machines the two traversals step through at some extra compile cost.
	SkipMinimize bool

	// LazyDeterminize defers the Theorem 1 subset construction: side and
	// subhedge automata are compiled into on-demand caches (ha.LazyDet)
	// whose states materialize only as documents demand them, so the
	// exponential eager worst case (the C1 caveat) is paid proportionally
	// to input diversity instead of up front. Membership answers are
	// identical to the eager construction (the differential suite pins
	// this); SkipMinimize is irrelevant on the lazy evaluation path.
	LazyDeterminize bool

	// LazyTransitionBudget caps the cached transitions per lazy automaton:
	// exceeding it flushes the transition maps (states survive, so ids stay
	// valid) and counts an eviction. Zero means
	// ha.DefaultLazyTransitionBudget; negative disables the bound. Ignored
	// unless LazyDeterminize is set.
	LazyTransitionBudget int
}

// CompilePHR compiles a pointed hedge representation for Algorithm 1
// evaluation. Symbols mentioned by the PHR and its side expressions are
// interned into names; callers should intern the document alphabet they
// care about into the same names before compiling, so the side automata are
// complete over it (side expressions constrain only interned symbols;
// unknown document symbols land in the automaton sink and fail side
// conditions, matching the closed-world reading of Definition 17).
func CompilePHR(phr *PHR, names *ha.Names) (*CompiledPHR, error) {
	return CompilePHROpt(phr, names, Options{})
}

// internExprAlphabet interns every symbol, variable, and substitution
// variable mentioned by e into names. Interning ahead of automaton
// construction pins the alphabet generation: the build that follows interns
// nothing new, so the captured generation is exact for the compiled
// machinery (absent concurrent interning, which the generation mismatch
// then reports conservatively).
func internExprAlphabet(e *hre.Expr, names *ha.Names) {
	if e == nil {
		return
	}
	syms, vars, substs := e.Names()
	for _, a := range syms {
		names.Syms.Intern(a)
	}
	for _, x := range vars {
		names.Vars.Intern(x)
	}
	for _, z := range substs {
		names.Vars.Intern(ha.SubstVarName(z))
	}
}

// internPHRAlphabet interns every name the PHR mentions (base labels and
// both side expressions of every base).
func internPHRAlphabet(phr *PHR, names *ha.Names) {
	for _, b := range phr.Bases {
		names.Syms.Intern(b.Label)
		internExprAlphabet(b.Left, names)
		internExprAlphabet(b.Right, names)
	}
}

// CompilePHROpt is CompilePHR with explicit options.
func CompilePHROpt(phr *PHR, names *ha.Names, opts Options) (*CompiledPHR, error) {
	if len(phr.Bases) > 60 {
		return nil, fmt.Errorf("core: at most 60 base representations supported, have %d", len(phr.Bases))
	}
	// Deduplicate the side expressions into components, in order of first
	// appearance.
	byKey := map[string]int{}
	var sides []*hre.Expr
	sideOf := func(e *hre.Expr) int {
		if e == nil {
			return -1
		}
		key := e.String()
		idx, ok := byKey[key]
		if !ok {
			idx = len(sides)
			byKey[key] = idx
			sides = append(sides, e)
		}
		return idx
	}
	left, right := make([]int, len(phr.Bases)), make([]int, len(phr.Bases))
	for i, b := range phr.Bases {
		left[i], right[i] = sideOf(b.Left), sideOf(b.Right)
	}
	if len(sides) > maxComponents {
		return nil, fmt.Errorf("core: at most %d distinct side expressions supported, have %d", maxComponents, len(sides))
	}
	// Intern the PHR's own alphabet first, then capture the generation:
	// the automaton build below re-interns the same names idempotently, so
	// Gen is the exact closed world the side automata range over.
	internPHRAlphabet(phr, names)
	c := &CompiledPHR{PHR: phr, Names: names, Gen: names.Generation()}
	for _, e := range sides {
		comp, err := compileComponent(e, names, opts)
		if err != nil {
			return nil, err
		}
		c.comps = append(c.comps, comp)
	}
	bit := func(ci int) uint64 {
		if ci < 0 {
			return 0
		}
		return 1 << uint(ci)
	}
	for i, b := range phr.Bases {
		c.bases = append(c.bases, baseTest{sym: int32(names.Syms.Intern(b.Label)),
			left: bit(left[i]), right: bit(right[i])})
	}
	nfa := phr.Expr.CompileNFA(namesForBases(len(phr.Bases)))
	nfa.GrowAlphabet(len(phr.Bases))
	c.mirror = newMirrorDFA(nfa.Reverse())
	return c, nil
}

// compileComponent compiles one side expression into its component
// automaton.
func compileComponent(e *hre.Expr, names *ha.Names, opts Options) (*component, error) {
	nha, err := hre.Compile(e, names)
	if err != nil {
		return nil, err
	}
	if opts.LazyDeterminize {
		lz := nha.LazyDeterminize(ha.LazyOptions{TransitionBudget: opts.LazyTransitionBudget})
		return &component{lazy: lz, nha: nha, minimize: !opts.SkipMinimize}, nil
	}
	det := nha.Determinize()
	comp := &component{dha: det.DHA}
	comp.fwd = comp.dha.Final.Complete()
	comp.bwd = comp.dha.Final.Reverse().Determinize().Complete()
	if !opts.SkipMinimize {
		comp.fwd = comp.fwd.Minimize()
		comp.bwd = comp.bwd.Minimize()
	}
	comp.tab = newDHATables(comp.dha, det.Subsets.Lookup(nil))
	comp.fwdT, comp.bwdT = comp.fwd.Table(), comp.bwd.Table()
	return comp, nil
}

// MaxComponentStates returns the largest membership-DFA state count among
// the compiled side automata — the determinization-size metric reported by
// the E3/E7 experiments. For sibling conditions the subset-construction
// blowup lives in the final (sequence-membership) DFA; for vertical
// conditions in the horizontal DFAs. Both are considered.
func (c *CompiledPHR) MaxComponentStates() int {
	max := 0
	for _, comp := range c.comps {
		if comp.lazy != nil {
			// Lazy components report the states materialized so far — the
			// pay-as-you-go reading of the same metric.
			if v := int(comp.lazy.Stats().StatesBuilt); v > max {
				max = v
			}
			continue
		}
		if comp.fwd.NumStates > max {
			max = comp.fwd.NumStates
		}
		for _, hz := range comp.dha.Horiz {
			if hz != nil && hz.DFA.NumStates > max {
				max = hz.DFA.NumStates
			}
		}
	}
	return max
}

// Result is the outcome of locating nodes in a hedge.
type Result struct {
	// Located maps each located node to true.
	Located map[*hedge.Node]bool
	// Paths lists the Dewey paths of located nodes in document order.
	Paths []hedge.Path
}

// add records one located node (an Algorithm 1 match callback).
func (r *Result) add(p hedge.Path, n *hedge.Node) bool {
	r.Located[n] = true
	r.Paths = append(r.Paths, p.Clone())
	return true
}

// ResolveLabels appends the label id of every node of h, in pre-order, to
// dst and returns the extended slice: element labels from names.Syms,
// variables from names.Vars, alphabet.None for other leaves and for names
// never interned. Evaluation entries that take ids expect them resolved
// against the query's own Names (CompiledQuery.Names), so a label interned
// after compilation lies past the compiled alphabet and takes the sink.
func ResolveLabels(h hedge.Hedge, names *ha.Names, dst []int32) []int32 {
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
			dst = ResolveLabels(n.Children, names, dst)
		}
	}
	return dst
}

// annot is the per-node record of the first traversal, arranged as a tree
// parallel to the hedge so both traversals run map-free in document order.
type annot struct {
	sym        int32   // label id (see ResolveLabels)
	sub        int32   // e₁ DHA state (queries with a subhedge condition)
	marked     bool    // subhedge ∈ L(e₁); always true without e₁
	compStates []int32 // state per component (index parallels c.comps)
	leftBits   uint64  // bit i: elder-sibling sequence ∈ F of component i
	rightBits  uint64  // bit i: younger-sibling sequence ∈ F of component i
	children   []annot
}

// Locate runs Algorithm 1: two depth-first traversals, time linear in the
// number of nodes (modulo lazy determinization of the mirror automaton,
// which is amortized over the finite concrete alphabet).
func (c *CompiledPHR) Locate(h hedge.Hedge) *Result {
	res := &Result{Located: map[*hedge.Node]bool{}}
	c.each(h, nil, nil, res.add)
	return res
}

// each is Algorithm 1 over h with the e₁ condition sub (nil = any
// subhedge): the first traversal annotates every node bottom-up, the second
// steps the mirror automaton top-down and calls fn per located node in
// document order with its Dewey path (reused between calls). ids are h's
// label ids in c.Names (ResolveLabels); nil resolves them here. It returns
// false when fn stopped the walk, and flushes one evaluation's counters to
// the attached metrics sink.
func (c *CompiledPHR) each(h hedge.Hedge, ids []int32, sub *subChecker, fn func(hedge.Path, *hedge.Node) bool) bool {
	recs, ar := c.annotate(h, ids, sub)
	w := eachPool.Get().(*eachWalker)
	w.c, w.fn, w.marks = c, fn, 0
	done := w.walk(h, recs, c.mirror.start)
	if m := c.metrics; m != nil {
		m.Docs.Inc()
		m.Nodes.Add(int64(len(ar.ids)))
		m.Marks.Add(w.marks)
		m.Transitions.Add(ar.steps + ar.elems)
		c.flushLazy(m)
		if sub != nil {
			sub.flushLazy(m)
		}
	}
	w.c, w.fn = nil, nil
	w.path = w.path[:0]
	eachPool.Put(w)
	c.release(ar)
	return done
}

// eachWalker is the second-traversal state of each: the shared Dewey path
// buffer grows and shrinks in place as the walk descends.
type eachWalker struct {
	c     *CompiledPHR
	fn    func(p hedge.Path, n *hedge.Node) bool
	path  hedge.Path
	marks int64 // located nodes yielded by this walk
}

var eachPool = sync.Pool{New: func() any { return &eachWalker{path: make(hedge.Path, 0, 32)} }}

func (w *eachWalker) walk(h hedge.Hedge, recs []annot, parent *mirrorState) bool {
	c := w.c
	for i, n := range h {
		if n.Kind != hedge.Elem {
			continue
		}
		a := &recs[i]
		st := c.mirror.step(parent, c.candidates(a.sym, a.leftBits, a.rightBits))
		w.path = append(w.path, i)
		if st.accept && a.marked {
			w.marks++
			if !w.fn(w.path, n) {
				return false
			}
		}
		if !w.walk(n.Children, a.children, st) {
			return false
		}
		w.path = w.path[:len(w.path)-1]
	}
	return true
}

// flushLazy folds the since-last-flush lazy-determinization deltas of every
// lazily compiled component into the metrics sink. A no-op under eager
// compilation.
func (c *CompiledPHR) flushLazy(m *metrics.Eval) {
	for _, comp := range c.comps {
		if comp.lazy != nil {
			flushLazyDelta(m, comp.lazy)
		}
	}
}

func flushLazyDelta(m *metrics.Eval, lz *ha.LazyDet) {
	d := lz.FlushDelta()
	m.LazyStates.Add(d.StatesBuilt)
	m.LazyHits.Add(d.Hits)
	m.LazyEvictions.Add(d.Evictions)
}

// LazyStats sums the lazy-determinization counters across the side
// automata; all-zero under eager compilation.
func (c *CompiledPHR) LazyStats() ha.LazyStats {
	var s ha.LazyStats
	for _, comp := range c.comps {
		if comp.lazy != nil {
			s = s.Add(comp.lazy.Stats())
		}
	}
	return s
}

// annotArena bump-allocates every annot record (and component-state array)
// of one evaluation from two recycled slabs sized to the document. It
// doubles as the per-call tally of the first traversal's work (elems,
// steps): accumulating into the arena is single-goroutine plain arithmetic,
// flushed to the attached metrics sink — if any — once per call.
type annotArena struct {
	recsBuf   []annot
	statesBuf []int32
	idsBuf    []int32 // label ids resolved by annotate itself
	recs      []annot
	states    []int32

	ids   []int32 // the document's label ids, one per node in pre-order
	next  int     // pre-order index of the next node to annotate
	elems int64   // element nodes (= mirror-automaton steps of the second pass)
	steps int64   // component and e₁ DFA transitions taken
}

func (ar *annotArena) reset(ids []int32, comps int) {
	size := len(ids)
	if cap(ar.recsBuf) < size {
		ar.recsBuf = make([]annot, size)
	}
	if cap(ar.statesBuf) < size*comps {
		ar.statesBuf = make([]int32, size*comps)
	}
	ar.recs = ar.recsBuf[:size]
	ar.states = ar.statesBuf[:size*comps]
	ar.ids, ar.next, ar.elems, ar.steps = ids, 0, 0, 0
}

func (ar *annotArena) take(n, comps int) ([]annot, []int32) {
	recs := ar.recs[:n]
	ar.recs = ar.recs[n:]
	states := ar.states[:n*comps]
	ar.states = ar.states[n*comps:]
	return recs, states
}

// annotate is the first traversal: label ids, component states and (with
// sub) the e₁ marking bit bottom-up, then the per-sibling-list membership
// bits (forward final DFAs for elder siblings, reversed final DFAs for
// younger siblings). ids are h's label ids in c.Names; nil resolves them
// into the arena. Hand the arena to c.release once the records are no
// longer referenced.
func (c *CompiledPHR) annotate(h hedge.Hedge, ids []int32, sub *subChecker) ([]annot, *annotArena) {
	ar, _ := c.arenas.Get().(*annotArena)
	if ar == nil {
		ar = &annotArena{}
	}
	if ids == nil {
		ar.idsBuf = ResolveLabels(h, c.Names, ar.idsBuf[:0])
		ids = ar.idsBuf
	}
	ar.reset(ids, len(c.comps))
	return c.annotateIn(h, sub, ar), ar
}

// release returns an arena to the pool without retaining the caller's ids.
func (c *CompiledPHR) release(ar *annotArena) {
	ar.ids = nil
	c.arenas.Put(ar)
}

func (c *CompiledPHR) annotateIn(h hedge.Hedge, sub *subChecker, ar *annotArena) []annot {
	nc := len(c.comps)
	recs, states := ar.take(len(h), nc)
	for i, n := range h {
		a := &recs[i]
		// Slabs are recycled: every field is (re)assigned here, and the
		// membership bits accumulate with |=, so clear them explicitly.
		a.sym = ar.ids[ar.next]
		ar.next++
		a.children = nil
		a.leftBits, a.rightBits = 0, 0
		a.marked = sub == nil
		if n.Kind == hedge.Elem {
			ar.elems++
			if len(n.Children) > 0 {
				a.children = c.annotateIn(n.Children, sub, ar)
			}
		}
		a.compStates = states[i*nc : (i+1)*nc]
		for ci, comp := range c.comps {
			switch {
			case comp.lazy != nil:
				a.compStates[ci] = stateOfLazy(ci, comp, n.Kind, a.sym, a.children)
			case n.Kind != hedge.Elem:
				a.compStates[ci] = comp.tab.leaf(n.Kind, a.sym)
			default:
				hz := comp.tab.horizOf(a.sym)
				st := hz.Start
				for j := range a.children {
					st = hz.Step(st, a.children[j].compStates[ci])
				}
				a.compStates[ci] = comp.tab.elem(hz, st)
			}
		}
		// Each component's horizontal DFA steps once per child.
		ar.steps += int64(len(a.children)) * int64(nc)
		if sub != nil {
			sub.mark(a, n.Kind, ar)
		}
	}
	// The membership passes below step each component's final DFAs once per
	// node in both directions.
	ar.steps += 2 * int64(len(recs)) * int64(nc)
	for ci, comp := range c.comps {
		bit := uint64(1) << uint(ci)
		if lz := comp.lazy; lz != nil {
			st := lz.FwdStart()
			for i := range recs {
				if lz.FwdAccepting(st) {
					recs[i].leftBits |= bit
				}
				st = lz.FwdStep(st, int(recs[i].compStates[ci]))
			}
			rt := lz.BwdStart()
			for i := len(recs) - 1; i >= 0; i-- {
				if lz.BwdAccepting(rt) {
					recs[i].rightBits |= bit
				}
				rt = lz.BwdStep(rt, int(recs[i].compStates[ci]))
			}
			continue
		}
		fwd, bwd := &comp.fwdT, &comp.bwdT
		st := fwd.Start
		for i := range recs {
			if fwd.Accepting(st) {
				recs[i].leftBits |= bit
			}
			st = fwd.Step(st, recs[i].compStates[ci])
		}
		rt := bwd.Start
		for i := len(recs) - 1; i >= 0; i-- {
			if bwd.Accepting(rt) {
				recs[i].rightBits |= bit
			}
			rt = bwd.Step(rt, recs[i].compStates[ci])
		}
	}
	return recs
}

// stateOfLazy computes a node's state in a lazily determinized component
// from its children's records (already computed bottom-up), materializing
// horizontal states on demand. The lazy machines are total (HorizStep never
// goes dead), so only the label can fall to the sink early.
func stateOfLazy(ci int, comp *component, kind hedge.NodeKind, sym int32, children []annot) int32 {
	lz := comp.lazy
	switch kind {
	case hedge.Var:
		if sym >= 0 {
			return int32(lz.IotaState(int(sym)))
		}
	case hedge.Elem:
		st := lz.HorizStart(int(sym))
		if st < 0 {
			break
		}
		for j := range children {
			st = lz.HorizStep(int(sym), st, int(children[j].compStates[ci]))
		}
		return int32(lz.HorizOut(int(sym), st))
	}
	return int32(lz.Sink())
}

// candidates returns the bit set of base representations matched by the
// pointed base hedge at a node: label equal and both side memberships hold
// (Definition 17 via the ξ mapping of Theorem 4).
func (c *CompiledPHR) candidates(sym int32, leftBits, rightBits uint64) uint64 {
	var out uint64
	for i := range c.bases {
		b := &c.bases[i]
		if b.sym == sym && leftBits&b.left == b.left && rightBits&b.right == b.right {
			out |= 1 << uint(i)
		}
	}
	return out
}

// MatchesPointed evaluates a single pointed hedge against the PHR using the
// compiled machinery (used for cross-checking; Locate is the linear bulk
// evaluator).
func (c *CompiledPHR) MatchesPointed(u hedge.Hedge) (bool, error) {
	etaPath, err := u.EtaPath()
	if err != nil {
		return false, err
	}
	// The node whose envelope u is: the parent of η.
	target := etaPath[:len(etaPath)-1]
	// Strip η: evaluate on the hedge with the η-parent made childless, then
	// ask whether that node is located. Locating needs the subhedge only
	// for component states BELOW the node, which do not influence its own
	// envelope bits — η's parent has no other children by construction.
	stripped := u.Clone()
	stripped.At(target).Children = nil
	res := c.Locate(stripped)
	return res.Located[stripped.At(target)], nil
}

// mirrorDFA lazily determinizes the reversed PHR automaton over concrete
// candidate-set symbols. Theorem 4's N is this automaton completed over the
// finite alphabet (Q*/≡)×Σ×(Q*/≡); laziness keeps Algorithm 1 linear with
// a small constant in practice. Reads take no lock, so one compiled query
// can serve concurrent evaluations (concurrent Selects, the parallel
// stream): a state's accept bit is fixed when the state is created, and
// its out-edges are an immutable sorted list behind an atomic pointer,
// replaced whole when a miss adds an edge. mu serializes the misses only,
// and the finite candidate alphabet stops them once the automaton is warm.
// A miss copies the state's edge list, so it costs the state's out-degree:
// the number of distinct candidate sets seen there so far.
type mirrorDFA struct {
	rev   *sfa.NFA
	start *mirrorState

	mu  sync.Mutex
	ids map[string]*mirrorState // NFA state-set key → state; guarded by mu
}

// mirrorState is one state of the determinized mirror automaton.
type mirrorState struct {
	id     int // creation order; stable for the life of the compilation
	accept bool
	set    []int // NFA state set; read under mirrorDFA.mu only
	edges  atomic.Pointer[[]mirrorEdge]
}

// mirrorEdge is one out-edge: the successor on a candidate-bit symbol.
type mirrorEdge struct {
	cands uint64
	to    *mirrorState
}

func newMirrorDFA(rev *sfa.NFA) *mirrorDFA {
	m := &mirrorDFA{rev: rev, ids: map[string]*mirrorState{}}
	m.start = m.intern(rev.EpsClosure(rev.Start))
	return m
}

func setKey(set []int) string {
	b := make([]byte, 0, len(set)*4)
	for _, s := range set {
		b = append(b, byte(s), byte(s>>8), byte(s>>16), byte(s>>24))
	}
	return string(b)
}

// intern returns the state of an NFA state set, creating it if new. The
// caller holds mu, or is the constructor.
func (m *mirrorDFA) intern(set []int) *mirrorState {
	k := setKey(set)
	if st, ok := m.ids[k]; ok {
		return st
	}
	st := &mirrorState{id: len(m.ids), set: set}
	for _, s := range set {
		if m.rev.Accept[s] {
			st.accept = true
			break
		}
	}
	m.ids[k] = st
	return st
}

// findEdge returns the index of cands in the sorted edge list, or where it
// would be inserted, and whether it is present.
func findEdge(es []mirrorEdge, cands uint64) (int, bool) {
	lo, hi := 0, len(es)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if es[mid].cands < cands {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(es) && es[lo].cands == cands
}

// step advances on the candidate-bit symbol: the union of moves on every
// base index present in cands.
func (m *mirrorDFA) step(s *mirrorState, cands uint64) *mirrorState {
	if p := s.edges.Load(); p != nil {
		if i, ok := findEdge(*p, cands); ok {
			return (*p)[i].to
		}
	}
	return m.miss(s, cands)
}

// miss determinizes one new edge and publishes s's extended edge list.
func (m *mirrorDFA) miss(s *mirrorState, cands uint64) *mirrorState {
	m.mu.Lock()
	defer m.mu.Unlock()
	var old []mirrorEdge
	if p := s.edges.Load(); p != nil {
		old = *p
	}
	i, ok := findEdge(old, cands)
	if ok {
		return old[i].to // published by a concurrent miss
	}
	next := map[int]bool{}
	for _, q := range s.set {
		for b := 0; cands>>uint(b) != 0; b++ {
			if cands&(1<<uint(b)) == 0 {
				continue
			}
			for _, t := range m.rev.Trans[q][b] {
				next[t] = true
			}
		}
	}
	lst := make([]int, 0, len(next))
	for q := range next {
		lst = append(lst, q)
	}
	to := m.intern(m.rev.EpsClosure(lst))
	es := make([]mirrorEdge, len(old)+1)
	copy(es, old[:i])
	es[i] = mirrorEdge{cands: cands, to: to}
	copy(es[i+1:], old[i:])
	s.edges.Store(&es)
	return to
}
