package core

import (
	"fmt"
	"sync"

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

	comps []*component // deduplicated side automata
	bases []baseTest   // per base: label and required membership bits

	// mirror is N: the reversed PHR automaton determinized on demand over
	// candidate-set letters (bit i = base i). Theorem 4's N is this
	// automaton completed over the finite alphabet (Q*/≡)×Σ×(Q*/≡);
	// laziness keeps Algorithm 1 linear with a small constant in practice,
	// and its lock-free warm steps let one compiled query serve concurrent
	// evaluations. It has no transition budget: the finite candidate
	// alphabet stops its misses once it is warm.
	mirror *sfa.LazyDFA

	// metrics, when non-nil, receives one flush of evaluation counters per
	// evaluation. Work counts accumulate in the per-call scratch as plain
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
	key autoKey // the side expression's identity in a fleet

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
// Evaluation keeps using the lazy path (the fleet's bottom-up pass
// branches on comp.lazy); the eager DFAs exist only for schema-level
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
	var keys []string
	sideOf := func(e *hre.Expr) int {
		if e == nil {
			return -1
		}
		key := e.String()
		idx, ok := byKey[key]
		if !ok {
			idx = len(sides)
			byKey[key] = idx
			sides, keys = append(sides, e), append(keys, key)
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
	// gen is the exact closed world the '.'-sides range over.
	internPHRAlphabet(phr, names)
	gen := names.Generation()
	c := &CompiledPHR{PHR: phr, Names: names}
	for i, e := range sides {
		comp, err := compileComponent(e, names, opts)
		if err != nil {
			return nil, err
		}
		comp.key = newAutoKey(e, keys[i], gen)
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
	c.mirror = sfa.NewLazyDFA(nfa.Reverse(), nil, bitsToList, nil)
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

// Locate runs Algorithm 1: two depth-first traversals, time linear in the
// number of nodes (modulo lazy determinization of the mirror automaton,
// which is amortized over the finite concrete alphabet).
func (c *CompiledPHR) Locate(h hedge.Hedge) *Result {
	res := &Result{Located: map[*hedge.Node]bool{}}
	newFleet(c, nil).each(h, res.add)
	return res
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

// candidates returns the bit set of base representations matched by the
// pointed base hedge at a node (see candidatesOf).
func (c *CompiledPHR) candidates(sym int32, leftBits, rightBits uint64) uint64 {
	return candidatesOf(c.bases, sym, leftBits, rightBits)
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
