// Package ha implements hedge automata, the tree-automaton substrate of the
// paper (Section 3): deterministic hedge automata (Definitions 3–5),
// non-deterministic hedge automata (Definitions 6–8), bottom-up execution
// M‖u (Definitions 4 and 7), determinization by subset construction
// (Theorem 1), products, boolean operations, emptiness, membership,
// language equivalence, and witness generation.
//
// Automata are defined over interned alphabets: a shared *Names carries the
// interners for the symbol alphabet Σ and the variable set X. The
// horizontal languages α⁻¹(a,q) and the final-state-sequence set F are
// string automata (package sfa) whose alphabet is the state set Q.
package ha

import (
	"fmt"

	"xpe/internal/alphabet"
	"xpe/internal/hedge"
	"xpe/internal/sfa"
)

// Names carries the shared interners for Σ (element labels) and X
// (variable labels). Automata combined by products must share the same
// *Names. The interners are individually safe for concurrent use (see
// package alphabet), so a Names may be shared by concurrent parsers and
// evaluators; closed-world compilations record Generation and revalidate
// when it moves. A Names is live, or a view of a live one (see View).
type Names struct {
	Syms *alphabet.Interner
	Vars *alphabet.Interner
}

// NewNames returns fresh empty interners.
func NewNames() *Names {
	return &Names{Syms: alphabet.NewInterner(), Vars: alphabet.NewInterner()}
}

// Generation is the combined alphabet version: the sum of the symbol and
// variable interner generations. Both summands are monotone, so the sum is
// too, and it advances exactly when either interner assigns a fresh id —
// i.e. whenever the closed-world reading of '.'-sides and schema products
// would change. Reading it is two atomic loads; no lock is taken.
func (n *Names) Generation() uint64 {
	return n.Syms.Generation() + n.Vars.Generation()
}

// Clone returns independent live copies of both interners.
func (n *Names) Clone() *Names {
	return &Names{Syms: n.Syms.Clone(), Vars: n.Vars.Clone()}
}

// View returns an immutable O(1) view of both interners as they stand.
// Compilations build automata against a view so that a concurrent Intern
// into the shared Names cannot resize the alphabet mid-construction; ids
// agree between a view and its origin for every name the view holds,
// because interners are append-only.
func (n *Names) View() *Names {
	return &Names{Syms: n.Syms.View(), Vars: n.Vars.View()}
}

// SameOrigin reports whether n and o are views of (or are) the same live
// interners. Of two such Names the one with the larger Generation holds
// every name of the other under the same id.
func (n *Names) SameOrigin(o *Names) bool {
	return n.Syms.Origin() == o.Syms.Origin() && n.Vars.Origin() == o.Vars.Origin()
}

// ExtensionOf reports whether n is an append-only extension of base: every
// symbol and variable of base keeps its id in n. True between any two
// snapshots of one growing alphabet, which is what lets an automaton
// compiled against the older snapshot be reinterpreted over the newer one
// (Complete() maps the extension symbols to the sink).
func (n *Names) ExtensionOf(base *Names) bool {
	return n.Syms.Extends(base.Syms) && n.Vars.Extends(base.Vars)
}

// Horiz is the horizontal transition structure of a deterministic hedge
// automaton for one symbol a: a DFA over the state set Q reading the
// child-state sequence, and, per horizontal DFA state, the resulting
// automaton state (alphabet.None when α is undefined there). Together these
// realize α(a, q₁…q_k) with the regularity condition of Definition 3.
type Horiz struct {
	DFA *sfa.DFA
	Out []int // indexed by DFA state; alphabet.None = undefined
}

// DHA is a deterministic hedge automaton (Definition 3). Transitions may be
// partial; hedges that fall off the automaton are rejected (equivalently,
// the automaton can be completed with a sink state via Complete).
type DHA struct {
	Names     *Names
	NumStates int
	Iota      []int    // variable id → state (alphabet.None = undefined)
	Horiz     []*Horiz // symbol id → horizontal structure (nil = undefined)
	Final     *sfa.DFA // DFA over Q accepting the final state sequences
}

// NumSyms returns the number of symbols the automaton knows about.
func (d *DHA) NumSyms() int { return len(d.Horiz) }

// Run is the computation M‖u of a hedge by a DHA (Definition 4): the state
// assigned to every node. States[n] is alphabet.None where α was undefined.
type Run struct {
	States   map[*hedge.Node]int
	Top      []int // ceil of the computation (states of top-level nodes)
	Accepted bool
	Complete bool // false if some node received no state
}

// Exec computes M‖u and acceptance (Definition 5).
func (d *DHA) Exec(h hedge.Hedge) *Run {
	r := &Run{States: make(map[*hedge.Node]int, h.Size())}
	r.Complete = true
	r.Top = d.execHedge(h, r)
	r.Accepted = d.acceptsTop(r.Top)
	return r
}

func (d *DHA) acceptsTop(top []int) bool {
	st := d.Final.Start
	for _, q := range top {
		if q == alphabet.None {
			return false
		}
		st = d.Final.Step(st, q)
	}
	return d.Final.Accepting(st)
}

func (d *DHA) execHedge(h hedge.Hedge, r *Run) []int {
	states := make([]int, len(h))
	for i, n := range h {
		states[i] = d.execNode(n, r)
	}
	return states
}

func (d *DHA) execNode(n *hedge.Node, r *Run) int {
	var q int
	switch n.Kind {
	case hedge.Var:
		q = alphabet.None
		if v := d.Names.Vars.Lookup(n.Name); v != alphabet.None && v < len(d.Iota) {
			q = d.Iota[v]
		}
	case hedge.Elem:
		children := d.execHedge(n.Children, r)
		q = d.applyAlpha(n.Name, children)
	default:
		// Substitution-symbol leaves are tracked as reserved variables
		// (Lemma 1 allows substitution symbols as variables).
		q = alphabet.None
		if v := d.Names.Vars.Lookup(SubstVarName(n.Name)); v != alphabet.None && v < len(d.Iota) {
			q = d.Iota[v]
		}
	}
	if q == alphabet.None {
		r.Complete = false
	}
	r.States[n] = q
	return q
}

// applyAlpha computes α(a, q₁…q_k) for a symbol name and child states.
func (d *DHA) applyAlpha(symName string, children []int) int {
	sym := d.Names.Syms.Lookup(symName)
	if sym == alphabet.None || sym >= len(d.Horiz) || d.Horiz[sym] == nil {
		return alphabet.None
	}
	hz := d.Horiz[sym]
	st := hz.DFA.Start
	for _, q := range children {
		if q == alphabet.None {
			return alphabet.None
		}
		st = hz.DFA.Step(st, q)
		if st == sfa.Dead {
			return alphabet.None
		}
	}
	if st == sfa.Dead || st >= len(hz.Out) {
		return alphabet.None
	}
	return hz.Out[st]
}

// Accepts reports whether the DHA accepts the hedge.
func (d *DHA) Accepts(h hedge.Hedge) bool { return d.Exec(h).Accepted }

// ToNHA converts the DHA to an equivalent non-deterministic hedge
// automaton.
func (d *DHA) ToNHA() *NHA {
	n := NewNHA(d.Names)
	n.NumStates = d.NumStates
	n.Iota = make([][]int, len(d.Iota))
	for v, q := range d.Iota {
		if q != alphabet.None {
			n.Iota[v] = []int{q}
		}
	}
	for sym, hz := range d.Horiz {
		if hz == nil {
			continue
		}
		// α⁻¹(a, q) = words driving the horizontal DFA into a state with
		// Out = q.
		byResult := map[int][]int{}
		for hs, q := range hz.Out {
			if q != alphabet.None {
				byResult[q] = append(byResult[q], hs)
			}
		}
		for q, hstates := range byResult {
			dfa := hz.DFA.Clone()
			for i := range dfa.Accept {
				dfa.Accept[i] = false
			}
			for _, hs := range hstates {
				dfa.Accept[hs] = true
			}
			dfa.NumSymbols = d.NumStates
			n.AddRule(sym, q, dfa.ToNFA())
		}
	}
	n.Final = d.Final.ToNFA()
	n.Final.GrowAlphabet(d.NumStates)
	return n
}

// Complete returns an equivalent total DHA: a sink state is added, every
// horizontal DFA is made total over the (extended) state set with undefined
// results mapped to the sink, and every symbol of the Names interner gets a
// horizontal structure. The completed automaton assigns a state to every
// node of every hedge over the interned alphabet (as Theorem 3 requires).
func (d *DHA) Complete() *DHA {
	numQ := d.NumStates + 1
	sink := d.NumStates
	c := &DHA{
		Names:     d.Names,
		NumStates: numQ,
		Iota:      make([]int, d.Names.Vars.Len()),
		Horiz:     make([]*Horiz, d.Names.Syms.Len()),
	}
	for v := range c.Iota {
		c.Iota[v] = sink
		if v < len(d.Iota) && d.Iota[v] != alphabet.None {
			c.Iota[v] = d.Iota[v]
		}
	}
	for sym := range c.Horiz {
		var hz *Horiz
		if sym < len(d.Horiz) {
			hz = d.Horiz[sym]
		}
		if hz == nil {
			// Everything maps to the sink.
			dfa := sfa.NewDFA(numQ)
			s := dfa.AddState(true)
			dfa.Start = s
			for q := 0; q < numQ; q++ {
				dfa.SetTrans(s, q, s)
			}
			c.Horiz[sym] = &Horiz{DFA: dfa, Out: []int{sink}}
			continue
		}
		dfa := hz.DFA.Clone()
		dfa.NumSymbols = numQ
		dfa = dfa.Complete()
		out := make([]int, dfa.NumStates)
		for hs := range out {
			out[hs] = sink
			if hs < len(hz.Out) && hz.Out[hs] != alphabet.None {
				out[hs] = hz.Out[hs]
			}
		}
		c.Horiz[sym] = &Horiz{DFA: dfa, Out: out}
	}
	f := d.Final.Clone()
	f.NumSymbols = numQ
	c.Final = f.Complete()
	return c
}

// Complement returns a complete DHA accepting exactly the hedges over the
// interned alphabet that d rejects.
func (d *DHA) Complement() *DHA {
	c := d.Complete()
	c.Final = c.Final.Complement()
	return c
}

// IsEmpty reports whether the DHA accepts no hedge.
func (d *DHA) IsEmpty() bool {
	_, ok := d.SomeHedge()
	return !ok
}

// SomeHedge returns a hedge in the language and true, or nil and false when
// the language is empty. The returned hedge uses variable leaves for states
// produced by ι and is a minimal-ish witness.
func (d *DHA) SomeHedge() (hedge.Hedge, bool) {
	witness := make([]*hedge.Node, d.NumStates) // state → witness tree
	for v, q := range d.Iota {
		if q != alphabet.None && witness[q] == nil {
			witness[q] = hedge.NewVar(d.Names.Vars.Name(v))
		}
	}
	changed := true
	for changed {
		changed = false
		for sym, hz := range d.Horiz {
			if hz == nil {
				continue
			}
			// Restrict the horizontal DFA to inhabited state symbols and
			// look for reachable horizontal states with fresh outputs.
			for hs, q := range hz.Out {
				if q == alphabet.None || witness[q] != nil {
					continue
				}
				word, ok := someWordOver(hz.DFA, hs, witness)
				if !ok {
					continue
				}
				children := make(hedge.Hedge, len(word))
				for i, cq := range word {
					children[i] = witness[cq].Clone()
				}
				witness[q] = hedge.NewElem(d.Names.Syms.Name(sym), children...)
				changed = true
			}
		}
	}
	// Find an accepted top-level sequence over inhabited states.
	restricted := d.Final.Clone()
	for s := 0; s < restricted.NumStates; s++ {
		for symQ := range restricted.Trans[s] {
			if symQ < len(witness) && witness[symQ] == nil {
				delete(restricted.Trans[s], symQ)
			}
		}
	}
	top, ok := restricted.SomeWord()
	if !ok {
		return nil, false
	}
	out := make(hedge.Hedge, len(top))
	for i, q := range top {
		out[i] = witness[q].Clone()
	}
	return out, true
}

// someWordOver finds a word over inhabited symbols (witness[q] != nil)
// driving dfa from its start to the target state.
func someWordOver(dfa *sfa.DFA, target int, witness []*hedge.Node) ([]int, bool) {
	restricted := dfa.Clone()
	for s := 0; s < restricted.NumStates; s++ {
		for symQ := range restricted.Trans[s] {
			if symQ >= len(witness) || witness[symQ] == nil {
				delete(restricted.Trans[s], symQ)
			}
		}
		restricted.Accept[s] = s == target
	}
	return restricted.SomeWord()
}

// Equivalent reports whether two DHAs over the same Names accept the same
// language.
func Equivalent(a, b *DHA) (bool, error) {
	diff1, err := ProductDHA(a, b, func(x, y bool) bool { return x && !y })
	if err != nil {
		return false, err
	}
	if !diff1.IsEmpty() {
		return false, nil
	}
	diff2, err := ProductDHA(b, a, func(x, y bool) bool { return x && !y })
	if err != nil {
		return false, err
	}
	return diff2.IsEmpty(), nil
}

// ProductDHA builds the product of two complete(d) DHAs over the same
// Names. The product assigns pair states; acceptance of a top sequence is
// acc(a accepts, b accepts). The returned automaton is complete. The second
// result maps product states back to (a-state, b-state) pairs.
func ProductDHA(a, b *DHA, acc func(x, y bool) bool) (*DHA, error) {
	if a.Names != b.Names {
		return nil, fmt.Errorf("ha: product of automata over different Names")
	}
	ac, bc := a.Complete(), b.Complete()
	na, nb := ac.NumStates, bc.NumStates
	pairID := func(x, y int) int { return x*nb + y }
	p := &DHA{
		Names:     a.Names,
		NumStates: na * nb,
		Iota:      make([]int, len(ac.Iota)),
		Horiz:     make([]*Horiz, len(ac.Horiz)),
	}
	for v := range p.Iota {
		p.Iota[v] = pairID(ac.Iota[v], bc.Iota[v])
	}
	for sym := range p.Horiz {
		ha, hb := ac.Horiz[sym], bc.Horiz[sym]
		hDFA := sfa.NewDFA(p.NumStates)
		nhb := hb.DFA.NumStates
		hpair := func(x, y int) int { return x*nhb + y }
		out := make([]int, ha.DFA.NumStates*nhb)
		for x := 0; x < ha.DFA.NumStates; x++ {
			for y := 0; y < nhb; y++ {
				hDFA.AddState(false)
				out[hpair(x, y)] = pairID(ha.Out[x], hb.Out[y])
			}
		}
		hDFA.Start = hpair(ha.DFA.Start, hb.DFA.Start)
		for x := 0; x < ha.DFA.NumStates; x++ {
			for y := 0; y < nhb; y++ {
				for qa := 0; qa < na; qa++ {
					for qb := 0; qb < nb; qb++ {
						hDFA.SetTrans(hpair(x, y), pairID(qa, qb),
							hpair(ha.DFA.Step(x, qa), hb.DFA.Step(y, qb)))
					}
				}
			}
		}
		p.Horiz[sym] = &Horiz{DFA: hDFA, Out: out}
	}
	// Final: product of the two final DFAs over pair symbols.
	fa, fb := ac.Final, bc.Final
	fDFA := sfa.NewDFA(p.NumStates)
	nfb := fb.NumStates
	fpair := func(x, y int) int { return x*nfb + y }
	for x := 0; x < fa.NumStates; x++ {
		for y := 0; y < nfb; y++ {
			fDFA.AddState(acc(fa.Accept[x], fb.Accept[y]))
		}
	}
	fDFA.Start = fpair(fa.Start, fb.Start)
	for x := 0; x < fa.NumStates; x++ {
		for y := 0; y < nfb; y++ {
			for qa := 0; qa < na; qa++ {
				for qb := 0; qb < nb; qb++ {
					fDFA.SetTrans(fpair(x, y), pairID(qa, qb),
						fpair(fa.Step(x, qa), fb.Step(y, qb)))
				}
			}
		}
	}
	p.Final = fDFA
	return p, nil
}

// Intersect returns a DHA for L(a) ∩ L(b).
func Intersect(a, b *DHA) (*DHA, error) {
	return ProductDHA(a, b, func(x, y bool) bool { return x && y })
}

// Union returns a DHA for L(a) ∪ L(b).
func Union(a, b *DHA) (*DHA, error) {
	return ProductDHA(a, b, func(x, y bool) bool { return x || y })
}
