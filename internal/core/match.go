package core

import (
	"fmt"
	"sort"

	"xpe/internal/alphabet"
	"xpe/internal/ha"
	"xpe/internal/metrics"
	"xpe/internal/sfa"
)

// MatchAutomaton is the match-identifying hedge automaton of Section 8: the
// Theorem 5 construction M↑e₂ intersected with an input schema and with the
// Theorem 3 marking automaton M↓e₁. Its element states are triples
// (q, s, a) — q a product state of (schema × M↓e₁ × side components), s a
// state of the mirror string automaton N simulated in reverse (Figure 3),
// a the node's label — and its leaf states are (q, s⊥, a⊥). It accepts
// exactly the schema's language, every accepted hedge has exactly one
// successful computation, and that computation assigns marked states
// precisely to the nodes located by the selection query.
//
// The construction is exponential in the worst case (Section 8); it exists
// for schema-level reasoning — per-document evaluation uses Algorithm 1.
type MatchAutomaton struct {
	Names *ha.Names
	NHA   *ha.NHA
	// Marked[state] reports whether the NHA state is marked (a node
	// assigned this state is located by the query).
	Marked []bool
	// States maps NHA state ids to their structure: [1, q, s, sym] for
	// element states, [0, q] for leaf states.
	States *alphabet.TupleInterner

	// Metrics, when non-nil, receives one flush of evaluation counters per
	// Run/MarkedNodes call (schema-level evaluation is off the streaming
	// hot path, so a simple exported field suffices).
	Metrics *metrics.Eval

	p       *ha.DHA                 // product of schema × M↓e₁ × sides
	tuples  *alphabet.TupleInterner // product state → component tuple
	markPos int                     // M↓e₁ tuple position (-1 = no e₁ condition)
	markE1  []bool                  // marked states of M↓e₁
}

type elemKey struct {
	pq  int
	s   *sfa.LazyState
	sym int
}

// BuildMatchAutomaton constructs the match-identifying automaton for query
// cq against the given input schema (a DHA over the same Names).
func BuildMatchAutomaton(schema *ha.DHA, cq *CompiledQuery) (*MatchAutomaton, error) {
	names := cq.Names
	if schema.Names != names {
		return nil, fmt.Errorf("core: schema and query must share Names")
	}
	m := &MatchAutomaton{Names: names, States: alphabet.NewTupleInterner(), markPos: -1}
	// The product construction below needs concrete DFAs; a lazily compiled
	// query materializes its eager structures here (once). Evaluation keeps
	// using the lazy path — the two never mix state ids.
	cq.materializeEager()
	phr := cq.phr

	// Product components: schema, M↓e₁ (if any), side automata.
	comps := []*ha.DHA{schema}
	if cq.sub != nil {
		markedDHA, marked := ha.MarkChildren(cq.sub.dha)
		m.markPos = 1
		m.markE1 = marked
		comps = append(comps, markedDHA)
	}
	sidePos := make([]int, len(phr.comps))
	for i, side := range phr.comps {
		sidePos[i] = len(comps)
		comps = append(comps, side.dha)
	}
	p, tuples, err := ha.NaryProduct(comps, func(acc []bool) bool { return acc[0] })
	if err != nil {
		return nil, err
	}
	m.p, m.tuples = p, tuples

	inhabited, labeled := m.inhabitation()
	nStates := closeMirror(phr)

	// Enumerate leaf and element states of the match automaton.
	nha := ha.NewNHA(names)
	leafState := map[int]int{}
	for v := 0; v < names.Vars.Len(); v++ {
		pq := p.Iota[v]
		id, ok := leafState[pq]
		if !ok {
			id = nha.AddState()
			m.States.Intern([]int{0, pq})
			leafState[pq] = id
		}
		nha.AddIota(v, id)
	}
	elemState := map[elemKey]int{}
	var elemKeys []elemKey
	for _, la := range labeled {
		for _, s := range nStates {
			k := elemKey{la.pq, s, la.sym}
			id := nha.AddState()
			m.States.Intern([]int{1, k.pq, int(k.s.ID), k.sym})
			elemState[k] = id
			elemKeys = append(elemKeys, k)
		}
	}
	m.Marked = make([]bool, nha.NumStates)
	for k, id := range elemState {
		m.Marked[id] = k.s.Accept && m.e1Bit(k.pq)
	}

	// Rule languages, cached per (symbol, parent N-state): the transition
	// structure of the horizontal NFA depends only on those; targets differ
	// in the accepting horizontal states.
	builder := &horizBuilder{
		m: m, phr: phr, sidePos: sidePos,
		leafState: leafState, elemState: elemState,
		numRStates: nha.NumStates,
	}
	type cacheKey struct {
		sym int
		s   *sfa.LazyState
	}
	cache := map[cacheKey]*horizNFA{}
	for _, k := range elemKeys {
		ck := cacheKey{k.sym, k.s}
		hn, ok := cache[ck]
		if !ok {
			hn = builder.build(p.Horiz[k.sym].DFA, k.s)
			cache[ck] = hn
		}
		lang := hn.langFor(func(h int) bool { return p.Horiz[k.sym].Out[h] == k.pq })
		nha.AddRule(k.sym, elemState[k], lang)
	}

	// Final set: the same construction over the schema-product final DFA
	// with the parent N-state s₀.
	fin := builder.build(p.Final, phr.mirror.Start)
	nha.Final = fin.langFor(func(f int) bool { return p.Final.Accepting(f) })
	m.NHA = nha
	_ = inhabited
	return m, nil
}

// e1Bit reports whether product state pq carries the M↓e₁ mark (true when
// the query has no subhedge condition).
func (m *MatchAutomaton) e1Bit(pq int) bool {
	if m.markPos < 0 {
		return true
	}
	return m.markE1[m.tuples.Tuple(pq)[m.markPos]]
}

// MarkedOf reports whether an NHA state is an element state marked as
// located, along with its label symbol.
func (m *MatchAutomaton) MarkedOf(state int) (sym int, marked bool) {
	t := m.States.Tuple(state)
	if t[0] != 1 {
		return alphabet.None, false
	}
	return t[3], m.Marked[state]
}

type labeledState struct{ pq, sym int }

// inhabitation computes which product states some hedge reaches and with
// which labels element states arise.
func (m *MatchAutomaton) inhabitation() ([]bool, []labeledState) {
	inhabited := make([]bool, m.p.NumStates)
	for _, q := range m.p.Iota {
		if q != alphabet.None {
			inhabited[q] = true
		}
	}
	seenLabeled := map[labeledState]bool{}
	var labeled []labeledState
	for changed := true; changed; {
		changed = false
		for sym, hz := range m.p.Horiz {
			if hz == nil {
				continue
			}
			reach := reachableOver(hz.DFA, inhabited)
			for hs, ok := range reach {
				if !ok {
					continue
				}
				q := hz.Out[hs]
				if q == alphabet.None {
					continue
				}
				ls := labeledState{q, sym}
				if !seenLabeled[ls] {
					seenLabeled[ls] = true
					labeled = append(labeled, ls)
				}
				if !inhabited[q] {
					inhabited[q] = true
					changed = true
				}
			}
		}
	}
	sort.Slice(labeled, func(i, j int) bool {
		if labeled[i].pq != labeled[j].pq {
			return labeled[i].pq < labeled[j].pq
		}
		return labeled[i].sym < labeled[j].sym
	})
	return inhabited, labeled
}

func reachableOver(dfa *sfa.DFA, allowed []bool) []bool {
	seen := make([]bool, dfa.NumStates)
	if dfa.Start == sfa.Dead {
		return seen
	}
	seen[dfa.Start] = true
	stack := []int{dfa.Start}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for q, to := range dfa.Trans[s] {
			if to == sfa.Dead || q >= len(allowed) || !allowed[q] || seen[to] {
				continue
			}
			seen[to] = true
			stack = append(stack, to)
		}
	}
	return seen
}

// closeMirror enumerates every mirror-automaton state reachable under any
// candidate set (over all labels and membership-bit combinations) and
// returns the states ordered by id. This materializes Theorem 4's string
// automaton N over its full finite alphabet.
func closeMirror(phr *CompiledPHR) []*sfa.LazyState {
	c := len(phr.comps)
	// Distinct candidate sets.
	candSet := map[uint64]bool{0: true}
	for _, b := range phr.bases {
		for lb := uint64(0); lb < 1<<uint(c); lb++ {
			for rb := uint64(0); rb < 1<<uint(c); rb++ {
				candSet[phr.candidates(b.sym, lb, rb)] = true
			}
		}
	}
	start := phr.mirror.Start
	seen := map[*sfa.LazyState]bool{start: true}
	out := []*sfa.LazyState{start}
	for qi := 0; qi < len(out); qi++ {
		for cands := range candSet {
			t := out[qi].Step(cands)
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// horizBuilder constructs the horizontal NFAs of the match automaton: the
// language of child-state sequences below a node with a given label and
// N-state. An NFA state is (h, f₁..f_c, r₁..r_c): h the sequence DFA
// state, fᵢ the forward final-DFA state of side component i (elder-sibling
// membership), rᵢ a guessed reversed-final-DFA state (younger-sibling
// membership, verified by the backward-step relation — the horizontal
// incarnation of the Figure 3 reverse simulation).
type horizBuilder struct {
	m          *MatchAutomaton
	phr        *CompiledPHR
	sidePos    []int
	leafState  map[int]int
	elemState  map[elemKey]int
	numRStates int
}

// horizNFA is the shared transition structure; langFor instantiates
// acceptance for a specific target.
type horizNFA struct {
	nfa    *sfa.NFA
	hOf    []int  // NFA state → sequence-DFA state
	rStart []bool // NFA state → whether every rᵢ is at its reversed start
}

// langFor returns a copy of the NFA accepting at states whose sequence-DFA
// component satisfies acceptH and whose guessed backward runs are complete.
func (hn *horizNFA) langFor(acceptH func(h int) bool) *sfa.NFA {
	out := hn.nfa.Clone()
	for s := range out.Accept {
		out.Accept[s] = hn.rStart[s] && acceptH(hn.hOf[s])
	}
	return out
}

// build explores the product of the sequence DFA, forward finals, and
// guessed backward finals over all match-automaton states.
func (b *horizBuilder) build(seqDFA *sfa.DFA, parentS *sfa.LazyState) *horizNFA {
	c := len(b.phr.comps)
	// Backward-step preimages: invBwd[i][to][sym] = sources r with
	// bwd.Step(r, sym) == to.
	invBwd := make([][]map[int][]int, c)
	for i, comp := range b.phr.comps {
		invBwd[i] = make([]map[int][]int, comp.bwd.NumStates)
		for to := range invBwd[i] {
			invBwd[i][to] = map[int][]int{}
		}
		for r := 0; r < comp.bwd.NumStates; r++ {
			for sym, to := range comp.bwd.Trans[r] {
				if to != sfa.Dead {
					invBwd[i][to][sym] = append(invBwd[i][to][sym], r)
				}
			}
		}
	}

	nfa := sfa.NewNFA(b.numRStates)
	states := alphabet.NewTupleInterner()
	hOfList := []int{}
	rStartList := []bool{}
	var queue [][]int
	get := func(tup []int) int {
		if id := states.Lookup(tup); id != -1 {
			return id
		}
		id := nfa.AddState(false)
		states.Intern(tup)
		hOfList = append(hOfList, tup[0])
		allStart := true
		for i := 0; i < c; i++ {
			if tup[1+c+i] != b.phr.comps[i].bwd.Start {
				allStart = false
				break
			}
		}
		rStartList = append(rStartList, allStart)
		queue = append(queue, append([]int(nil), tup...))
		return id
	}
	// Start states: forward components at their starts, every guessed
	// backward combination.
	startBase := make([]int, 1+2*c)
	startBase[0] = seqDFA.Start
	for i, comp := range b.phr.comps {
		startBase[1+i] = comp.fwd.Start
		_ = comp
	}
	var seedR func(idx int, tup []int)
	seedR = func(idx int, tup []int) {
		if idx == c {
			id := get(tup)
			nfa.MarkStart(id)
			return
		}
		for r := 0; r < b.phr.comps[idx].bwd.NumStates; r++ {
			tup[1+c+idx] = r
			seedR(idx+1, tup)
		}
	}
	seedR(0, append([]int(nil), startBase...))

	// Transitions: iterate work list × every match-automaton child symbol.
	for qi := 0; qi < len(queue); qi++ {
		tup := queue[qi]
		from := states.Lookup(tup)
		h := tup[0]
		// Left-membership bits of the current position.
		var leftBits uint64
		for i, comp := range b.phr.comps {
			if comp.fwd.Accepting(tup[1+i]) {
				leftBits |= 1 << uint(i)
			}
		}
		b.eachChildSymbol(func(rState, pq int, childS *sfa.LazyState, childSym int) {
			// Project component states from the product tuple.
			ptup := b.m.tuples.Tuple(pq)
			h2 := seqDFA.Step(h, pq)
			if h2 == sfa.Dead {
				return
			}
			// Enumerate guessed predecessor backward states per component.
			b.eachRChoice(invBwd, tup, ptup, 0, make([]int, c), func(rNext []int) {
				if childSym != alphabet.None {
					// Element child: verify s' = μ(Γ', s).
					var rightBits uint64
					for i, comp := range b.phr.comps {
						if comp.bwd.Accepting(rNext[i]) {
							rightBits |= 1 << uint(i)
						}
					}
					cands := b.phr.candidates(int32(childSym), leftBits, rightBits)
					if parentS.Step(cands) != childS {
						return
					}
				}
				next := make([]int, 1+2*c)
				next[0] = h2
				for i, comp := range b.phr.comps {
					next[1+i] = comp.fwd.Step(tup[1+i], ptup[b.sidePos[i]])
					next[1+c+i] = rNext[i]
					_ = comp
				}
				nfa.AddTrans(from, rState, get(next))
			})
		})
	}
	return &horizNFA{nfa: nfa, hOf: hOfList, rStart: rStartList}
}

// eachChildSymbol enumerates every match-automaton state usable as a child:
// leaf states (childSym = None) and element states.
func (b *horizBuilder) eachChildSymbol(fn func(rState, pq int, childS *sfa.LazyState, childSym int)) {
	for pq, id := range b.leafState {
		fn(id, pq, nil, alphabet.None)
	}
	for k, id := range b.elemState {
		fn(id, k.pq, k.s, k.sym)
	}
}

// eachRChoice enumerates, per component, the backward states r' with
// bwd.Step(r', childState) = current r.
func (b *horizBuilder) eachRChoice(invBwd [][]map[int][]int, tup, ptup []int, idx int, acc []int, fn func([]int)) {
	c := len(b.phr.comps)
	if idx == c {
		fn(acc)
		return
	}
	cur := tup[1+c+idx]
	cs := ptup[b.sidePos[idx]]
	for _, r := range invBwd[idx][cur][cs] {
		acc[idx] = r
		b.eachRChoice(invBwd, tup, ptup, idx+1, acc, fn)
	}
}
