package sfa

import "xpe/internal/alphabet"

// Determinize converts the NFA to a DFA by subset construction, exploring
// only reachable subsets. Transitions of the result are partial: the empty
// subset is represented by the implicit Dead state. LazyDFA is the same
// construction on demand; this eager one is its reference.
func (n *NFA) Determinize() *DFA {
	d := NewDFA(n.NumSymbols)
	start := n.EpsClosure(n.Start)
	if len(start) == 0 {
		// No start states: empty language, keep Start == Dead.
		return d
	}
	sets := alphabet.NewTupleInterner() // DFA state → NFA-state set
	get := func(set []int) int {
		id := sets.Intern(set)
		if id == d.NumStates {
			d.AddState(n.anyAccept(set))
		}
		return id
	}
	d.Start = get(start)
	for from := 0; from < sets.Len(); from++ {
		set := sets.Tuple(from)
		// Collect the symbols on which any member moves.
		syms := map[int]bool{}
		for _, s := range set {
			for sym := range n.Trans[s] {
				syms[sym] = true
			}
		}
		for sym := range syms {
			next := n.StepSet(set, sym)
			if len(next) == 0 {
				continue
			}
			d.SetTrans(from, sym, get(next))
		}
	}
	return d
}

// MinimalDFA determinizes and minimizes in one call.
func (n *NFA) MinimalDFA() *DFA { return n.Determinize().Minimize() }

// IntersectNFA returns an NFA for L(a) ∩ L(b) via the product of their
// determinizations.
func IntersectNFA(a, b *NFA) *NFA {
	return IntersectDFA(a.Determinize(), b.Determinize()).ToNFA()
}

// DifferenceNFA returns an NFA for L(a) \ L(b).
func DifferenceNFA(a, b *NFA) *NFA {
	return DifferenceDFA(a.Determinize(), b.Determinize()).ToNFA()
}

// EquivalentNFA reports whether two NFAs accept the same language.
func EquivalentNFA(a, b *NFA) bool {
	return EquivalentDFA(a.Determinize(), b.Determinize())
}

// SubsetOfNFA reports whether L(a) ⊆ L(b).
func SubsetOfNFA(a, b *NFA) bool {
	return DifferenceDFA(a.Determinize(), b.Determinize()).IsEmpty()
}
