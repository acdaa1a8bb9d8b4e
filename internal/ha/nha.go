package ha

import (
	"sort"

	"xpe/internal/alphabet"
	"xpe/internal/hedge"
	"xpe/internal/sfa"
)

// Rule is one transition family of a non-deterministic hedge automaton:
// α⁻¹(a, q) ⊇ L(Lang), i.e. reading symbol Sym over a child-state sequence
// in Lang may yield state Result (Definition 6).
type Rule struct {
	Sym    int      // symbol id in Names.Syms
	Result int      // resulting state
	Lang   *sfa.NFA // language over state ids
}

// NHA is a non-deterministic hedge automaton (Definition 6).
type NHA struct {
	Names     *Names
	NumStates int
	Iota      [][]int  // variable id → set of states
	Rules     []Rule   // transition families
	Final     *sfa.NFA // NFA over Q accepting the final state sequences
}

// NewNHA returns an empty NHA over the given names, with an empty final
// set.
func NewNHA(names *Names) *NHA {
	return &NHA{Names: names, Final: sfa.EmptyLang(0)}
}

// AddState adds a fresh state and returns its id.
func (n *NHA) AddState() int {
	n.NumStates++
	return n.NumStates - 1
}

// AddRule registers a transition family.
func (n *NHA) AddRule(sym, result int, lang *sfa.NFA) {
	lang.GrowAlphabet(n.NumStates)
	n.Rules = append(n.Rules, Rule{Sym: sym, Result: result, Lang: lang})
}

// AddIota registers q ∈ ι(v).
func (n *NHA) AddIota(v, q int) {
	for len(n.Iota) <= v {
		n.Iota = append(n.Iota, nil)
	}
	n.Iota[v] = append(n.Iota[v], q)
}

// NRun records the set of reachable states per node — the deterministic
// simulation of the set of computations M‖u (Definition 7).
type NRun struct {
	Sets     map[*hedge.Node][]int
	Top      [][]int // per top-level node, the set of reachable states
	Accepted bool
}

// Exec computes the reachable-state sets of every node and acceptance
// (Definition 8): the hedge is accepted iff some choice of per-node states
// forms a computation whose ceil is in F.
func (n *NHA) Exec(h hedge.Hedge) *NRun {
	r := &NRun{Sets: make(map[*hedge.Node][]int, h.Size())}
	r.Top = n.execHedge(h, r)
	r.Accepted = n.acceptsSets(n.Final, r.Top)
	return r
}

// acceptsSets reports whether some word w with w[i] ∈ sets[i] is accepted
// by the NFA (a subset simulation over symbol sets).
func (n *NHA) acceptsSets(nfa *sfa.NFA, sets [][]int) bool {
	cur := nfa.EpsClosure(nfa.Start)
	for _, set := range sets {
		next := map[int]bool{}
		for _, s := range cur {
			for _, sym := range set {
				for _, t := range nfa.Trans[s][sym] {
					next[t] = true
				}
			}
		}
		if len(next) == 0 {
			return false
		}
		lst := make([]int, 0, len(next))
		for s := range next {
			lst = append(lst, s)
		}
		cur = nfa.EpsClosure(lst)
	}
	for _, s := range cur {
		if nfa.Accept[s] {
			return true
		}
	}
	return false
}

func (n *NHA) execHedge(h hedge.Hedge, r *NRun) [][]int {
	sets := make([][]int, len(h))
	for i, node := range h {
		sets[i] = n.execNode(node, r)
	}
	return sets
}

func (n *NHA) execNode(node *hedge.Node, r *NRun) []int {
	var set []int
	switch node.Kind {
	case hedge.Var:
		if v := n.Names.Vars.Lookup(node.Name); v != alphabet.None && v < len(n.Iota) {
			set = append([]int(nil), n.Iota[v]...)
		}
	case hedge.Subst:
		if v := n.Names.Vars.Lookup(SubstVarName(node.Name)); v != alphabet.None && v < len(n.Iota) {
			set = append([]int(nil), n.Iota[v]...)
		}
	case hedge.Elem:
		children := n.execHedge(node.Children, r)
		sym := n.Names.Syms.Lookup(node.Name)
		if sym != alphabet.None {
			resultSet := map[int]bool{}
			for _, rule := range n.Rules {
				if rule.Sym != sym || resultSet[rule.Result] {
					continue
				}
				if n.acceptsSets(rule.Lang, children) {
					resultSet[rule.Result] = true
				}
			}
			set = make([]int, 0, len(resultSet))
			for q := range resultSet {
				set = append(set, q)
			}
			sort.Ints(set)
		}
	}
	r.Sets[node] = set
	return set
}

// Accepts reports whether the NHA accepts the hedge.
func (n *NHA) Accepts(h hedge.Hedge) bool { return n.Exec(h).Accepted }

// IsEmpty reports whether the NHA accepts no hedge, by the inhabited-state
// fixpoint: a state is inhabited when some hedge can reach it.
func (n *NHA) IsEmpty() bool {
	inhabited := n.InhabitedStates()
	restricted := restrictNFA(n.Final, inhabited)
	return restricted.IsEmpty()
}

// InhabitedStates returns, per state, whether some hedge reaches it.
func (n *NHA) InhabitedStates() []bool {
	inhabited := make([]bool, n.NumStates)
	for _, qs := range n.Iota {
		for _, q := range qs {
			inhabited[q] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, rule := range n.Rules {
			if inhabited[rule.Result] {
				continue
			}
			if !restrictNFA(rule.Lang, inhabited).IsEmpty() {
				inhabited[rule.Result] = true
				changed = true
			}
		}
	}
	return inhabited
}

// restrictNFA removes transitions on symbols q with !keep[q].
func restrictNFA(nfa *sfa.NFA, keep []bool) *sfa.NFA {
	return nfa.MapSymbols(nfa.NumSymbols, func(sym int) []int {
		if sym < len(keep) && keep[sym] {
			return []int{sym}
		}
		return nil
	})
}

// Determinization — Theorem 1.

// Det is the result of determinizing an NHA: a complete DHA whose states
// are the reachable subsets of the NHA's states, plus the mapping from DHA
// states to those subsets.
type Det struct {
	DHA     *DHA
	Subsets *alphabet.TupleInterner // DHA state → sorted NHA state subset
}

// SubsetOf returns the NHA state subset represented by DHA state q.
func (d *Det) SubsetOf(q int) []int { return d.Subsets.Tuple(q) }

// Determinize applies the subset construction of Theorem 1, exploring only
// reachable subsets. The resulting DHA is complete over the interned
// alphabet: every hedge receives a computation (the empty subset acts as
// the sink).
func (n *NHA) Determinize() *Det {
	subsets := alphabet.NewTupleInterner()
	subsets.Intern(nil)
	bySym := n.ruleNFAs()

	// Seed DHA states with ι images (and the empty subset).
	vars := n.Names.Vars.Len()
	iota := make([]int, vars)
	for v := 0; v < vars; v++ {
		var qs []int
		if v < len(n.Iota) {
			qs = normalizeSet(n.Iota[v])
		}
		iota[v] = subsets.Intern(qs)
	}

	// Iterate to a fixpoint: subset alphabet may grow while horizontal
	// automata are explored, so rebuild until stable.
	for {
		before := subsets.Len()
		for _, r := range bySym {
			if r != nil {
				exploreHorizontal(r.nfa, r.results, subsets)
			}
		}
		if subsets.Len() == before {
			break
		}
	}

	numQ := subsets.Len()
	d := &DHA{
		Names:     n.Names,
		NumStates: numQ,
		Iota:      iota,
		Horiz:     make([]*Horiz, len(bySym)),
	}
	for sym, r := range bySym {
		if r == nil {
			// No rules: every child sequence yields the empty subset.
			dfa := sfa.NewDFA(numQ)
			s := dfa.AddState(true)
			dfa.Start = s
			for q := 0; q < numQ; q++ {
				dfa.SetTrans(s, q, s)
			}
			d.Horiz[sym] = &Horiz{DFA: dfa, Out: []int{subsets.Intern(nil)}}
			continue
		}
		d.Horiz[sym] = buildHorizontal(r.nfa, r.results, subsets)
	}
	d.Final = determinizeOverSubsets(n.Final, subsets)
	return &Det{DHA: d, Subsets: subsets}
}

// ruleNFA is the horizontal NFA of one symbol: the languages of all its
// rules merged into one NFA over Q, each accepting state mapped to the
// result of its rule.
type ruleNFA struct {
	nfa     *sfa.NFA
	results map[int]int // accepting NFA state → NHA result state
}

// ruleNFAs merges the rules of every symbol, indexed by symbol id; a
// symbol without rules has a nil entry. Determinize and LazyDeterminize
// both determinize these.
func (n *NHA) ruleNFAs() []*ruleNFA {
	bySym := make([]*ruleNFA, n.Names.Syms.Len())
	for _, rule := range n.Rules {
		if rule.Sym < 0 || rule.Sym >= len(bySym) {
			continue
		}
		r := bySym[rule.Sym]
		if r == nil {
			r = &ruleNFA{nfa: sfa.NewNFA(n.NumStates), results: map[int]int{}}
			bySym[rule.Sym] = r
		}
		offset := r.nfa.NumStates
		for i := 0; i < rule.Lang.NumStates; i++ {
			r.nfa.AddState(false)
		}
		for s := 0; s < rule.Lang.NumStates; s++ {
			for sym, ts := range rule.Lang.Trans[s] {
				for _, t := range ts {
					r.nfa.AddTrans(offset+s, sym, offset+t)
				}
			}
			for _, t := range rule.Lang.Eps[s] {
				r.nfa.AddEps(offset+s, offset+t)
			}
			if rule.Lang.Accept[s] {
				r.results[offset+s] = rule.Result
			}
		}
		for _, s := range rule.Lang.Start {
			r.nfa.MarkStart(offset + s)
		}
	}
	return bySym
}

func normalizeSet(qs []int) []int {
	if len(qs) == 0 {
		return nil
	}
	cp := append([]int(nil), qs...)
	sort.Ints(cp)
	out := cp[:1]
	for _, q := range cp[1:] {
		if q != out[len(out)-1] {
			out = append(out, q)
		}
	}
	return out
}

// resultSubset extracts the NHA result subset of an NFA-state set.
func resultSubset(set []int, results map[int]int) []int {
	var out []int
	for _, s := range set {
		if q, ok := results[s]; ok {
			out = append(out, q)
		}
	}
	return normalizeSet(out)
}

// exploreHorizontal discovers every result subset reachable with the
// current subset alphabet, interning new subsets as it goes.
func exploreHorizontal(nfa *sfa.NFA, results map[int]int, subsets *alphabet.TupleInterner) {
	start := nfa.EpsClosure(nfa.Start)
	seen := alphabet.NewTupleInterner() // the NFA-state sets queued so far
	seen.Intern(start)
	subsets.Intern(resultSubset(start, results))
	for i := 0; i < seen.Len(); i++ {
		cur := seen.Tuple(i)
		// NOTE: subsets.Len() may grow during this loop; iterating by
		// index covers newly added subsets in later queue entries because
		// the outer fixpoint re-runs exploreHorizontal until stable.
		for id := 0; id < subsets.Len(); id++ {
			next := nfa.StepSet(cur, subsets.Tuple(id)...)
			subsets.Intern(resultSubset(next, results))
			seen.Intern(next)
		}
	}
}

// overSubsets is the eager subset construction of an NFA over the subset
// alphabet: a DFA state is an NFA-state set, and its successor on subset
// id q is the ε-closed move on every NHA state of q. newState is called
// with each new state's set, in id order, and says whether it accepts.
func overSubsets(nfa *sfa.NFA, subsets *alphabet.TupleInterner, newState func(set []int) bool) *sfa.DFA {
	numQ := subsets.Len()
	dfa := sfa.NewDFA(numQ)
	sets := alphabet.NewTupleInterner() // DFA state → NFA-state set
	get := func(set []int) int {
		id := sets.Intern(set)
		if id == dfa.NumStates {
			dfa.AddState(newState(set))
		}
		return id
	}
	dfa.Start = get(nfa.EpsClosure(nfa.Start))
	for from := 0; from < sets.Len(); from++ {
		cur := sets.Tuple(from)
		for id := 0; id < numQ; id++ {
			dfa.SetTrans(from, id, get(nfa.StepSet(cur, subsets.Tuple(id)...)))
		}
	}
	return dfa
}

// buildHorizontal constructs the final horizontal DFA over the (now stable)
// subset alphabet.
func buildHorizontal(nfa *sfa.NFA, results map[int]int, subsets *alphabet.TupleInterner) *Horiz {
	var out []int
	dfa := overSubsets(nfa, subsets, func(set []int) bool {
		out = append(out, subsets.Lookup(resultSubset(set, results)))
		return false
	})
	return &Horiz{DFA: dfa, Out: out}
}

// determinizeOverSubsets builds a DFA over the subset alphabet accepting a
// subset-symbol word S₁…S_k iff some q₁…q_k with qᵢ ∈ Sᵢ is accepted by
// the NFA.
func determinizeOverSubsets(nfa *sfa.NFA, subsets *alphabet.TupleInterner) *sfa.DFA {
	return overSubsets(nfa, subsets, func(set []int) bool {
		for _, s := range set {
			if nfa.Accept[s] {
				return true
			}
		}
		return false
	})
}
