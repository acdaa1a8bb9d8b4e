package ha

import (
	"xpe/internal/alphabet"
	"xpe/internal/hedge"
	"xpe/internal/sfa"
)

// Lazy determinization — the pay-as-you-go reading of Theorem 1.
//
// Determinize builds every reachable subset up front, which is exponential
// in the worst case (the C1 caveat). LazyDet defers the subset construction:
// DHA states (NHA-state subsets), horizontal-DFA states, and final-DFA
// states are materialized only when an input actually demands them, so the
// states built are bounded by the diversity of the input, not by 2^|Q|.
// Identity is preserved across calls — a subset seen twice gets the same id
// — so lazily computed states are exactly the reachable fragment of the
// eager construction and membership agrees with Determinize on every hedge
// (the FuzzLazyVsEagerDeterminize target pins this).
//
// Every machine is an sfa.LazyDFA, the lazy subset construction the
// mirror automaton in internal/core uses too: warm steps take no lock, and
// misses take the LazyDet's one lock, so a LazyDet may back a compiled
// query shared by concurrent evaluators.

// DefaultLazyTransitionBudget bounds the cached transitions of a LazyDet
// when LazyOptions.TransitionBudget is zero.
const DefaultLazyTransitionBudget = 1 << 16

// LazyOptions configures LazyDeterminize.
type LazyOptions struct {
	// TransitionBudget caps the number of cached DFA transitions across the
	// lazy horizontal and final structures. When the cache would exceed the
	// budget it is flushed: every machine's edges are dropped, but states
	// and their subsets are kept, so states held by an in-flight evaluation
	// stay valid and future steps recompute transitions on demand. Zero
	// means DefaultLazyTransitionBudget; negative disables the bound.
	TransitionBudget int
}

// LazyStats is a snapshot of a LazyDet's counters.
type LazyStats struct {
	Subsets     int64 // distinct NHA-state subsets interned (= DHA states built)
	StatesBuilt int64 // horizontal + final DFA states materialized
	Hits        int64 // cached-transition hits
	Misses      int64 // transitions computed on demand
	Evictions   int64 // cache flushes forced by the transition budget
}

// Add returns the field-wise sum of two snapshots.
func (s LazyStats) Add(o LazyStats) LazyStats {
	return LazyStats{
		Subsets:     s.Subsets + o.Subsets,
		StatesBuilt: s.StatesBuilt + o.StatesBuilt,
		Hits:        s.Hits + o.Hits,
		Misses:      s.Misses + o.Misses,
		Evictions:   s.Evictions + o.Evictions,
	}
}

// Sub returns the field-wise difference s - o.
func (s LazyStats) Sub(o LazyStats) LazyStats {
	return LazyStats{
		Subsets:     s.Subsets - o.Subsets,
		StatesBuilt: s.StatesBuilt - o.StatesBuilt,
		Hits:        s.Hits - o.Hits,
		Misses:      s.Misses - o.Misses,
		Evictions:   s.Evictions - o.Evictions,
	}
}

// LazyDet is an on-demand determinization of an NHA behind the stepping
// surface the evaluator uses on an eager Det: DHA states are subset ids,
// and each horizontal and final-membership run is a walk over the states
// of one sfa.LazyDFA. A horizontal state's Payload is its result subset id.
type LazyDet struct {
	Names *Names
	// LazyGroup is the one miss lock, transition budget and counter set of
	// every machine below: their misses intern into the shared subset
	// table. The FlushDelta cursor is also kept under its lock.
	*sfa.LazyGroup

	subsets *alphabet.TupleInterner // subset id → NHA-state subset
	sink    int
	iota    []int
	bySym   []*sfa.LazyDFA // symbol id → horizontal machine (nil = no rules)
	fwd     *sfa.LazyDFA   // final membership over subset ids
	bwd     *sfa.LazyDFA   // reversed final membership
	flushed LazyStats      // cursor for FlushDelta
}

// LazyDeterminize prepares the on-demand subset construction. It does no
// determinization work beyond merging the per-symbol rule NFAs (linear in
// the NHA size) and building the start states; other states appear as
// inputs demand them.
func (n *NHA) LazyDeterminize(opts LazyOptions) *LazyDet {
	budget := opts.TransitionBudget
	if budget == 0 {
		budget = DefaultLazyTransitionBudget
	}
	l := &LazyDet{Names: n.Names, LazyGroup: sfa.NewLazyGroup(budget), subsets: alphabet.NewTupleInterner()}
	l.sink = l.subsets.Intern(nil)
	// ι images and the start states of every machine are built eagerly:
	// they are O(|NHA|) and every run needs them.
	vars := n.Names.Vars.Len()
	l.iota = make([]int, vars)
	for v := 0; v < vars; v++ {
		var qs []int
		if v < len(n.Iota) {
			qs = normalizeSet(n.Iota[v])
		}
		l.iota[v] = l.subsets.Intern(qs)
	}
	subset := func(q uint64) []int { return l.subsets.Tuple(int(q)) }
	rules := n.ruleNFAs()
	l.bySym = make([]*sfa.LazyDFA, len(rules))
	for sym, r := range rules {
		if r != nil {
			l.bySym[sym] = sfa.NewLazyDFA(r.nfa, l.LazyGroup, subset, func(set []int) int32 {
				return int32(l.subsets.Intern(resultSubset(set, r.results)))
			})
		}
	}
	l.fwd = sfa.NewLazyDFA(n.Final, l.LazyGroup, subset, nil)
	l.bwd = sfa.NewLazyDFA(n.Final.Reverse(), l.LazyGroup, subset, nil)
	return l
}

// Sink returns the subset id of the empty subset — the state the complete
// automaton assigns to nodes outside the interned alphabet.
func (l *LazyDet) Sink() int { return l.sink }

// IotaState returns ι(v) as a subset id (the sink when v is undefined).
func (l *LazyDet) IotaState(v int) int {
	if v >= 0 && v < len(l.iota) {
		return l.iota[v]
	}
	return l.sink
}

// HorizStart returns the start of the horizontal run of sym, or nil when
// the symbol is outside the construction (callers treat nil as "result is
// the sink", matching the eager automaton completed over the alphabet).
// The run steps on child subset ids, and the result subset id is the
// Payload of its last state (the sink for the empty set's state).
func (l *LazyDet) HorizStart(sym int) *sfa.LazyState {
	if sym < 0 || sym >= len(l.bySym) || l.bySym[sym] == nil {
		return nil
	}
	return l.bySym[sym].Start
}

// FwdStart returns the start of the forward final-membership run, which
// steps on subset ids: a state accepts iff the subset word read so far
// has a member word in the final language.
func (l *LazyDet) FwdStart() *sfa.LazyState { return l.fwd.Start }

// BwdStart returns the start of the reversed final-membership run.
func (l *LazyDet) BwdStart() *sfa.LazyState { return l.bwd.Start }

// Stats returns the cumulative counters.
func (l *LazyDet) Stats() LazyStats {
	l.Lock()
	defer l.Unlock()
	return l.stats()
}

// stats reads the counters; the caller holds the group lock. Hits are the
// reported lookups less the misses, so a run's hits show once it has
// reported its lookups.
func (l *LazyDet) stats() LazyStats {
	return LazyStats{
		Subsets:     int64(l.subsets.Len() - 1), // the sink is not built on demand
		StatesBuilt: l.StatesBuilt,
		Hits:        l.Lookups.Load() - l.Misses,
		Misses:      l.Misses,
		Evictions:   l.Evictions,
	}
}

// FlushDelta returns the counters accumulated since the previous FlushDelta
// call and advances the cursor. Metrics sinks use this to fold lazy work
// into per-evaluation flushes without double counting. A concurrent run
// that has missed but not yet reported its lookups can leave the hits
// behind the misses; the delta then reports no hits and carries the
// shortfall to a later flush.
func (l *LazyDet) FlushDelta() LazyStats {
	l.Lock()
	defer l.Unlock()
	cur := l.stats()
	d := cur.Sub(l.flushed)
	if d.Hits < 0 {
		cur.Hits, d.Hits = l.flushed.Hits, 0
	}
	l.flushed = cur
	return d
}

// Accepts reports whether the lazily determinized automaton accepts the
// hedge — the Definition 5 run, materializing states on demand. Agreement
// with NHA.Accepts and with the eager Determinize is the differential-fuzz
// property.
func (l *LazyDet) Accepts(h hedge.Hedge) bool {
	var steps int64
	top := l.execHedge(h, &steps)
	st := l.FwdStart()
	for _, q := range top {
		st = st.Step(uint64(q))
	}
	l.Lookups.Add(steps + int64(len(top)))
	return st.Accept
}

func (l *LazyDet) execHedge(h hedge.Hedge, steps *int64) []int {
	states := make([]int, len(h))
	for i, n := range h {
		states[i] = l.execNode(n, steps)
	}
	return states
}

func (l *LazyDet) execNode(n *hedge.Node, steps *int64) int {
	switch n.Kind {
	case hedge.Var:
		if v := l.Names.Vars.Lookup(n.Name); v != alphabet.None {
			return l.IotaState(v)
		}
		return l.sink
	case hedge.Elem:
		children := l.execHedge(n.Children, steps)
		st := l.HorizStart(l.Names.Syms.Lookup(n.Name))
		if st == nil {
			return l.sink
		}
		for _, q := range children {
			st = st.Step(uint64(q))
		}
		*steps += int64(len(children))
		return int(st.Payload)
	default:
		if v := l.Names.Vars.Lookup(SubstVarName(n.Name)); v != alphabet.None {
			return l.IotaState(v)
		}
		return l.sink
	}
}
