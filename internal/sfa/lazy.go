package sfa

import (
	"sync"
	"sync/atomic"

	"xpe/internal/alphabet"
)

// LazyDFA is the on-demand subset construction of an NFA, and the engine's
// one lazy determinizer: Theorem 4's mirror automaton N and every machine
// of a lazily determinized hedge automaton (ha.LazyDet) are LazyDFAs. A
// state is built the first time a step reaches its NFA-state set and keeps
// its id for the life of the DFA: ids are given in creation order, and the
// start state is 0.
//
// A letter is a uint64 that names a set of NFA symbols; the owner fixes at
// construction how a letter expands (the mirror reads candidate bits as
// base indices, LazyDet reads a subset id as its NHA states). Warm steps
// take no lock and allocate nothing: a state's Accept, Dead and Payload are
// fixed when it is built, and its out-edges are an immutable sorted slice
// behind an atomic pointer, replaced whole when a miss adds an edge. Misses
// take the lock of the DFA's group, or the DFA's own lock when it has no
// group. A miss copies the state's edge list, so it costs the state's
// out-degree: the letters seen there so far.
type LazyDFA struct {
	// Start is the state of the ε-closed start set.
	Start *LazyState

	nfa     *NFA
	group   *LazyGroup // nil: no budget and no counters
	own     sync.Mutex // the miss lock when group is nil
	expand  func(letter uint64) []int
	payload func(set []int) int32
	ids     *alphabet.TupleInterner // state id ↔ NFA-state set; under the miss lock
	states  []*LazyState            // by id; under the miss lock
}

// LazyState is one state of a LazyDFA. It is kept small, 32 bytes: a
// compiled query holds every state its mirror automaton has reached.
type LazyState struct {
	ID      int32 // creation order in its DFA; the start state is 0
	Payload int32 // the owner's value for the set (see NewLazyDFA)
	Accept  bool  // the set holds an accepting NFA state
	Dead    bool  // the set is empty: no successor ever accepts

	dfa   *LazyDFA
	edges atomic.Pointer[[]lazyEdge]
}

// lazyEdge is one out-edge: the successor on a letter.
type lazyEdge struct {
	letter uint64
	to     *LazyState
}

// LazyGroup is what lazy DFAs share: the lock their misses take, the
// transition budget, and the counters. Past the budget a miss flushes the
// edges of every DFA in the group; states and their ids survive, so a
// state held by an in-flight run stays valid and later steps recompute
// its edges. DFAs share a group when their misses touch shared owner state
// (LazyDet's subset table) or should share one memory bound.
type LazyGroup struct {
	// Mutex serializes misses. The counters below are written under it;
	// an owner holds it to read them.
	sync.Mutex
	StatesBuilt int64 // states built, start states included
	Misses      int64 // transitions determinized on demand
	Evictions   int64 // flushes forced by the budget
	// Lookups counts steps as their callers report them: a caller tallies
	// its steps locally and adds them once per run, so a warm step writes
	// nothing shared. Lookups less Misses are the cache hits.
	Lookups atomic.Int64

	budget int // cached transitions allowed; negative: no bound
	cached int
	dfas   []*LazyDFA
}

// NewLazyGroup returns a group whose DFAs may cache budget transitions
// between flushes; a negative budget never flushes.
func NewLazyGroup(budget int) *LazyGroup { return &LazyGroup{budget: budget} }

// NewLazyDFA prepares the on-demand determinization of nfa in group g and
// builds its start state. With a nil g the DFA stands alone: its misses
// take its own lock, and it has no budget and no counters. expand lists
// the NFA symbols a letter names; payload, when non-nil, computes a new
// state's Payload from its NFA-state set. Both run under the miss lock.
func NewLazyDFA(nfa *NFA, g *LazyGroup, expand func(letter uint64) []int, payload func(set []int) int32) *LazyDFA {
	d := &LazyDFA{nfa: nfa, group: g, expand: expand, payload: payload, ids: alphabet.NewTupleInterner()}
	mu := d.lock()
	mu.Lock()
	defer mu.Unlock()
	if g != nil {
		g.dfas = append(g.dfas, d)
	}
	d.Start = d.state(nfa.EpsClosure(nfa.Start))
	return d
}

// lock returns the lock the DFA's misses take.
func (d *LazyDFA) lock() *sync.Mutex {
	if d.group != nil {
		return &d.group.Mutex
	}
	return &d.own
}

// state returns the state of an ε-closed NFA-state set, building it if
// new. The caller holds the miss lock.
func (d *LazyDFA) state(set []int) *LazyState {
	id := d.ids.Intern(set)
	if id < len(d.states) {
		return d.states[id]
	}
	s := &LazyState{ID: int32(id), Accept: d.nfa.anyAccept(set), Dead: len(set) == 0, dfa: d}
	if d.payload != nil {
		s.Payload = d.payload(set)
	}
	d.states = append(d.states, s)
	if d.group != nil {
		d.group.StatesBuilt++
	}
	return s
}

// findEdge returns the index of letter in the sorted edge list, or where
// it would be inserted, and whether it is present.
func findEdge(es []lazyEdge, letter uint64) (int, bool) {
	lo, hi := 0, len(es)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if es[mid].letter < letter {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(es) && es[lo].letter == letter
}

// Step returns the successor of s on letter: the ε-closed moves of s's NFA
// states on every symbol the letter names.
func (s *LazyState) Step(letter uint64) *LazyState {
	if p := s.edges.Load(); p != nil {
		if i, ok := findEdge(*p, letter); ok {
			return (*p)[i].to
		}
	}
	return s.dfa.miss(s, letter)
}

// miss determinizes one new edge, publishes s's extended edge list and
// charges the edge to the group.
func (d *LazyDFA) miss(s *LazyState, letter uint64) *LazyState {
	mu := d.lock()
	mu.Lock()
	defer mu.Unlock()
	var old []lazyEdge
	if p := s.edges.Load(); p != nil {
		old = *p
	}
	i, ok := findEdge(old, letter)
	if ok {
		return old[i].to // published by a concurrent miss
	}
	to := d.state(d.nfa.StepSet(d.ids.Tuple(int(s.ID)), d.expand(letter)...))
	es := make([]lazyEdge, len(old)+1)
	copy(es, old[:i])
	es[i] = lazyEdge{letter: letter, to: to}
	copy(es[i+1:], old[i:])
	s.edges.Store(&es)
	if g := d.group; g != nil {
		g.charge()
	}
	return to
}

// charge counts a miss whose edge is now cached, and past the budget
// flushes the edges of every DFA in the group.
func (g *LazyGroup) charge() {
	g.Misses++
	if g.cached++; g.budget < 0 || g.cached <= g.budget {
		return
	}
	for _, d := range g.dfas {
		for _, st := range d.states {
			st.edges.Store(nil)
		}
	}
	g.cached = 0
	g.Evictions++
}
