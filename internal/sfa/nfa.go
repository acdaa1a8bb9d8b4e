// Package sfa implements string finite automata over dense int alphabets:
// non-deterministic automata with ε-moves, deterministic automata, subset
// construction (eager, and on demand with lock-free warm steps: LazyDFA),
// minimization, boolean operations, reversal, and decision procedures
// (emptiness, membership, equivalence).
//
// Every regular string language in the reproduction is represented here: the
// horizontal languages α⁻¹(a,q) of hedge automata, the final-state-sequence
// sets F (Definitions 3 and 6 of the paper), the regular set L over
// (Q*/≡)×Σ×(Q*/≡) of Theorem 4, and the string automaton N evaluated by
// Algorithm 1.
package sfa

import (
	"fmt"
	"sort"
)

// NFA is a non-deterministic finite automaton with ε-transitions over the
// alphabet {0, …, NumSymbols-1}. States are {0, …, NumStates-1}. The zero
// value is an automaton with no states, accepting nothing.
type NFA struct {
	NumStates  int
	NumSymbols int
	Start      []int           // set of start states
	Accept     []bool          // indexed by state
	Trans      []map[int][]int // state → symbol → successor states
	Eps        [][]int         // state → ε-successor states
}

// NewNFA returns an empty NFA over an alphabet of the given size.
func NewNFA(numSymbols int) *NFA {
	return &NFA{NumSymbols: numSymbols}
}

// AddState adds a fresh state and returns its id.
func (n *NFA) AddState(accept bool) int {
	id := n.NumStates
	n.NumStates++
	n.Accept = append(n.Accept, accept)
	n.Trans = append(n.Trans, nil)
	n.Eps = append(n.Eps, nil)
	return id
}

// AddTrans adds a transition from→to on symbol sym. It grows the alphabet if
// sym is outside the current range.
func (n *NFA) AddTrans(from, sym, to int) {
	if sym >= n.NumSymbols {
		n.NumSymbols = sym + 1
	}
	if n.Trans[from] == nil {
		n.Trans[from] = make(map[int][]int)
	}
	n.Trans[from][sym] = append(n.Trans[from][sym], to)
}

// AddEps adds an ε-transition from→to.
func (n *NFA) AddEps(from, to int) {
	n.Eps[from] = append(n.Eps[from], to)
}

// MarkStart adds s to the start set.
func (n *NFA) MarkStart(s int) { n.Start = append(n.Start, s) }

// GrowAlphabet ensures the alphabet has at least numSymbols symbols.
func (n *NFA) GrowAlphabet(numSymbols int) {
	if numSymbols > n.NumSymbols {
		n.NumSymbols = numSymbols
	}
}

// EpsClosure returns the ε-closure of the given state set, sorted and
// deduplicated.
func (n *NFA) EpsClosure(states []int) []int {
	var seenBuf [4]uint64
	var setBuf [32]int
	seen, set := scratchBits(seenBuf[:], n.NumStates), setBuf[:0]
	for _, s := range states {
		set = mark(set, seen, s)
	}
	return n.closeOver(set, seen)
}

// StepSet returns the ε-closed successor set of states on any of syms,
// sorted and deduplicated; nil when there is none.
func (n *NFA) StepSet(states []int, syms ...int) []int {
	var seenBuf [4]uint64
	var setBuf [32]int
	seen, set := scratchBits(seenBuf[:], n.NumStates), setBuf[:0]
	for _, s := range states {
		for _, sym := range syms {
			for _, t := range n.Trans[s][sym] {
				set = mark(set, seen, t)
			}
		}
	}
	if len(set) == 0 {
		return nil
	}
	return n.closeOver(set, seen)
}

// scratchBits returns a cleared bitset over n states: buf when it is
// large enough, so that small NFAs step without allocating scratch.
func scratchBits(buf []uint64, n int) []uint64 {
	if words := (n + 63) / 64; words <= len(buf) {
		return buf[:words]
	}
	return make([]uint64, (n+63)/64)
}

// mark appends state s to set unless seen already holds it.
func mark(set []int, seen []uint64, s int) []int {
	if seen[s/64]&(1<<(s%64)) != 0 {
		return set
	}
	seen[s/64] |= 1 << (s % 64)
	return append(set, s)
}

// closeOver adds to the duplicate-free set, whose members seen holds,
// every state reachable from them by ε-moves (set is its own work queue),
// and returns the result sorted, in fresh storage.
func (n *NFA) closeOver(set []int, seen []uint64) []int {
	for i := 0; i < len(set); i++ {
		for _, t := range n.Eps[set[i]] {
			set = mark(set, seen, t)
		}
	}
	sort.Ints(set)
	out := make([]int, len(set))
	copy(out, set)
	return out
}

// anyAccept reports whether the state set holds an accepting state.
func (n *NFA) anyAccept(states []int) bool {
	for _, s := range states {
		if n.Accept[s] {
			return true
		}
	}
	return false
}

// Accepts reports whether the NFA accepts the input word.
func (n *NFA) Accepts(word []int) bool {
	cur := n.EpsClosure(n.Start)
	for _, sym := range word {
		if sym < 0 || sym >= n.NumSymbols {
			return false
		}
		cur = n.StepSet(cur, sym)
		if len(cur) == 0 {
			return false
		}
	}
	return n.anyAccept(cur)
}

// AcceptsEmpty reports whether ε is in the language.
func (n *NFA) AcceptsEmpty() bool { return n.Accepts(nil) }

// IsEmpty reports whether the language is empty.
func (n *NFA) IsEmpty() bool {
	seen := make([]bool, n.NumStates)
	stack := append([]int(nil), n.Start...)
	for _, s := range stack {
		seen[s] = true
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.Accept[s] {
			return false
		}
		push := func(t int) {
			if !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
		for _, t := range n.Eps[s] {
			push(t)
		}
		for _, ts := range n.Trans[s] {
			for _, t := range ts {
				push(t)
			}
		}
	}
	return true
}

// Reverse returns an NFA for the mirror image of the language: every
// transition is reversed, start and accept sets are swapped. This realizes
// the N′ reverse simulation of Theorem 5 (Figure 3) at the string level.
func (n *NFA) Reverse() *NFA {
	r := NewNFA(n.NumSymbols)
	for i := 0; i < n.NumStates; i++ {
		r.AddState(false)
	}
	for s := 0; s < n.NumStates; s++ {
		for sym, ts := range n.Trans[s] {
			for _, t := range ts {
				r.AddTrans(t, sym, s)
			}
		}
		for _, t := range n.Eps[s] {
			r.AddEps(t, s)
		}
		if n.Accept[s] {
			r.MarkStart(s)
		}
	}
	for _, s := range n.Start {
		r.Accept[s] = true
	}
	return r
}

// Clone returns a deep copy.
func (n *NFA) Clone() *NFA {
	c := NewNFA(n.NumSymbols)
	c.NumStates = n.NumStates
	c.Start = append([]int(nil), n.Start...)
	c.Accept = append([]bool(nil), n.Accept...)
	c.Trans = make([]map[int][]int, n.NumStates)
	c.Eps = make([][]int, n.NumStates)
	for s := 0; s < n.NumStates; s++ {
		if n.Trans[s] != nil {
			m := make(map[int][]int, len(n.Trans[s]))
			for sym, ts := range n.Trans[s] {
				m[sym] = append([]int(nil), ts...)
			}
			c.Trans[s] = m
		}
		c.Eps[s] = append([]int(nil), n.Eps[s]...)
	}
	return c
}

// importInto copies the states and transitions of src into dst and returns
// the state-id offset; start/accept markings are copied as plain flags into
// the new ids (start states of src are NOT starts of dst).
func importInto(dst, src *NFA) (offset int, starts []int, accepts []int) {
	dst.GrowAlphabet(src.NumSymbols)
	offset = dst.NumStates
	for i := 0; i < src.NumStates; i++ {
		dst.AddState(false)
	}
	for s := 0; s < src.NumStates; s++ {
		for sym, ts := range src.Trans[s] {
			for _, t := range ts {
				dst.AddTrans(offset+s, sym, offset+t)
			}
		}
		for _, t := range src.Eps[s] {
			dst.AddEps(offset+s, offset+t)
		}
		if src.Accept[s] {
			accepts = append(accepts, offset+s)
		}
	}
	for _, s := range src.Start {
		starts = append(starts, offset+s)
	}
	return offset, starts, accepts
}

// Union returns an NFA accepting L(a) ∪ L(b).
func Union(a, b *NFA) *NFA {
	u := NewNFA(0)
	_, sa, aa := importInto(u, a)
	_, sb, ab := importInto(u, b)
	u.Start = append(append([]int(nil), sa...), sb...)
	for _, s := range append(aa, ab...) {
		u.Accept[s] = true
	}
	return u
}

// Concat returns an NFA accepting L(a)·L(b).
func Concat(a, b *NFA) *NFA {
	c := NewNFA(0)
	_, sa, aa := importInto(c, a)
	_, sb, ab := importInto(c, b)
	c.Start = sa
	for _, s := range aa {
		for _, t := range sb {
			c.AddEps(s, t)
		}
	}
	for _, s := range ab {
		c.Accept[s] = true
	}
	return c
}

// Star returns an NFA accepting L(a)*.
func Star(a *NFA) *NFA {
	s := NewNFA(0)
	_, sa, aa := importInto(s, a)
	pivot := s.AddState(true)
	s.Start = []int{pivot}
	for _, t := range sa {
		s.AddEps(pivot, t)
	}
	for _, t := range aa {
		s.AddEps(t, pivot)
	}
	return s
}

// EmptyLang returns an NFA accepting nothing, over the given alphabet.
func EmptyLang(numSymbols int) *NFA {
	return NewNFA(numSymbols)
}

// EpsLang returns an NFA accepting exactly ε.
func EpsLang(numSymbols int) *NFA {
	n := NewNFA(numSymbols)
	s := n.AddState(true)
	n.MarkStart(s)
	return n
}

// SymbolLang returns an NFA accepting exactly the one-symbol word {sym}.
func SymbolLang(numSymbols, sym int) *NFA {
	n := NewNFA(numSymbols)
	s0 := n.AddState(false)
	s1 := n.AddState(true)
	n.MarkStart(s0)
	n.AddTrans(s0, sym, s1)
	return n
}

// WordLang returns an NFA accepting exactly the given word.
func WordLang(numSymbols int, word []int) *NFA {
	n := NewNFA(numSymbols)
	prev := n.AddState(len(word) == 0)
	n.MarkStart(prev)
	for i, sym := range word {
		next := n.AddState(i == len(word)-1)
		n.AddTrans(prev, sym, next)
		prev = next
	}
	return n
}

// AllLang returns an NFA accepting every word over {0,…,numSymbols-1}.
func AllLang(numSymbols int) *NFA {
	n := NewNFA(numSymbols)
	s := n.AddState(true)
	n.MarkStart(s)
	for sym := 0; sym < numSymbols; sym++ {
		n.AddTrans(s, sym, s)
	}
	return n
}

// SymbolSetLang returns an NFA accepting the length-1 words over the given
// symbol set.
func SymbolSetLang(numSymbols int, syms []int) *NFA {
	n := NewNFA(numSymbols)
	s0 := n.AddState(false)
	s1 := n.AddState(true)
	n.MarkStart(s0)
	for _, sym := range syms {
		n.AddTrans(s0, sym, s1)
	}
	return n
}

// MapSymbols returns an NFA in which every transition on symbol s is
// replaced by transitions on every symbol in f(s); f returning an empty
// slice deletes the transition. newNumSymbols is the alphabet size of the
// result. This realizes homomorphic (and inverse-homomorphic, with the
// appropriate f) images of regular languages, used throughout Section 8.
func (n *NFA) MapSymbols(newNumSymbols int, f func(sym int) []int) *NFA {
	r := NewNFA(newNumSymbols)
	for i := 0; i < n.NumStates; i++ {
		r.AddState(n.Accept[i])
	}
	r.Start = append([]int(nil), n.Start...)
	for s := 0; s < n.NumStates; s++ {
		for sym, ts := range n.Trans[s] {
			images := f(sym)
			for _, t := range ts {
				for _, img := range images {
					r.AddTrans(s, img, t)
				}
			}
		}
		for _, t := range n.Eps[s] {
			r.AddEps(s, t)
		}
	}
	return r
}

// EraseSymbols returns an NFA in which every transition on a symbol for
// which erase(sym) is true becomes an ε-transition. This is the erasing
// homomorphism used by the delete-query schema transformation.
func (n *NFA) EraseSymbols(erase func(sym int) bool) *NFA {
	r := NewNFA(n.NumSymbols)
	for i := 0; i < n.NumStates; i++ {
		r.AddState(n.Accept[i])
	}
	r.Start = append([]int(nil), n.Start...)
	for s := 0; s < n.NumStates; s++ {
		for sym, ts := range n.Trans[s] {
			for _, t := range ts {
				if erase(sym) {
					r.AddEps(s, t)
				} else {
					r.AddTrans(s, sym, t)
				}
			}
		}
		for _, t := range n.Eps[s] {
			r.AddEps(s, t)
		}
	}
	return r
}

// String renders a compact description for debugging.
func (n *NFA) String() string {
	return fmt.Sprintf("NFA{states:%d syms:%d starts:%v}", n.NumStates, n.NumSymbols, n.Start)
}
