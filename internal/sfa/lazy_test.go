package sfa

import (
	"math/bits"
	"math/rand"
	"testing"
)

// checkLazyVsEager steps every word through two LazyDFAs over n that share
// one group with the given budget, a third that stands alone, and the eager
// determinization of n over the same letters. A letter is a bit set of n's symbols, so the
// eager reference is n with each symbol mapped to every letter holding it.
// At every step the lazy states must agree with the eager one on Accept
// and Dead, pair with eager states one to one, keep their Payload, and take
// ids in creation order. A second pass over the words must reach the very
// same states, however often the budget flushed the edges in between.
func checkLazyVsEager(t *testing.T, n *NFA, budget int, words [][]uint64) {
	t.Helper()
	k := n.NumSymbols
	ref := n.MapSymbols(1<<k, func(sym int) []int {
		var letters []int
		for l := 1; l < 1<<k; l++ {
			if l&(1<<sym) != 0 {
				letters = append(letters, l)
			}
		}
		return letters
	}).Determinize()
	expand := func(l uint64) []int {
		var syms []int
		for ; l != 0; l &= l - 1 {
			syms = append(syms, bits.TrailingZeros64(l))
		}
		return syms
	}
	payload := func(set []int) int32 {
		sum := int32(len(set))
		for _, q := range set {
			sum = sum*31 + int32(q)
		}
		return sum
	}
	g := NewLazyGroup(budget)
	lazies := []*LazyDFA{NewLazyDFA(n, g, expand, payload), NewLazyDFA(n, g, expand, payload), NewLazyDFA(n, nil, expand, payload)}
	if g.StatesBuilt != 2 {
		t.Fatalf("two fresh DFAs in a group built %d states, want their 2 start states", g.StatesBuilt)
	}
	type pairing struct {
		toEager  map[int32]int // lazy id → eager state
		toLazy   map[int]int32 // eager state → lazy id
		payloads map[int32]int32
	}
	pairs := make([]pairing, len(lazies))
	for i := range pairs {
		pairs[i] = pairing{map[int32]int{}, map[int]int32{}, map[int32]int32{}}
	}
	check := func(li int, st *LazyState, es int, w []uint64, at int) {
		t.Helper()
		p := &pairs[li]
		if st.Dead != (es == Dead) || st.Accept != ref.Accepting(es) {
			t.Fatalf("DFA %d, word %v at %d: lazy dead=%v accept=%v, eager state %d accept=%v",
				li, w, at, st.Dead, st.Accept, es, ref.Accepting(es))
		}
		if id, ok := p.toEager[st.ID]; !ok {
			if int(st.ID) != len(p.toEager) {
				t.Fatalf("DFA %d, word %v at %d: new state has id %d, want the next id %d", li, w, at, st.ID, len(p.toEager))
			}
			p.toEager[st.ID], p.payloads[st.ID] = es, st.Payload
		} else if id != es {
			t.Fatalf("DFA %d, word %v at %d: lazy state %d paired with eager %d and %d", li, w, at, st.ID, id, es)
		}
		if id, ok := p.toLazy[es]; ok && id != st.ID {
			t.Fatalf("DFA %d, word %v at %d: eager state %d paired with lazy %d and %d", li, w, at, es, id, st.ID)
		}
		p.toLazy[es] = st.ID
		if st.Payload != p.payloads[st.ID] {
			t.Fatalf("DFA %d: state %d payload moved from %d to %d", li, st.ID, p.payloads[st.ID], st.Payload)
		}
	}
	var first [][]*LazyState
	for pass := 0; pass < 2; pass++ {
		for wi, w := range words {
			for li, lz := range lazies {
				st, es := lz.Start, ref.Start
				if st.ID != 0 {
					t.Fatalf("start state has id %d, want 0", st.ID)
				}
				check(li, st, es, w, 0)
				var path []*LazyState
				for i, l := range w {
					st, es = st.Step(l), ref.Step(es, int(l))
					check(li, st, es, w, i+1)
					path = append(path, st)
				}
				if li > 0 {
					continue
				}
				if pass == 0 {
					first = append(first, path)
					continue
				}
				for i := range path {
					if path[i] != first[wi][i] {
						t.Fatalf("word %v at %d: second pass reached state %d, first pass %d", w, i+1, path[i].ID, first[wi][i].ID)
					}
				}
			}
		}
	}
	if budget >= 0 && g.Misses > int64(budget) && g.Evictions == 0 {
		t.Fatalf("budget %d: %d misses and no flush", budget, g.Misses)
	}
	if budget < 0 && g.Evictions != 0 {
		t.Fatalf("unbounded group flushed %d times", g.Evictions)
	}
}

// randLetters returns up to maxLen letters over k symbols, the empty
// letter included.
func randLetters(rng *rand.Rand, k, maxLen int) []uint64 {
	w := make([]uint64, rng.Intn(maxLen+1))
	for i := range w {
		w[i] = uint64(rng.Intn(1 << k))
	}
	return w
}

// TestLazyDFAMatchesDeterminize runs random NFAs through checkLazyVsEager
// with no budget, budget 1 (a flush on nearly every miss) and a small one.
func TestLazyDFAMatchesDeterminize(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 80; trial++ {
		n := randNFA(rng, 1+rng.Intn(6), 1+rng.Intn(3))
		var words [][]uint64
		for i := 0; i < 30; i++ {
			words = append(words, randLetters(rng, n.NumSymbols, 8))
		}
		for _, budget := range []int{-1, 1, 4} {
			checkLazyVsEager(t, n, budget, words)
		}
	}
}

// FuzzLazyDFA decodes an NFA, a budget and words of letters from the fuzz
// input and runs them through checkLazyVsEager.
func FuzzLazyDFA(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 1, 0, 1, 2, 0, 1, 1, 2, 2, 0, 3, 1, 7, 0, 5, 6, 1, 2, 3})
	f.Add([]byte{0, 5, 3, 9, 9, 9, 1, 4, 4, 0, 2, 2, 1, 0, 7, 7, 7, 3, 3, 2, 1, 0, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(m int) int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0]) % m
			data = data[1:]
			return v
		}
		budget := []int{-1, 1, 2, 16}[next(4)]
		k := 1 + next(3)
		n := NewNFA(k)
		states := 1 + next(6)
		for i := 0; i < states; i++ {
			n.AddState(next(3) == 0)
		}
		for i := next(3); i >= 0; i-- {
			n.MarkStart(next(states))
		}
		for i := next(3 * states); i > 0; i-- {
			n.AddTrans(next(states), next(k), next(states))
		}
		for i := next(3); i > 0; i-- {
			n.AddEps(next(states), next(states))
		}
		var words [][]uint64
		for len(data) > 0 {
			w := make([]uint64, next(8))
			for i := range w {
				w[i] = uint64(next(1 << k))
			}
			words = append(words, w)
		}
		checkLazyVsEager(t, n, budget, words)
	})
}
