package core

import (
	"slices"

	"xpe/internal/hedge"
	"xpe/internal/sfa"
)

// Variable bindings — the Section 9 extension. The paper's future-work
// section proposes variables so "query operations can use the values
// assigned to such variables", noting that variables are safe on
// unambiguous expressions. Here bases of a pointed hedge representation may
// carry a binding name ([...]@name); when a node is located, the ancestor
// level matched by each named base is captured.
//
// Extraction re-reads the matched abstract base sequence: for a located
// node, the concrete candidate-set word along its ancestor chain is known
// from the two traversals, and a successful abstract word of the PHR's
// regular expression is reconstructed over it (wordFromSets). For
// unambiguous representations that word — hence every binding — is unique;
// HasUniqueBindings reports (conservatively) whether that holds.

// BoundMatch is a located node together with its variable bindings.
type BoundMatch struct {
	// Path addresses the located node.
	Path hedge.Path
	// Node is the located node.
	Node *hedge.Node
	// Bindings maps binding names to the captured ancestor (or self)
	// nodes; Paths carries their Dewey addresses.
	Bindings map[string]*hedge.Node
	// BindingPaths maps binding names to Dewey addresses.
	BindingPaths map[string]hedge.Path
}

// LocateBindings locates every matching node and captures the bindings of
// named bases. When the representation is ambiguous, one successful match
// per node is chosen (use HasUniqueBindings to check uniqueness up front).
func (c *CompiledPHR) LocateBindings(h hedge.Hedge) []BoundMatch { return newFleet(c, nil).bindings(h) }

// bindings is LocateBindings for a fleet of one: its member's e₁ filters
// the matches as usual. Matches come in document order.
func (f *Fleet) bindings(h hedge.Hedge) []BoundMatch {
	phr := f.members[0].phr
	// The abstract NFA of the PHR's regular expression (forward, not
	// mirrored): words are base-index sequences from the node's level up.
	fwd := phr.forwardNFA()
	var out []BoundMatch
	f.visit(h, 1, func(s *scratch, m int, n *hedge.Node) bool {
		// The match's spine, top level first: node and candidate set.
		var nodes []*hedge.Node
		var sets [][]int
		s.spine(m, func(n *hedge.Node, cands uint64, _ *sfa.LazyState) {
			nodes = append(nodes, n)
			sets = append(sets, bitsToList(cands))
		})
		// Reconstruct the abstract word bottom-up: candidate sets from the
		// node's level to the top.
		slices.Reverse(sets)
		word, ok := wordFromSets(fwd, sets)
		if !ok {
			return true
		}
		bm := BoundMatch{
			Path:         s.path.Clone(),
			Node:         n,
			Bindings:     map[string]*hedge.Node{},
			BindingPaths: map[string]hedge.Path{},
		}
		for j, baseIdx := range word {
			if name := phr.PHR.Bases[baseIdx].Bind; name != "" {
				lv := len(nodes) - 1 - j
				bm.Bindings[name] = nodes[lv]
				bm.BindingPaths[name] = s.path[:lv+1].Clone()
			}
		}
		out = append(out, bm)
		return true
	})
	return out
}

// forwardNFA compiles the PHR's regular expression over base indexes.
func (c *CompiledPHR) forwardNFA() *sfa.NFA {
	nfa := c.PHR.Expr.CompileNFA(namesForBases(len(c.PHR.Bases)))
	nfa.GrowAlphabet(len(c.PHR.Bases))
	return nfa
}

func bitsToList(bits uint64) []int {
	var out []int
	for i := 0; bits>>uint(i) != 0; i++ {
		if bits&(1<<uint(i)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// HasUniqueBindings reports, conservatively, whether every match of the
// representation determines its base sequence (and hence its bindings)
// uniquely. Two base representations are treated as potentially
// co-occurring when they test the same label — a sound over-approximation
// of Definition 17 compatibility — so a true result guarantees uniqueness,
// while false may be a false alarm.
func (c *CompiledPHR) HasUniqueBindings() bool {
	nfa := c.forwardNFA()
	n := len(c.PHR.Bases)
	if n == 0 {
		return true
	}
	// Pair NFA over base pairs (i, j) that can co-occur in a candidate
	// set; a reachable accepting pair computation that differs somewhere
	// witnesses ambiguity.
	type pstate struct {
		a, b int
		diff bool
	}
	id := func(s pstate) int {
		d := 0
		if s.diff {
			d = 1
		}
		return (s.a*nfa.NumStates+s.b)*2 + d
	}
	start := nfa.EpsClosure(nfa.Start)
	seen := map[int]pstate{}
	var queue []pstate
	push := func(s pstate) {
		if _, ok := seen[id(s)]; !ok {
			seen[id(s)] = s
			queue = append(queue, s)
		}
	}
	for _, sa := range start {
		for _, sb := range start {
			push(pstate{sa, sb, false})
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		cur := queue[qi]
		if cur.diff && nfa.Accept[cur.a] && nfa.Accept[cur.b] {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if c.bases[i].sym != c.bases[j].sym {
					continue // cannot co-occur in one candidate set
				}
				for _, ta := range nfa.Trans[cur.a][i] {
					for _, tb := range nfa.Trans[cur.b][j] {
						for _, ca := range nfa.EpsClosure([]int{ta}) {
							for _, cb := range nfa.EpsClosure([]int{tb}) {
								push(pstate{ca, cb, cur.diff || i != j})
							}
						}
					}
				}
			}
		}
	}
	return true
}
