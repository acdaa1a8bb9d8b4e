package core

import (
	"slices"

	"xpe/internal/hedge"
	"xpe/internal/sfa"
)

// Match provenance. Algorithm 1's second traversal decides "located" per
// node from two bit sets — the mirror-automaton state along the spine and
// the e₁ marking bit — which makes a positive answer hard to audit: the
// bits say that a match exists, not which bases of the pointed hedge
// representation matched which ancestors. ExplainEach re-exposes that
// evidence as a Witness per located node, using the same reconstruction
// LocateBindings performs for variable capture: the candidate-set word
// along the node's ancestor chain is known from the two traversals, and a
// successful abstract word of the PHR's regular expression over it
// (wordFromSets) names the base fired at every level.
//
// This is a diagnostic surface: unlike SelectEach it allocates per match
// (cloned paths, materialized level slices) and compiles the forward NFA
// per call, and it flushes no evaluation metrics — attach it for
// explanations, not for steady-state throughput.

// WitnessLevel is one level of a witness spine: an ancestor of the located
// node (or the node itself, in the last level).
type WitnessLevel struct {
	// Name is the element label at this level.
	Name string
	// State is the mirror-automaton state entered after stepping with
	// this level's candidate set (Theorem 4's deterministic string
	// automaton over membership-bit symbols). State ids are interned
	// lazily per compiled query: they are stable across evaluations of
	// one compilation, not across recompiles.
	State int
	// Candidates lists the base indices of the envelope whose side
	// conditions (elder/younger sibling membership) hold at this level —
	// the candidate set the mirror automaton stepped with.
	Candidates []int
	// Fired is the base index the successful abstract run assigns to
	// this level: the transition of the PHR's expression that consumed
	// it. -1 when reconstruction failed (cannot happen for an accepting
	// spine short of an inconsistent compilation).
	Fired int
}

// Witness is the provenance of one located node: the evidence that its
// envelope matches the query, level by level from the top of the document
// down to the node.
type Witness struct {
	// Path is the located node's Dewey path (cloned; safe to retain).
	Path hedge.Path
	// Subhedge reports whether the query carries an e₁ subhedge
	// condition; when true the node's subhedge was additionally checked
	// against e₁ (Theorem 3's marking bit) and passed.
	Subhedge bool
	// Levels runs from the top level (index 0) down to the located node
	// (last index); len(Levels) == len(Path).
	Levels []WitnessLevel
}

// ExplainEach runs Algorithm 1 and calls fn once per located node in
// document order with the node's witness. It locates exactly the nodes
// SelectEach does; it returns false when fn stopped the walk early. The
// Witness and its slices are freshly allocated per call to fn (safe to
// retain); the node pointer aliases the document.
func (cq *CompiledQuery) ExplainEach(h hedge.Hedge, fn func(w Witness, n *hedge.Node) bool) bool {
	return cq.fleet().ExplainEach(h, 1, func(_ int, w Witness, n *hedge.Node) bool { return fn(w, n) })
}

// ExplainEach is Each with provenance: fn receives each located node's
// witness instead of its path. Matches come in the order Each yields them.
func (f *Fleet) ExplainEach(h hedge.Hedge, allow uint64, fn func(m int, w Witness, n *hedge.Node) bool) bool {
	fwds := make([]*sfa.NFA, len(f.members)) // compiled on a member's first match
	return f.visit(h, allow, func(s *scratch, m int, n *hedge.Node) bool {
		mb := &f.members[m]
		if fwds[m] == nil {
			fwds[m] = mb.phr.forwardNFA()
		}
		w := Witness{Path: s.path.Clone(), Subhedge: mb.mark != 0}
		var sets [][]int
		s.spine(m, func(n *hedge.Node, cands uint64, st *sfa.LazyState) {
			lv := WitnessLevel{Name: n.Name, State: int(st.ID), Candidates: bitsToList(cands), Fired: -1}
			w.Levels = append(w.Levels, lv)
			sets = append(sets, lv.Candidates)
		})
		// Sets and words are reconstructed bottom-up per Definition 19,
		// exactly as in LocateBindings.
		slices.Reverse(sets)
		if word, ok := wordFromSets(fwds[m], sets); ok {
			for k := range w.Levels {
				w.Levels[k].Fired = word[len(word)-1-k]
			}
		}
		return fn(m, w, n)
	})
}

// NumBases returns the number of base representations in the query's
// envelope; witness base indices range over [0, NumBases).
func (cq *CompiledQuery) NumBases() int { return len(cq.phr.PHR.Bases) }

// BaseString renders base i of the envelope in the package's concrete
// syntax, for presenting witnesses.
func (cq *CompiledQuery) BaseString(i int) string { return cq.phr.PHR.Bases[i].String() }
