package core

import (
	"xpe/internal/hedge"
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
	phr := cq.phr
	recs, ar := phr.annotate(h, nil, cq.sub)
	defer phr.release(ar)
	fwd := phr.forwardNFA()
	// chain carries (label, state, candidate set) from the top level down
	// to the current node; sets and words are reconstructed bottom-up per
	// Definition 19 exactly as in LocateBindings.
	type level struct {
		name  string
		state int
		cands uint64
	}
	var chain []level
	var path hedge.Path
	var walk func(h hedge.Hedge, recs []annot, parent *mirrorState) bool
	walk = func(h hedge.Hedge, recs []annot, parent *mirrorState) bool {
		for i, n := range h {
			if n.Kind != hedge.Elem {
				continue
			}
			ni := &recs[i]
			cands := phr.candidates(ni.sym, ni.leftBits, ni.rightBits)
			st := phr.mirror.step(parent, cands)
			path = append(path, i)
			chain = append(chain, level{n.Name, st.id, cands})
			if st.accept && ni.marked {
				sets := make([][]int, len(chain))
				for j := range chain {
					sets[j] = bitsToList(chain[len(chain)-1-j].cands)
				}
				word, ok := wordFromSets(fwd, sets)
				w := Witness{Path: path.Clone(), Subhedge: cq.sub != nil,
					Levels: make([]WitnessLevel, len(chain))}
				for k := range chain {
					lv := WitnessLevel{Name: chain[k].name, State: chain[k].state,
						Candidates: sets[len(chain)-1-k], Fired: -1}
					if ok {
						lv.Fired = word[len(chain)-1-k]
					}
					w.Levels[k] = lv
				}
				if !fn(w, n) {
					return false
				}
			}
			if !walk(n.Children, ni.children, st) {
				return false
			}
			path = path[:len(path)-1]
			chain = chain[:len(chain)-1]
		}
		return true
	}
	return walk(h, recs, phr.mirror.start)
}

// NumBases returns the number of base representations in the query's
// envelope; witness base indices range over [0, NumBases).
func (cq *CompiledQuery) NumBases() int { return len(cq.phr.PHR.Bases) }

// BaseString renders base i of the envelope in the package's concrete
// syntax, for presenting witnesses.
func (cq *CompiledQuery) BaseString(i int) string { return cq.phr.PHR.Bases[i].String() }
