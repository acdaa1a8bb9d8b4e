package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"xpe/internal/ha"
	"xpe/internal/hedge"
	"xpe/internal/hre"
	"xpe/internal/metrics"
	"xpe/internal/sfa"
)

// Query is a selection query select(e₁, e₂) (Definition 20): e₁ is a hedge
// regular expression constraining the subhedge of a node, e₂ a pointed
// hedge representation constraining its envelope. A nil Subhedge means "any
// subhedge".
type Query struct {
	Subhedge *hre.Expr // e₁ (nil = any)
	Envelope *PHR      // e₂
}

// ParseQuery parses "select(e1; phr)" or just "phr" (any subhedge).
// Surrounding whitespace (including CRLF line endings) is ignored; the
// select(...) form is recognized whether or not it is preceded by
// whitespace. SyntaxError offsets always index into the original input.
func ParseQuery(input string) (*Query, error) {
	trimmed := trim(input)
	// lead is how much leading whitespace trim dropped: every offset
	// computed against trimmed shifts by lead to index the original input.
	lead := 0
	for lead < len(input) && isSpace(input[lead]) {
		lead++
	}
	if len(trimmed) >= 7 && trimmed[:7] == "select(" {
		body := trimmed[7:]
		// Split at the top-level ';'. Closers at depth 0 before the split
		// point are unmatched: reporting them here (instead of letting the
		// depth go negative) keeps a later top-level ';' from being
		// silently skipped at depth -1.
		depth := 0
		for i := 0; i < len(body); i++ {
			switch body[i] {
			case '(', '<', '[':
				depth++
			case ')', '>', ']':
				if depth == 0 {
					if body[i] == ')' && i == len(body)-1 {
						return nil, &SyntaxError{Input: input, Offset: lead + 7 + i, Msg: "select(...) needs 'e1; phr'"}
					}
					return nil, &SyntaxError{Input: input, Offset: lead + 7 + i, Msg: fmt.Sprintf("unmatched %q before the top-level ';'", body[i])}
				}
				depth--
			case ';':
				if depth == 0 {
					var sub *hre.Expr
					left := trim(body[:i])
					if left != "*" {
						var err error
						sub, err = hre.Parse(left)
						if err != nil {
							return nil, err
						}
					}
					rest := trim(body[i+1:])
					if len(rest) == 0 || rest[len(rest)-1] != ')' {
						return nil, &SyntaxError{Input: input, Offset: lead + len(trimmed) - 1, Msg: "select(...) not closed"}
					}
					phr, err := ParsePHR(trim(rest[:len(rest)-1]))
					if err != nil {
						return nil, err
					}
					return &Query{Subhedge: sub, Envelope: phr}, nil
				}
			}
		}
		return nil, &SyntaxError{Input: input, Offset: lead + len(trimmed), Msg: "select(...) needs 'e1; phr'"}
	}
	phr, err := ParsePHR(trimmed)
	if err != nil {
		return nil, err
	}
	return &Query{Envelope: phr}, nil
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

func trim(s string) string {
	for len(s) > 0 && isSpace(s[0]) {
		s = s[1:]
	}
	for len(s) > 0 && isSpace(s[len(s)-1]) {
		s = s[:len(s)-1]
	}
	return s
}

// String renders the query.
func (q *Query) String() string {
	if q.Subhedge == nil {
		return q.Envelope.String()
	}
	return fmt.Sprintf("select(%s; %s)", q.Subhedge, q.Envelope)
}

// CompiledQuery is the executable form of a selection query: the Theorem 3
// machinery for e₁ (a complete DHA plus its final DFA, checked against each
// node's child-state sequence) and the Theorem 4 / Algorithm 1 machinery
// for e₂.
type CompiledQuery struct {
	Names *ha.Names

	// Gen is the alphabet generation (Names.Generation) this query was
	// compiled against. A '.'-side or '.'-bearing e₁ is closed-world over
	// the symbols interned at that generation and silently excludes labels
	// interned later. Callers that keep interning (parsing more documents)
	// should compare Gen against Names.Generation() at evaluation time and
	// recompile on mismatch, unless Stable — the xpe facade does this
	// transparently through its compiled-query cache.
	Gen uint64

	// Stable reports that no side expression and no e₁ contains '.', so
	// the compilation answers alike at every later generation: a label it
	// does not mention takes its automata's sink whether it was interned
	// before compilation (completion gives it a sink transition) or after
	// (it lies past the tables). The PHR's own '.' ranges over its bases,
	// not the alphabet.
	Stable bool

	phr *CompiledPHR
	sub *subChecker // nil = any subhedge

	// solo is the query's fleet of one, which every evaluation entry runs;
	// built on first use (see fleet).
	solo atomic.Pointer[Fleet]

	// subExpr is the source e₁ expression (nil = any), retained for
	// required-label extraction (RequiredLabels).
	subExpr *hre.Expr
	// required is the required-label set, derived on first use (see
	// RequiredLabels): a field filled at compile time would weigh on every
	// cached compilation, most of which no stream asks.
	required atomic.Pointer[[]string]
}

// SetMetrics attaches (or, with nil, detaches) an evaluation sink: every
// Select, SelectEach, and Locate through this query flushes its counters
// there. The sink must be attached before evaluation begins; concurrent
// evaluators (parallel stream workers, concurrent Selects) may share it —
// all cells are atomic.
func (cq *CompiledQuery) SetMetrics(m *metrics.Eval) { cq.phr.SetMetrics(m) }

// subChecker decides "subhedge of n ∈ L(e₁)" per node during the first
// traversal: it runs the complete DHA of e₁ and tests the child sequence
// against the final DFA — exactly the marking bit of Theorem 3's M↓e.
type subChecker struct {
	key autoKey // e₁'s identity in a fleet

	dha *ha.DHA // map form, for the schema-level constructions
	tab dhaTables
	fin sfa.Table

	// lazy, when non-nil, replaces the eager structures on the marking
	// pass (see component.lazy); nha is retained for on-demand
	// materialization of the eager DHA, which schema-level constructions
	// need.
	lazy  *ha.LazyDet
	nha   *ha.NHA
	eager sync.Once
}

// materialize builds the eager DHA of a lazily compiled subChecker (see
// component.materialize).
func (s *subChecker) materialize() {
	if s.lazy == nil {
		return
	}
	s.eager.Do(func() { s.dha = s.nha.Determinize().DHA })
}

// PreinternQuery interns every name the compilation of q will intern —
// element labels, variables, and the substitution variables of embeddings
// and '.' desugaring. Callers that compile against an immutable alphabet
// snapshot (the xpe facade) publish the query's names to the live alphabet
// with this first, so the subsequent compile performs only idempotent
// (read-locked) interns and never mutates the shared snapshot.
func PreinternQuery(q *Query, names *ha.Names) {
	internExprAlphabet(q.Subhedge, names)
	if q.Envelope != nil {
		internPHRAlphabet(q.Envelope, names)
	}
}

// CompileQuery compiles a selection query. Intern the document alphabet
// into names before calling for a closed-world reading of side conditions
// over those documents; the result is stamped with the alphabet generation
// it ranges over (see CompiledQuery.Gen), so callers can detect — and
// recover from — labels interned after compilation.
func CompileQuery(q *Query, names *ha.Names) (*CompiledQuery, error) {
	return CompileQueryOpt(q, names, Options{})
}

// CompileQueryOpt is CompileQuery with explicit options (lazy
// determinization, minimization).
func CompileQueryOpt(q *Query, names *ha.Names, opts Options) (*CompiledQuery, error) {
	// Intern the query's own alphabet up front so the generation captured
	// here is exact: the automaton builds below re-intern idempotently and
	// cannot move it (a concurrent ParseXML can, which the stamp then
	// reports as stale — the conservative direction).
	PreinternQuery(q, names)
	cq := &CompiledQuery{Names: names, Gen: names.Generation(), subExpr: q.Subhedge}
	phr, err := CompilePHROpt(q.Envelope, names, opts)
	if err != nil {
		return nil, err
	}
	cq.phr = phr
	cq.Stable = q.Subhedge == nil || !q.Subhedge.MentionsAny()
	for _, comp := range phr.comps {
		cq.Stable = cq.Stable && comp.key.gen == 0
	}
	if q.Subhedge != nil {
		nha, err := hre.Compile(q.Subhedge, names)
		if err != nil {
			return nil, err
		}
		if opts.LazyDeterminize {
			lz := nha.LazyDeterminize(ha.LazyOptions{TransitionBudget: opts.LazyTransitionBudget})
			cq.sub = &subChecker{lazy: lz, nha: nha}
		} else {
			det := nha.Determinize()
			cq.sub = &subChecker{
				dha: det.DHA,
				tab: newDHATables(det.DHA, det.Subsets.Lookup(nil)),
				fin: det.DHA.Final.Complete().Table(),
			}
		}
		cq.sub.key = newAutoKey(q.Subhedge, q.Subhedge.String(), cq.Gen)
	}
	return cq, nil
}

// Lazy reports whether the query was compiled with lazy determinization.
func (cq *CompiledQuery) Lazy() bool {
	for _, comp := range cq.phr.comps {
		if comp.lazy != nil {
			return true
		}
	}
	return cq.sub != nil && cq.sub.lazy != nil
}

// LazyStats sums the lazy-determinization counters across the query's side
// and subhedge automata; all-zero under eager compilation.
func (cq *CompiledQuery) LazyStats() ha.LazyStats {
	s := cq.phr.LazyStats()
	if cq.sub != nil && cq.sub.lazy != nil {
		s = s.Add(cq.sub.lazy.Stats())
	}
	return s
}

// materializeEager builds the eager determinizations of a lazily compiled
// query. Schema-level constructions (BuildMatchAutomaton) need the concrete
// DFAs; per-document evaluation keeps using the lazy path.
func (cq *CompiledQuery) materializeEager() {
	for _, comp := range cq.phr.comps {
		comp.materialize()
	}
	if cq.sub != nil {
		cq.sub.materialize()
	}
}

// fleet returns the query's fleet of one, building it on first use: a
// query evaluated only in shared passes, as served queries are, never
// needs it. Racing first uses build one each and keep the first stored.
func (cq *CompiledQuery) fleet() *Fleet {
	if f := cq.solo.Load(); f != nil {
		return f
	}
	cq.solo.CompareAndSwap(nil, newFleet(cq.phr, cq.sub))
	return cq.solo.Load()
}

// Select returns the nodes of h located by the query (Definition 22).
func (cq *CompiledQuery) Select(h hedge.Hedge) *Result {
	res := &Result{Located: map[*hedge.Node]bool{}}
	cq.fleet().each(h, res.add)
	return res
}

// SelectEach runs Algorithm 1 and calls fn for every located node in
// document order with its Dewey path. It returns false when fn stopped the
// walk early, true when the whole document was traversed. The path slice is
// reused between calls to fn (clone it to retain), and all evaluation state
// comes from recycled scratch, so repeated evaluation allocates nothing in
// steady state.
func (cq *CompiledQuery) SelectEach(h hedge.Hedge, fn func(p hedge.Path, n *hedge.Node) bool) bool {
	return cq.fleet().each(h, fn)
}

// SelectBindings is Select with variable capture: located nodes are
// returned together with the ancestors bound by named bases (see
// CompiledPHR.LocateBindings). The e₁ condition filters matches as usual.
func (cq *CompiledQuery) SelectBindings(h hedge.Hedge) []BoundMatch {
	return cq.fleet().bindings(h)
}

// HasUniqueBindings reports (conservatively) whether the query's envelope
// determines bindings uniquely per match.
func (cq *CompiledQuery) HasUniqueBindings() bool {
	return cq.phr.HasUniqueBindings()
}

// SelectNaive evaluates the query from the definitions: per node, test the
// subhedge by automaton membership and the envelope by decomposition
// matching. Used as the oracle and as the E4 baseline.
func SelectNaive(q *Query, names *ha.Names, h hedge.Hedge) (map[*hedge.Node]bool, error) {
	matcher, err := NewNaiveMatcher(q.Envelope, names)
	if err != nil {
		return nil, err
	}
	var subNHA *ha.NHA
	if q.Subhedge != nil {
		subNHA, err = hre.Compile(q.Subhedge, names)
		if err != nil {
			return nil, err
		}
	}
	located, err := matcher.LocateAll(h)
	if err != nil {
		return nil, err
	}
	if subNHA == nil {
		return located, nil
	}
	out := map[*hedge.Node]bool{}
	for n := range located {
		if subNHA.Accepts(n.Children) {
			out[n] = true
		}
	}
	return out, nil
}
