// Package xpe — extended path expressions for XML — is a from-scratch
// implementation of Murata's PODS 2001 paper: hedge regular expressions,
// pointed hedge representations, linear-time selection-query evaluation by
// two depth-first traversals, and schema transformation via
// match-identifying hedge automata.
//
// The package is a facade over the full machinery in internal/: an Engine
// holds the shared alphabet; documents are parsed from XML or from the
// paper's term syntax; queries are selection queries select(e₁, e₂)
// combining a hedge regular expression (condition on a node's subhedge)
// with a pointed hedge representation (condition on its envelope:
// ancestors, siblings, siblings of ancestors, and their descendants).
//
// Quickstart:
//
//	eng := xpe.NewEngine()
//	doc, _ := eng.ParseXMLString("<doc><sec><fig/><tab/></sec></doc>")
//	q, _ := eng.CompileQuery("[* ; fig ; tab .] (sec|doc)*")
//	for m := range q.Matches(doc) {
//		fmt.Println(m.Path, m.Term)
//	}
//
// Matches is a range-over-func iterator (stop early by breaking); Select
// materializes the slice. Engine.Select (in memory, under a context) and
// the streaming entry point SelectStream — which evaluates a query over an
// XML stream record by record in bounded memory, with worker-pool fan-out
// and in-order delivery — accept a SelectOptions. Errors crossing the facade
// are typed: *ParseError (malformed documents), *CompileError (bad queries
// or grammars, with offset and excerpt), and *LimitError (streamed record
// over a configured bound), all recoverable with errors.As.
//
// Query syntax is documented on CompileQuery; schema grammars on
// ParseSchema; streaming on SelectStream.
package xpe

import (
	"fmt"
	"io"
	"iter"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"xpe/internal/core"
	"xpe/internal/ha"
	"xpe/internal/hedge"
	"xpe/internal/metrics"
	"xpe/internal/schema"
	"xpe/internal/xmlhedge"
	"xpe/internal/xpath"
)

// Engine holds the shared symbol/variable alphabet. Every document, query,
// and schema compiled through the same Engine agrees on the alphabet,
// which is what the paper's closed-world side conditions (and the product
// constructions of Section 8) require.
//
// The alphabet is versioned: interning a fresh label (parsing a document
// with new element names, Rename with a new target) advances a generation
// counter, and every compiled query and schema is stamped with the
// generation it was compiled against. Evaluation entry points (Select*,
// Matches, SelectStream, Validate, Transform*) compare stamps against the
// current generation and transparently recompile through a bounded
// engine-level LRU cache on mismatch — so compile order is not semantics:
// a query compiled before its documents behaves exactly like one compiled
// after them. Cache traffic is visible in Stats().Cache.
//
// An Engine is safe for concurrent use: documents may be parsed and
// queries evaluated from any number of goroutines sharing one Engine.
type Engine struct {
	names *ha.Names
	// metrics is the engine-wide instrumentation registry; queries compiled
	// through this engine flush evaluation counters into it (see Stats).
	metrics *metrics.Metrics
	// cache holds compiled queries keyed by source × kind × alphabet
	// generation; generation-mismatch recompiles go through it.
	cache *compiledCache
	// recorder is the engine-wide flight recorder, nil when detached
	// (the common case: evaluation pays one atomic load per call). See
	// SetFlightRecorder.
	recorder atomic.Pointer[FlightRecorder]

	// snapMu guards the cached alphabet snapshot below. Compilations build
	// automata against an immutable clone of the live alphabet (a concurrent
	// Intern cannot resize it mid-construction), and every compilation at
	// one generation shares the same clone — the pointer identity the
	// product constructions of Section 8 require across schema and query.
	snapMu  sync.Mutex
	snap    *ha.Names
	snapGen uint64

	// copts carries engine-wide query-compilation options (lazy
	// determinization and its budget); fixed at construction.
	copts core.Options
	// optErr records an invalid construction option (*OptionError); fixed
	// at construction and returned by every compile entry point.
	optErr error
}

// EngineOption configures a new Engine (see NewEngine).
type EngineOption func(*Engine)

// WithLazyDeterminization makes the engine compile queries with on-demand
// subset construction: the Theorem 1 determinization of each side automaton
// is deferred, and deterministic states are materialized one transition at a
// time as evaluation first needs them, behind a bounded cache. Queries whose
// eager determinization would blow up exponentially compile in time
// proportional to the states actually reached. Match sets are identical to
// eager compilation; Stats().Eval reports lazy_states_built,
// lazy_cache_hits, and lazy_evictions, and each streaming run's share
// appears in StreamStats.
func WithLazyDeterminization() EngineOption {
	return func(e *Engine) { e.copts.LazyDeterminize = true }
}

// WithLazyTransitionBudget enables lazy determinization with an explicit
// per-automaton cached-transition cap. n > 0 caps the cache at n
// transitions, evicting (and later re-deriving) beyond it — smaller
// budgets bound memory on adversarial inputs at the cost of re-derivation.
// n == 0 means unlimited: nothing is ever evicted, following the
// package-wide "zero disables the bound" convention (MaxRecordBytes,
// RecordTimeout). For the default bound without naming a number, use
// WithLazyDeterminization alone.
//
// A negative budget is invalid: the engine records a typed *OptionError
// that every subsequent CompileQuery/CompileXPath call returns, instead of
// compiling under silently reinterpreted semantics.
func WithLazyTransitionBudget(n int) EngineOption {
	return func(e *Engine) {
		if n < 0 {
			e.optErr = &OptionError{Option: "WithLazyTransitionBudget",
				Reason: fmt.Sprintf("negative budget %d (0 means unlimited)", n)}
			return
		}
		e.copts.LazyDeterminize = true
		if n == 0 {
			// The internal representation of "no bound" (ha.LazyOptions
			// treats 0 as "pick the default").
			n = -1
		}
		e.copts.LazyTransitionBudget = n
	}
}

// snapshot returns the shared frozen alphabet clone for the current
// generation (cloning at most once per generation). Compilations only ever
// perform idempotent interns against it — every fresh name is published to
// the live alphabet before the snapshot is taken — so the clone is
// effectively immutable and safe to share across concurrent compiles.
func (e *Engine) snapshot() (*ha.Names, uint64) {
	gen := e.names.Generation()
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	if e.snap == nil || e.snapGen != gen {
		e.snap = e.names.Clone()
		// A concurrent intern during Clone may have slipped extra names in;
		// the clone's own generation is exact for its contents.
		e.snapGen = e.snap.Generation()
	}
	return e.snap, e.snapGen
}

// NewEngine returns an empty engine. Options select engine-wide compilation
// behavior, e.g. NewEngine(xpe.WithLazyDeterminization()).
func NewEngine(opts ...EngineOption) *Engine {
	e := &Engine{names: ha.NewNames(), metrics: &metrics.Metrics{}}
	e.cache = newCompiledCache(compiledCacheCap, &e.metrics.Cache)
	for _, o := range opts {
		o(e)
	}
	return e
}

// Document is a parsed XML document or hedge.
type Document struct {
	eng   *Engine
	hedge hedge.Hedge
}

// ParseXML reads an XML document. Failures are reported as *ParseError.
func (e *Engine) ParseXML(r io.Reader) (*Document, error) {
	h, err := xmlhedge.Parse(r, xmlhedge.Options{})
	if err != nil {
		return nil, wrapParseErr(err, "")
	}
	return e.adopt(h), nil
}

// ParseXMLString reads an XML document from a string. Failures are
// reported as *ParseError carrying the offending line.
func (e *Engine) ParseXMLString(s string) (*Document, error) {
	h, err := xmlhedge.ParseString(s, xmlhedge.Options{})
	if err != nil {
		return nil, wrapParseErr(err, s)
	}
	return e.adopt(h), nil
}

// ParseTerm reads a document in the paper's term syntax (see
// internal/hedge): "doc<sec<fig tab>>", with $x for variables. Failures
// are reported as *ParseError.
func (e *Engine) ParseTerm(s string) (*Document, error) {
	h, err := hedge.Parse(s)
	if err != nil {
		return nil, wrapParseErr(err, s)
	}
	return e.adopt(h), nil
}

// FromHedge adopts an already-built hedge as a document (the hedge is
// shared, not copied; callers must not mutate it afterwards).
func (e *Engine) FromHedge(h hedge.Hedge) *Document { return e.adopt(h) }

// adopt interns the document's alphabet and wraps it.
func (e *Engine) adopt(h hedge.Hedge) *Document {
	syms, vars, _ := h.Labels()
	for _, s := range syms {
		e.names.Syms.Intern(s)
	}
	for _, v := range vars {
		e.names.Vars.Intern(v)
	}
	return &Document{eng: e, hedge: h}
}

// Hedge exposes the underlying hedge (shared, do not mutate).
func (d *Document) Hedge() hedge.Hedge { return d.hedge }

// Size returns the node count.
func (d *Document) Size() int { return d.hedge.Size() }

// Term renders the document in term syntax.
func (d *Document) Term() string { return d.hedge.String() }

// XML serializes the document back to XML.
func (d *Document) XML() (string, error) { return xmlhedge.ToString(d.hedge) }

// Query is a compiled selection query. It may be shared across goroutines:
// the underlying compiled automata are replaced atomically when the
// engine's alphabet outgrows them (see Engine and CompileQuery on
// generation tracking).
type Query struct {
	eng  *Engine
	src  string
	kind byte // kindQuery or kindXPath: which pipeline recompiles src
	cq   atomic.Pointer[core.CompiledQuery]
}

// compiled returns the query's automata, revalidated against the engine's
// current alphabet generation. The unchanged-generation fast path is two
// atomic loads and a compare; on mismatch the source is recompiled through
// the engine cache (so repeat revalidations and sibling Query objects with
// the same source share one recompile) and the fresh compilation is
// installed for the next caller. Recompilation of a source that compiled
// once cannot fail short of a racing alphabet change; if it somehow does,
// the previous compilation is kept — stale automata answer exactly as the
// documented pre-generation-tracking semantics did.
func (q *Query) compiled() *core.CompiledQuery {
	cq := q.cq.Load()
	gen := q.eng.names.Generation()
	if cq.Gen == gen {
		return cq
	}
	ncq, err := q.eng.compileThroughCache(q.kind, q.src, gen)
	if err != nil {
		return cq
	}
	q.cq.Store(ncq)
	return ncq
}

// compileThroughCache resolves (kind, src) at the given alphabet
// generation via the engine's LRU cache, compiling on miss. A first
// compile of a source with fresh labels advances the generation while
// compiling; the result is additionally aliased under its post-compile
// generation so the very next same-source compile is a hit.
func (e *Engine) compileThroughCache(kind byte, src string, gen uint64) (*core.CompiledQuery, error) {
	cq, err := e.cache.get(cacheKey{kind: kind, gen: gen, src: src}, func() (*core.CompiledQuery, error) {
		cq, err := e.compileSource(kind, src)
		if err != nil {
			return nil, err
		}
		cq.SetMetrics(&e.metrics.Eval)
		return cq, nil
	})
	if err == nil && cq.Gen != gen {
		e.cache.put(cacheKey{kind: kind, gen: cq.Gen, src: src}, cq)
	}
	return cq, err
}

// compileSource runs the parse/translate-and-compile pipeline for one
// query source. The query's own names are published to the live alphabet
// first; the automata are then built against the shared frozen snapshot of
// the current generation, so a concurrent ParseXML can never resize the
// alphabet mid-construction. XPath sources re-translate on every compile:
// the translation itself enumerates the interned alphabet ('//' expands
// per label), so recompiling under a grown alphabet yields a genuinely
// wider query, not just wider automata.
func (e *Engine) compileSource(kind byte, src string) (*core.CompiledQuery, error) {
	switch kind {
	case kindXPath:
		p, err := xpath.Parse(src)
		if err != nil {
			return nil, wrapCompileErr(err, src)
		}
		// The translation enumerates the live alphabet, so re-translate
		// until the generation holds still across enumerate + pre-intern:
		// the stamp then covers exactly the labels the translation saw.
		for attempt := 0; ; attempt++ {
			genA := e.names.Generation()
			var vars []string
			for _, v := range e.names.Vars.Names() {
				if len(v) > 0 && v[0] != '\x00' {
					vars = append(vars, v)
				}
			}
			q, err := xpath.Translate(p, e.names.Syms.Names(), vars)
			if err != nil {
				return nil, wrapCompileErr(err, src)
			}
			// Translation emits one base per label per '//' level; the
			// optimizer (base unification + canonicalization) collapses the
			// duplicates.
			q.Envelope = core.Optimize(q.Envelope)
			core.PreinternQuery(q, e.names)
			if e.names.Generation() != genA && attempt < 2 {
				continue // fresh names appeared; re-translate over them
			}
			snap, _ := e.snapshot()
			cq, err := core.CompileQueryOpt(q, snap, e.copts)
			if err != nil {
				return nil, wrapCompileErr(err, src)
			}
			return cq, nil
		}
	default: // kindQuery
		q, err := core.ParseQuery(src)
		if err != nil {
			return nil, wrapCompileErr(err, src)
		}
		core.PreinternQuery(q, e.names)
		snap, _ := e.snapshot()
		cq, err := core.CompileQueryOpt(q, snap, e.copts)
		if err != nil {
			return nil, wrapCompileErr(err, src)
		}
		return cq, nil
	}
}

// newQuery wraps a compiled core query in the facade type.
func (e *Engine) newQuery(kind byte, src string, cq *core.CompiledQuery) *Query {
	q := &Query{eng: e, src: src, kind: kind}
	q.cq.Store(cq)
	return q
}

// CompileQuery parses and compiles a selection query. Two forms:
//
//	phr                      — locate nodes whose envelope matches the
//	                           pointed hedge representation
//	select(e1; phr)          — additionally require the node's subhedge to
//	                           match the hedge regular expression e1
//
// A pointed hedge representation is a regular expression (| , * + ? and
// parentheses) over pointed base hedge representations:
//
//	[e1 ; label ; e2]  — elder siblings (and their subtrees) match e1, the
//	                     node is labeled label, younger siblings match e2;
//	                     '*' for either side means "any hedge"
//	label              — sugar for [* ; label ; *]
//
// Per Definition 19 of the paper the sequence reads from the node's own
// level UP to the top level: "fig sec* [* ; doc ; *]" locates fig nodes
// under a chain of sec nodes under a doc root.
//
// Hedge regular expressions (the sides and e1) use the internal/hre
// syntax: labels build elements (a, a<...>), $x variables, '.' any hedge,
// a<~z> substitution targets with e^z vertical closure and e1 %z e2
// embedding.
//
// Compile order does not matter: '.' and schema products are closed-world
// over the engine's interned alphabet, but the compiled query is stamped
// with the alphabet generation it ranges over and every evaluation entry
// point revalidates the stamp. Parsing a document with fresh labels after
// compiling simply makes the query's next evaluation recompile — once,
// through the engine's bounded LRU cache (repeat evaluations at the same
// generation, and other queries with the same source, are cache hits).
// The recompile costs what CompileQuery cost; the unchanged-generation
// fast path costs two atomic loads. Stats().Cache reports hits, misses,
// and evictions.
func (e *Engine) CompileQuery(src string) (*Query, error) {
	if e.optErr != nil {
		return nil, e.optErr
	}
	cq, err := e.compileThroughCache(kindQuery, src, e.names.Generation())
	if err != nil {
		return nil, err
	}
	return e.newQuery(kindQuery, src, cq), nil
}

// String returns the query source.
func (q *Query) String() string { return q.src }

// Match is one located node.
type Match struct {
	// Path is the Dewey address of the node (1-based, dot-separated).
	Path string
	// Term is the located subtree in term syntax.
	Term string
	// Node is the located node within the document's hedge.
	Node *hedge.Node
	// Explanation is the match's provenance, present only when the run
	// requested it (SelectOptions.Explain). It is freshly allocated and
	// safe to retain even where Node is not.
	Explanation *Explanation
}

// Matches runs the query against a document using Algorithm 1 (two
// depth-first traversals; time linear in the document size) and returns a
// range-over-func iterator over the located nodes in document order.
// Breaking out of the loop stops the underlying walk — no match slice is
// materialized, and nodes after the break point are never visited by the
// second traversal. The iterator is rewindable: ranging again re-evaluates
// the query.
func (q *Query) Matches(d *Document) iter.Seq[Match] {
	return func(yield func(Match) bool) {
		fr := q.eng.recorder.Load()
		var t0 time.Time
		if fr != nil {
			t0 = time.Now()
		}
		matches := 0
		q.compiled().SelectEach(d.hedge, func(p hedge.Path, n *hedge.Node) bool {
			matches++
			return yield(Match{Path: p.String(), Term: n.String(), Node: n})
		})
		if fr != nil {
			fr.commitDoc(q.src, int64(time.Since(t0)), d.Size(), matches)
		}
	}
}

// Select is Matches materialized: the located nodes in document order.
// Engine.Select is the form under a context and options.
func (q *Query) Select(d *Document) []Match { return slices.Collect(q.Matches(d)) }

// Binding is one captured variable of a match.
type Binding struct {
	Name string
	Path string
	Term string
}

// BoundMatch is a match with its captured variables (bases written with a
// '@name' suffix, e.g. "fig sec@s* [* ; doc ; *]@d").
type BoundMatch struct {
	Match
	Bindings []Binding
}

// SelectBindings is Select with variable capture (the paper's Section 9
// extension): each match carries the ancestors bound by named bases. When
// the envelope is ambiguous one successful match per node is chosen; use
// UniqueBindings to check up front.
func (q *Query) SelectBindings(d *Document) []BoundMatch {
	ms := q.compiled().SelectBindings(d.hedge)
	out := make([]BoundMatch, 0, len(ms))
	for _, m := range ms {
		bm := BoundMatch{Match: Match{Path: m.Path.String(), Term: m.Node.String(), Node: m.Node}}
		for name, p := range m.BindingPaths {
			bm.Bindings = append(bm.Bindings, Binding{Name: name, Path: p.String(), Term: m.Bindings[name].String()})
		}
		sortBindings(bm.Bindings)
		out = append(out, bm)
	}
	return out
}

func sortBindings(bs []Binding) {
	for i := 1; i < len(bs); i++ {
		for j := i; j > 0 && bs[j-1].Name > bs[j].Name; j-- {
			bs[j-1], bs[j] = bs[j], bs[j-1]
		}
	}
}

// UniqueBindings reports (conservatively) whether every match determines
// its bindings uniquely.
func (q *Query) UniqueBindings() bool { return q.compiled().HasUniqueBindings() }

// Schema is a compiled schema. Like Query it is generation-stamped: a
// grammar-backed schema reparses itself when the engine's alphabet has
// grown since compilation, so its completed automata (and the products
// Transform* builds from them) always range over the current alphabet.
// Schemas returned by Transform* carry no grammar source and stay closed
// over the alphabet at transformation time.
type Schema struct {
	eng   *Engine
	src   string // grammar source; "" for derived (transformation) schemas
	state atomic.Pointer[schemaState]
}

// schemaState pairs a compiled schema with the alphabet generation it was
// compiled against; the pair is replaced atomically so concurrent readers
// never observe a stamp from one compilation with automata from another.
type schemaState struct {
	gen uint64
	s   *schema.Schema
}

// ParseSchema parses a grammar in the internal/schema syntax:
//
//	start = doc
//	element doc { (sec | par)* }
//	define deepsec = element sec { ... }   — classes may share labels
//	element par { text* }
//
// Like CompileQuery, compile order is not semantics: the schema revalidates
// against the alphabet generation at each use and reparses when stale.
func (e *Engine) ParseSchema(src string) (*Schema, error) {
	st, err := e.compileSchema(src)
	if err != nil {
		return nil, err
	}
	sc := &Schema{eng: e, src: src}
	sc.state.Store(st)
	return sc, nil
}

// compileSchema parses the grammar in two passes. The discovery pass runs
// against a private clone of the alphabet, so the first compile of a
// grammar with fresh labels cannot mutate anything shared; the labels it
// finds are published to the live alphabet. The real pass then builds the
// automata against the shared frozen snapshot of the current generation —
// at that point every grammar name is interned, so the parse performs only
// idempotent lookups and the snapshot stays immutable. The stamp is exact
// when no concurrent intern raced the snapshot, and conservatively stale
// (forcing one later revalidation) when one did.
func (e *Engine) compileSchema(src string) (*schemaState, error) {
	probe := e.names.Clone()
	if _, err := schema.ParseGrammar(src, probe); err != nil {
		return nil, wrapCompileErr(err, src)
	}
	for _, a := range probe.Syms.Names() {
		e.names.Syms.Intern(a)
	}
	for _, v := range probe.Vars.Names() {
		e.names.Vars.Intern(v)
	}
	for attempt := 0; ; attempt++ {
		snap, gen := e.snapshot()
		s, err := schema.ParseGrammar(src, snap)
		if err != nil {
			return nil, wrapCompileErr(err, src)
		}
		if snap.Generation() == gen || attempt >= 2 {
			return &schemaState{gen: gen, s: s}, nil
		}
		// Paranoia: the parse interned a name discovery missed. Publish it
		// and go around with a fresh snapshot.
		for _, a := range snap.Syms.Names() {
			e.names.Syms.Intern(a)
		}
		for _, v := range snap.Vars.Names() {
			e.names.Vars.Intern(v)
		}
	}
}

// compiled returns the schema's automata revalidated against the current
// alphabet generation, reparsing the grammar on mismatch. Derived schemas
// (no grammar source) are returned as compiled.
func (s *Schema) compiled() *schema.Schema {
	st := s.state.Load()
	if s.src == "" {
		return st.s
	}
	gen := s.eng.names.Generation()
	if st.gen == gen {
		return st.s
	}
	nst, err := s.eng.compileSchema(s.src)
	if err != nil {
		return st.s
	}
	s.state.Store(nst)
	return nst.s
}

// Validate reports whether the document conforms to the schema.
func (s *Schema) Validate(d *Document) bool {
	return s.compiled().DHA.Accepts(d.hedge)
}

// ValidateHedge reports whether a raw hedge conforms to the schema.
func (s *Schema) ValidateHedge(h hedge.Hedge) bool { return s.compiled().DHA.Accepts(h) }

// derivedSchema wraps a transformation result, stamped with the current
// generation but carrying no source to revalidate from.
func (e *Engine) derivedSchema(out *schema.Schema) *Schema {
	sc := &Schema{eng: e}
	sc.state.Store(&schemaState{gen: e.names.Generation(), s: out})
	return sc
}

// ResultShape selects what TransformSelect's output schema describes.
type ResultShape = schema.ResultShape

// Result shapes.
const (
	Subhedges = schema.Subhedges
	Subtrees  = schema.Subtrees
)

// resolvePair resolves the schema and the query against the current
// alphabet generation for a product construction. Both normally land on
// the same shared snapshot; a derived schema pinned to an older snapshot
// is rebased onto the query's newer one (legal because snapshots of one
// engine extend each other — the extension labels fall to the rebased
// automaton's sink, preserving its closed world).
func (s *Schema) resolvePair(q *Query) (*schema.Schema, *core.CompiledQuery) {
	sc, cqc := s.compiled(), q.compiled()
	for i := 0; i < 2 && sc.Names != cqc.Names; i++ {
		sc, cqc = s.compiled(), q.compiled()
	}
	if sc.Names != cqc.Names {
		if r := schema.Rebase(sc, cqc.Names); r != nil {
			sc = r
		}
	}
	return sc, cqc
}

// harmonizeSchemas rebases whichever schema was compiled against the older
// alphabet snapshot onto the newer one, so comparisons run over one shared
// Names.
func harmonizeSchemas(a, b *schema.Schema) (*schema.Schema, *schema.Schema) {
	if a.Names == b.Names {
		return a, b
	}
	if r := schema.Rebase(a, b.Names); r != nil {
		return r, b
	}
	if r := schema.Rebase(b, a.Names); r != nil {
		return a, r
	}
	return a, b
}

// TransformSelect computes the output schema of the query over this input
// schema (Section 8): the language of results the query can produce on any
// conforming document. Both the schema and the query are revalidated
// against the current alphabet generation first, so the product is built
// from automata over one consistent closed world; the result is a derived
// schema, closed over the alphabet as of this call.
func (s *Schema) TransformSelect(q *Query, shape ResultShape) (*Schema, error) {
	sc, cqc := s.resolvePair(q)
	out, err := schema.TransformSelect(sc, cqc, shape)
	if err != nil {
		return nil, err
	}
	return s.eng.derivedSchema(out), nil
}

// TransformDelete computes the output schema of deleting every node the
// query locates, over this input schema.
func (s *Schema) TransformDelete(q *Query) (*Schema, error) {
	sc, cqc := s.resolvePair(q)
	out, err := schema.TransformDelete(sc, cqc)
	if err != nil {
		return nil, err
	}
	return s.eng.derivedSchema(out), nil
}

// TransformRename computes the output schema of renaming every located
// node to newLabel over this input schema. A fresh newLabel is interned
// (advancing the generation) before the schema and query are resolved, so
// the product's closed world contains it.
func (s *Schema) TransformRename(q *Query, newLabel string) (*Schema, error) {
	s.eng.names.Syms.Intern(newLabel)
	sc, cqc := s.resolvePair(q)
	out, err := schema.TransformRename(sc, cqc, newLabel)
	if err != nil {
		return nil, err
	}
	return s.eng.derivedSchema(out), nil
}

// EquivalentTo reports whether both schemas accept the same documents.
func (s *Schema) EquivalentTo(other *Schema) (bool, error) {
	a, b := harmonizeSchemas(s.compiled(), other.compiled())
	return schema.Equivalent(a, b)
}

// Includes reports whether every document of other conforms to s.
func (s *Schema) Includes(other *Schema) (bool, error) {
	a, b := harmonizeSchemas(s.compiled(), other.compiled())
	return schema.Includes(a, b)
}

// Delete returns a copy of the document with every located subtree
// removed (the document-level counterpart of TransformDelete).
func (q *Query) Delete(d *Document) *Document {
	res := q.compiled().Select(d.hedge)
	return &Document{eng: d.eng, hedge: d.hedge.RemoveNodes(res.Located)}
}

// Rename returns a copy of the document with every located node relabeled
// to newLabel (the document-level counterpart of TransformRename). A fresh
// newLabel is interned, advancing the alphabet generation: queries and
// schemas compiled earlier transparently recompile at their next use.
func (q *Query) Rename(d *Document, newLabel string) *Document {
	res := q.compiled().Select(d.hedge)
	d.eng.names.Syms.Intern(newLabel)
	return &Document{eng: d.eng, hedge: d.hedge.RenameNodes(res.Located, newLabel)}
}

// CompileXPath translates an XPath location path from the supported
// fragment (see internal/xpath.Translate) into a selection query over the
// engine's interned alphabet and compiles it. It demonstrates the paper's
// Section 2 point that XPath's sibling-aware path core embeds into
// extended path expressions.
//
// The translation enumerates the interned alphabet ('//' expands per
// label), so it is even more generation-sensitive than query compilation;
// like CompileQuery the result is stamped and transparently re-translated
// and recompiled when evaluated after the alphabet has grown.
func (e *Engine) CompileXPath(src string) (*Query, error) {
	if e.optErr != nil {
		return nil, e.optErr
	}
	cq, err := e.compileThroughCache(kindXPath, src, e.names.Generation())
	if err != nil {
		return nil, err
	}
	return e.newQuery(kindXPath, src, cq), nil
}

// Internal accessors used by the benchmark harness and cmd tools.

// Names exposes the engine's interners.
func (e *Engine) Names() *ha.Names { return e.names }

// Compiled exposes the compiled core query, revalidated against the
// current alphabet generation exactly as the evaluation entry points do.
func (q *Query) Compiled() *core.CompiledQuery { return q.compiled() }

// Underlying exposes the compiled schema, revalidated like Validate does.
func (s *Schema) Underlying() *schema.Schema { return s.compiled() }
