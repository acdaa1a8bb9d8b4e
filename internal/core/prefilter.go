package core

import (
	"sort"
	"strconv"
	"strings"

	"xpe/internal/hre"
	"xpe/internal/sre"
)

// Required-label extraction: the compile-time half of the prefilter
// cascade. RequiredLabels computes a set of element labels every matching
// record must contain — a conjunctive lower bound on the query, in the
// spirit of the literal prefilters of structural grep tools. The splitter
// checks the set with a raw byte skim (xmlhedge.Prefilter) and skips
// parse+eval for records that cannot match.
//
// Soundness: for any located node, some accepted word of the PHR's
// top-level expression assigns one base per spine node. Each base in the
// word requires its own label at that spine node (candidate sets test label
// equality) and its side expressions to match the actual sibling hedges —
// so the labels required by every accepted word are present in the record.
// The set computed here is the intersection over accepted words of the
// union of per-base requirements, approximated structurally:
//
//	req(t_i)  = {label_i} ∪ req(left_i) ∪ req(right_i)
//	req(e₁e₂) = req(e₁) ∪ req(e₂)
//	req(e₁|e₂)= req(e₁) ∩ req(e₂)
//	req(e*) = req(.) = req(ε) = ∅
//
// and over hedge expressions:
//
//	req(a⟨e⟩)   = {a} ∪ req(e)
//	req(a⟨z⟩)   = {a}
//	req(e₁ ∘z e₂) = req(e₂)   (e₂ is the outer template: its elements
//	                           survive substitution, e₁ may never appear)
//	req(e^z)    = req(e)      (every hedge of the closure has an outermost
//	                           layer from e)
//
// with union over concatenation, intersection over alternation, and ∅ for
// stars, variables, '.', ε, and ∅ (weak but sound: an empty set just
// disables the prefilter). The subhedge expression e₁ of select(e₁; phr)
// contributes its requirements too — the located node's children must
// match it.

// RequiredLabels returns the sorted set of element labels without which the
// query cannot match any record. An empty set means the prefilter has
// nothing to work with (the query may match label-free records).
//
// The set is derived on first use and shared by every later call: callers
// must not modify the returned slice. Racing first uses derive one each and
// keep the first stored.
func (cq *CompiledQuery) RequiredLabels() []string {
	if req := cq.required.Load(); req != nil {
		return *req
	}
	req := requiredLabelsOf(cq.phr.PHR, cq.subExpr)
	cq.required.CompareAndSwap(nil, &req)
	return *cq.required.Load()
}

// RequiredLabelsOf is the query-level extraction without compilation, used
// by callers that want the prefilter for an uncompiled query.
func RequiredLabelsOf(q *Query) []string {
	return requiredLabelsOf(q.Envelope, q.Subhedge)
}

func requiredLabelsOf(phr *PHR, sub *hre.Expr) []string {
	req := reqSre(phr.Expr, phr)
	for l := range reqHre(sub) {
		req[l] = true
	}
	out := make([]string, 0, len(req))
	for l := range req {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

type labelSet map[string]bool

func (s labelSet) union(o labelSet) labelSet {
	if len(o) == 0 {
		return s
	}
	if len(s) == 0 {
		return o
	}
	for l := range o {
		s[l] = true
	}
	return s
}

func intersect(a, b labelSet) labelSet {
	if len(a) > len(b) {
		a, b = b, a
	}
	out := labelSet{}
	for l := range a {
		if b[l] {
			out[l] = true
		}
	}
	return out
}

// reqSre computes the requirement set of the PHR's top-level expression
// over base symbols t0, t1, ….
func reqSre(e *sre.Expr, phr *PHR) labelSet {
	if e == nil {
		return labelSet{}
	}
	switch e.Kind {
	case sre.KSym:
		i, ok := baseIndex(e.Name)
		if !ok || i >= len(phr.Bases) {
			return labelSet{}
		}
		b := phr.Bases[i]
		req := labelSet{b.Label: true}
		return req.union(reqHre(b.Left)).union(reqHre(b.Right))
	case sre.KCat:
		req := labelSet{}
		for _, s := range e.Subs {
			req = req.union(reqSre(s, phr))
		}
		return req
	case sre.KAlt:
		req := reqSre(e.Subs[0], phr)
		for _, s := range e.Subs[1:] {
			req = intersect(req, reqSre(s, phr))
		}
		return req
	default:
		// ε, ∅, '.', and starred subexpressions guarantee nothing.
		return labelSet{}
	}
}

// reqHre computes the requirement set of a hedge regular expression: labels
// present in every hedge of its language.
func reqHre(e *hre.Expr) labelSet {
	if e == nil {
		return labelSet{}
	}
	switch e.Kind {
	case hre.KElem:
		return labelSet{e.Name: true}.union(reqHre(e.Subs[0]))
	case hre.KSubst:
		return labelSet{e.Name: true}
	case hre.KCat:
		req := labelSet{}
		for _, s := range e.Subs {
			req = req.union(reqHre(s))
		}
		return req
	case hre.KAlt:
		req := reqHre(e.Subs[0])
		for _, s := range e.Subs[1:] {
			req = intersect(req, reqHre(s))
		}
		return req
	case hre.KEmbed:
		// e₁ ∘z e₂ replaces z-contents of e₂'s hedges by hedges of e₁: the
		// elements of the outer template e₂ all survive; e₁ may not appear
		// at all (when e₂ has no z).
		return reqHre(e.Subs[1])
	case hre.KVClose:
		// Every hedge of e^z has an outermost layer drawn from e (with
		// z-contents substituted), so e's element requirements survive.
		return reqHre(e.Subs[0])
	default:
		// ε, ∅, variables, '.', and starred subexpressions guarantee
		// nothing.
		return labelSet{}
	}
}

// baseIndex parses the base symbol "t<i>" minted by baseSymbol.
func baseIndex(name string) (int, bool) {
	if !strings.HasPrefix(name, "t") {
		return 0, false
	}
	i, err := strconv.Atoi(name[1:])
	if err != nil || i < 0 {
		return 0, false
	}
	return i, true
}
