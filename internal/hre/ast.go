// Package hre implements hedge regular expressions (Section 4 of the
// paper, Definitions 9–12): regular expressions generating hedges, with two
// sets of concatenation/closure operators — horizontal (sequence
// concatenation and Kleene star) and vertical (embedding at substitution
// symbols ∘z and the vertical closure e^z).
//
// The package provides an AST with parser and printer, a bounded
// enumerative semantics used as a test oracle, the compilation of hedge
// regular expressions to non-deterministic hedge automata (Lemma 1, all ten
// cases), and the reverse conversion from hedge automata to hedge regular
// expressions (Lemma 2).
//
// Concrete syntax (whitespace- or comma-separated concatenation):
//
//	e := '$'NAME            — variable leaf x ∈ X
//	   | NAME               — element a⟨ε⟩
//	   | NAME '<' e '>'     — element a⟨e⟩
//	   | NAME '<~' NAME '>' — substitution target a⟨z⟩
//	   | e e | e ',' e      — horizontal concatenation
//	   | e '|' e            — alternation
//	   | e '*' | e '+' | e '?'
//	   | e '^' NAME         — vertical closure e^z
//	   | e '%' NAME e       — embedding e₁ ∘z e₂
//	   | '(' e ')' | '()'   — grouping, ε
//
// The paper's example a⟨z⟩*^z (all hedges over symbol a, with substitution
// symbols z) is written "a<~z>*^z".
package hre

import "strings"

// Kind discriminates HRE nodes.
type Kind int

// HRE node kinds, covering the ten forms of Definition 11.
const (
	KEmpty  Kind = iota // ∅
	KEps                // ε
	KVar                // x ∈ X
	KElem               // a⟨e⟩ (a⟨ε⟩ when Sub is ε)
	KCat                // e₁e₂
	KAlt                // e₁|e₂
	KStar               // e*
	KSubst              // a⟨z⟩
	KEmbed              // e₁ ∘z e₂
	KVClose             // e^z
	KAny                // '.' — any hedge over the alphabet known at compile time
)

// Expr is a hedge-regular-expression node. Expressions are immutable after
// construction.
type Expr struct {
	Kind Kind
	Name string  // KVar: variable; KElem/KSubst: element label
	Z    string  // KSubst/KEmbed/KVClose: substitution symbol
	Subs []*Expr // children (KElem: 1, KCat/KAlt/KEmbed: 2+, KStar/KVClose: 1)
}

// Constructors.

// Empty returns ∅.
func Empty() *Expr { return &Expr{Kind: KEmpty} }

// Eps returns ε.
func Eps() *Expr { return &Expr{Kind: KEps} }

// Var returns the variable expression x.
func Var(name string) *Expr { return &Expr{Kind: KVar, Name: name} }

// Any returns the '.' expression: any hedge over the alphabet interned at
// compile time (a closed-world convenience; it desugars to AnyHedge).
func Any() *Expr { return &Expr{Kind: KAny} }

// Elem returns a⟨e⟩.
func Elem(name string, sub *Expr) *Expr {
	return &Expr{Kind: KElem, Name: name, Subs: []*Expr{sub}}
}

// Leaf returns a⟨ε⟩.
func Leaf(name string) *Expr { return Elem(name, Eps()) }

// Subst returns a⟨z⟩, the substitution target.
func Subst(name, z string) *Expr { return &Expr{Kind: KSubst, Name: name, Z: z} }

// Cat concatenates horizontally (ε when empty).
func Cat(subs ...*Expr) *Expr {
	switch len(subs) {
	case 0:
		return Eps()
	case 1:
		return subs[0]
	}
	return &Expr{Kind: KCat, Subs: subs}
}

// Alt alternates (∅ when empty).
func Alt(subs ...*Expr) *Expr {
	switch len(subs) {
	case 0:
		return Empty()
	case 1:
		return subs[0]
	}
	return &Expr{Kind: KAlt, Subs: subs}
}

// Star returns e*.
func Star(e *Expr) *Expr { return &Expr{Kind: KStar, Subs: []*Expr{e}} }

// Plus returns ee*.
func Plus(e *Expr) *Expr { return Cat(e, Star(e)) }

// Opt returns e|ε.
func Opt(e *Expr) *Expr { return Alt(e, Eps()) }

// Embed returns e₁ ∘z e₂ (replace every z in hedges of e₂ by hedges of e₁).
func Embed(e1 *Expr, z string, e2 *Expr) *Expr {
	return &Expr{Kind: KEmbed, Z: z, Subs: []*Expr{e1, e2}}
}

// VClose returns e^z, the vertical closure at z.
func VClose(e *Expr, z string) *Expr {
	return &Expr{Kind: KVClose, Z: z, Subs: []*Expr{e}}
}

// AnyHedge returns an expression generating every hedge over the given
// symbols and variables: (a₁⟨z⟩|…|aₙ⟨z⟩|x₁|…|xₘ)*^z for a fresh z. This is
// the "no condition" building block of pointed hedge representations (a
// path expression is a PHR whose sibling expressions generate all hedges).
func AnyHedge(syms, vars []string) *Expr {
	const z = AnySubst
	subs := make([]*Expr, 0, len(syms)+len(vars))
	for _, a := range syms {
		subs = append(subs, Subst(a, z))
	}
	for _, x := range vars {
		subs = append(subs, Var(x))
	}
	if len(subs) == 0 {
		return Eps()
	}
	return VClose(Star(Alt(subs...)), z)
}

// String renders the expression in the package's concrete syntax.
func (e *Expr) String() string {
	var b strings.Builder
	e.render(&b, 0)
	return b.String()
}

// precedence: 0 alt, 1 embed, 2 cat, 3 postfix/atom
func (e *Expr) render(b *strings.Builder, prec int) {
	switch e.Kind {
	case KEmpty:
		b.WriteString("[]")
	case KEps:
		b.WriteString("()")
	case KVar:
		b.WriteByte('$')
		b.WriteString(e.Name)
	case KElem:
		b.WriteString(e.Name)
		if e.Subs[0].Kind != KEps {
			b.WriteByte('<')
			e.Subs[0].render(b, 0)
			b.WriteByte('>')
		}
	case KSubst:
		b.WriteString(e.Name)
		b.WriteString("<~")
		b.WriteString(e.Z)
		b.WriteByte('>')
	case KCat:
		if prec > 2 {
			b.WriteByte('(')
		}
		for i, s := range e.Subs {
			if i > 0 {
				b.WriteByte(' ')
			}
			s.render(b, 3)
		}
		if prec > 2 {
			b.WriteByte(')')
		}
	case KAlt:
		if prec > 0 {
			b.WriteByte('(')
		}
		for i, s := range e.Subs {
			if i > 0 {
				b.WriteString(" | ")
			}
			s.render(b, 1)
		}
		if prec > 0 {
			b.WriteByte(')')
		}
	case KStar:
		e.Subs[0].render(b, 3)
		b.WriteByte('*')
	case KEmbed:
		if prec > 1 {
			b.WriteByte('(')
		}
		e.Subs[0].render(b, 2)
		b.WriteString(" %")
		b.WriteString(e.Z)
		b.WriteByte(' ')
		e.Subs[1].render(b, 2)
		if prec > 1 {
			b.WriteByte(')')
		}
	case KVClose:
		e.Subs[0].render(b, 3)
		b.WriteByte('^')
		b.WriteString(e.Z)
	case KAny:
		b.WriteByte('.')
	}
}

// Walk visits every node of the expression tree in pre-order.
func (e *Expr) Walk(fn func(*Expr)) {
	fn(e)
	for _, s := range e.Subs {
		s.Walk(fn)
	}
}

// MentionsAny reports whether the expression contains '.', the one
// construct whose language depends on the alphabet interned when it is
// compiled: any other expression sends a label it does not mention to the
// automaton's sink, whenever that label was interned.
func (e *Expr) MentionsAny() bool {
	if e.Kind == KAny {
		return true
	}
	for _, s := range e.Subs {
		if s.MentionsAny() {
			return true
		}
	}
	return false
}

// AnySubst is the reserved substitution symbol '.' desugars through (see
// AnyHedge). The NUL prefix keeps it outside the user-writable namespace.
const AnySubst = "\x00any"

// Names returns the distinct Σ labels, variables, and substitution symbols
// mentioned in the expression. A '.' node mentions AnySubst: desugaring
// routes it through that reserved substitution symbol, so callers that
// pre-intern an expression's alphabet (to pin a generation before building
// automata) see every name Compile will intern.
func (e *Expr) Names() (syms, vars, substs []string) {
	ss, sv, sz := map[string]bool{}, map[string]bool{}, map[string]bool{}
	e.Walk(func(x *Expr) {
		switch x.Kind {
		case KElem, KSubst:
			if !ss[x.Name] {
				ss[x.Name] = true
				syms = append(syms, x.Name)
			}
		case KVar:
			if !sv[x.Name] {
				sv[x.Name] = true
				vars = append(vars, x.Name)
			}
		case KAny:
			if !sz[AnySubst] {
				sz[AnySubst] = true
				substs = append(substs, AnySubst)
			}
		}
		if x.Z != "" && !sz[x.Z] {
			sz[x.Z] = true
			substs = append(substs, x.Z)
		}
	})
	return syms, vars, substs
}
