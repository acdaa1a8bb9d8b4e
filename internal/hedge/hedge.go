// Package hedge implements the hedge data model of the paper (Definitions
// 1–2): hedges are ordered sequences of ordered trees whose non-leaf nodes
// are labeled with symbols of an alphabet Σ and whose leaf nodes are labeled
// with variables of a set X. Hedges may additionally contain substitution
// symbols (Definition 9), which occur only as sole children of elements;
// the distinguished substitution symbol η makes a hedge pointed (Definition
// 13).
//
// The package provides the ceil operation, Dewey addressing, subhedge and
// envelope extraction (Definition 21), the pointed-hedge product ⊕
// (Definition 14, Figure 1), and the unique decomposition of pointed hedges
// into pointed base hedges (Figure 2).
package hedge

import (
	"fmt"
	"strconv"
	"strings"
)

// NodeKind discriminates hedge nodes.
type NodeKind int

const (
	// Elem is a non-leaf node a⟨u⟩ labeled with a symbol of Σ (u may be ε).
	Elem NodeKind = iota
	// Var is a leaf node labeled with a variable of X.
	Var
	// Subst is a substitution-symbol leaf; it only occurs as the sole
	// child of an Elem node.
	Subst
)

// Eta is the name of the distinguished substitution symbol η of pointed
// hedges.
const Eta = "η"

// TextVar is the conventional variable name for text leaves produced by
// the XML bridge (package xmlhedge) and consumed by schema grammars (the
// "text" builtin).
const TextVar = "#text"

// Node is a single hedge node. Elem nodes own a child hedge; Var and Subst
// nodes are leaves.
type Node struct {
	Kind     NodeKind
	Name     string
	Children Hedge // Elem only
	// Text carries the character data of a text leaf (conventionally a Var
	// named TextVar). It is payload only: Equal, automata, and all
	// structural operations ignore it; Clone preserves it.
	Text string
}

// Hedge is an ordered sequence of nodes; nil is the empty hedge ε.
type Hedge []*Node

// NewElem returns an element node with the given children.
func NewElem(name string, children ...*Node) *Node {
	return &Node{Kind: Elem, Name: name, Children: children}
}

// NewVar returns a variable leaf.
func NewVar(name string) *Node { return &Node{Kind: Var, Name: name} }

// NewSubst returns a substitution-symbol leaf.
func NewSubst(name string) *Node { return &Node{Kind: Subst, Name: name} }

// NewEta returns the η leaf.
func NewEta() *Node { return NewSubst(Eta) }

// Clone returns a deep copy of the node.
func (n *Node) Clone() *Node {
	c := &Node{Kind: n.Kind, Name: n.Name, Text: n.Text}
	if n.Kind == Elem {
		c.Children = n.Children.Clone()
	}
	return c
}

// Clone returns a deep copy of the hedge.
func (h Hedge) Clone() Hedge {
	if h == nil {
		return nil
	}
	out := make(Hedge, len(h))
	for i, n := range h {
		out[i] = n.Clone()
	}
	return out
}

// Ceil returns the ceil of the hedge (Definition 2): the string of top-level
// labels.
func (h Hedge) Ceil() []string {
	out := make([]string, len(h))
	for i, n := range h {
		out[i] = n.Name
	}
	return out
}

// Size returns the total number of nodes in the hedge.
func (h Hedge) Size() int {
	total := 0
	for _, n := range h {
		total++
		if n.Kind == Elem {
			total += n.Children.Size()
		}
	}
	return total
}

// Depth returns the height of the hedge: 0 for ε, 1 for a flat hedge.
func (h Hedge) Depth() int {
	max := 0
	for _, n := range h {
		d := 1
		if n.Kind == Elem {
			if cd := n.Children.Depth(); cd+1 > d {
				d = cd + 1
			}
		}
		if d > max {
			max = d
		}
	}
	return max
}

// Equal reports structural equality of two hedges.
func (h Hedge) Equal(other Hedge) bool {
	if len(h) != len(other) {
		return false
	}
	for i, n := range h {
		m := other[i]
		if n.Kind != m.Kind || n.Name != m.Name {
			return false
		}
		if n.Kind == Elem && !n.Children.Equal(m.Children) {
			return false
		}
	}
	return true
}

// Path is a Dewey address: the sequence of child indexes from the top level
// of a hedge to a node. The empty path is not a valid node address (it
// denotes the hedge itself).
type Path []int

// String renders the path in Dewey notation, e.g. "2.1.3". The rendering
// is built on the stack (AppendString) and copied out once, so a path of
// typical depth costs one allocation.
func (p Path) String() string {
	var buf [64]byte
	return string(p.AppendString(buf[:0]))
}

// AppendString appends the path's Dewey rendering (exactly String's
// output) to dst and returns the extended slice, for callers serializing
// into a reused buffer.
func (p Path) AppendString(dst []byte) []byte {
	if len(p) == 0 {
		return append(dst, "ε"...)
	}
	for i, x := range p {
		if i > 0 {
			dst = append(dst, '.')
		}
		dst = strconv.AppendInt(dst, int64(x+1), 10) // Dewey numbers are 1-based
	}
	return dst
}

// Equal reports whether two paths are identical.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the path.
func (p Path) Clone() Path { return append(Path(nil), p...) }

// At returns the node at path p, or nil if p is out of range.
func (h Hedge) At(p Path) *Node {
	cur := h
	var node *Node
	for _, i := range p {
		if i < 0 || i >= len(cur) {
			return nil
		}
		node = cur[i]
		cur = node.Children
	}
	return node
}

// Visit calls fn for every node of the hedge in document (pre-) order,
// passing the node's Dewey path. Returning false from fn prunes the node's
// subtree (its descendants are skipped).
func (h Hedge) Visit(fn func(p Path, n *Node) bool) {
	var rec func(h Hedge, prefix Path)
	rec = func(h Hedge, prefix Path) {
		for i, n := range h {
			p := append(prefix, i)
			if fn(p, n) && n.Kind == Elem {
				rec(n.Children, p)
			}
		}
	}
	rec(h, nil)
}

// Paths returns the Dewey paths of every node in document order.
func (h Hedge) Paths() []Path {
	var out []Path
	h.Visit(func(p Path, n *Node) bool {
		out = append(out, p.Clone())
		return true
	})
	return out
}

// Subhedge returns the subhedge of the node at path p (Definition 21): the
// hedge comprising all of its descendants, i.e. its child hedge. It returns
// a deep copy.
func (h Hedge) Subhedge(p Path) (Hedge, error) {
	n := h.At(p)
	if n == nil {
		return nil, fmt.Errorf("hedge: no node at path %v", p)
	}
	return n.Children.Clone(), nil
}

// Envelope returns the envelope of the node at path p (Definition 21): a
// copy of the hedge in which the node's subhedge is removed and η is added
// as the node's sole child. The result is a pointed hedge.
func (h Hedge) Envelope(p Path) (Hedge, error) {
	if h.At(p) == nil {
		return nil, fmt.Errorf("hedge: no node at path %v", p)
	}
	out := h.Clone()
	n := out.At(p)
	if n.Kind != Elem {
		return nil, fmt.Errorf("hedge: envelope of non-element node at %v", p)
	}
	n.Children = Hedge{NewEta()}
	return out, nil
}

// HasSubst reports whether the hedge contains any substitution-symbol leaf.
func (h Hedge) HasSubst() bool {
	found := false
	h.Visit(func(_ Path, n *Node) bool {
		if n.Kind == Subst {
			found = true
		}
		return !found
	})
	return found
}

// Validate checks the structural invariant of hedges with substitution
// symbols: a Subst leaf must be the sole child of its parent element, and
// must not occur at the top level.
func (h Hedge) Validate() error { return h.validate(true) }

func (h Hedge) validate(topLevel bool) error {
	for _, n := range h {
		if n.Kind == Subst {
			if topLevel {
				return fmt.Errorf("hedge: substitution symbol %q at top level", n.Name)
			}
			if len(h) != 1 {
				return fmt.Errorf("hedge: substitution symbol %q is not a sole child", n.Name)
			}
		}
		if n.Kind == Elem {
			if err := n.Children.validate(false); err != nil {
				return err
			}
		}
	}
	return nil
}

// Labels returns the distinct Σ labels, X variables, and substitution
// symbols occurring in the hedge.
func (h Hedge) Labels() (syms, vars, substs []string) {
	seenS, seenV, seenZ := map[string]bool{}, map[string]bool{}, map[string]bool{}
	h.Visit(func(_ Path, n *Node) bool {
		switch n.Kind {
		case Elem:
			if !seenS[n.Name] {
				seenS[n.Name] = true
				syms = append(syms, n.Name)
			}
		case Var:
			if !seenV[n.Name] {
				seenV[n.Name] = true
				vars = append(vars, n.Name)
			}
		case Subst:
			if !seenZ[n.Name] {
				seenZ[n.Name] = true
				substs = append(substs, n.Name)
			}
		}
		return true
	})
	return syms, vars, substs
}

// String renders the hedge in the package's term syntax (see Parse).
func (h Hedge) String() string {
	var b strings.Builder
	h.render(&b)
	return b.String()
}

func (h Hedge) render(b *strings.Builder) {
	for i, n := range h {
		if i > 0 {
			b.WriteByte(' ')
		}
		n.render(b)
	}
}

func (n *Node) render(b *strings.Builder) {
	switch n.Kind {
	case Var:
		b.WriteByte('$')
		b.WriteString(n.Name)
	case Subst:
		if n.Name == Eta {
			b.WriteByte('@')
		} else {
			b.WriteByte('~')
			b.WriteString(n.Name)
		}
	case Elem:
		b.WriteString(n.Name)
		if len(n.Children) > 0 {
			b.WriteByte('<')
			n.Children.render(b)
			b.WriteByte('>')
		}
	}
}

// String renders a single node as a one-node hedge.
func (n *Node) String() string {
	var b strings.Builder
	n.render(&b)
	return b.String()
}

// AppendString appends the node's term rendering (exactly String's output)
// to dst and returns the extended slice, for callers serializing into a
// reused buffer.
func (n *Node) AppendString(dst []byte) []byte {
	switch n.Kind {
	case Var:
		dst = append(dst, '$')
		dst = append(dst, n.Name...)
	case Subst:
		if n.Name == Eta {
			dst = append(dst, '@')
		} else {
			dst = append(dst, '~')
			dst = append(dst, n.Name...)
		}
	case Elem:
		dst = append(dst, n.Name...)
		if len(n.Children) > 0 {
			dst = append(dst, '<')
			for i, c := range n.Children {
				if i > 0 {
					dst = append(dst, ' ')
				}
				dst = c.AppendString(dst)
			}
			dst = append(dst, '>')
		}
	}
	return dst
}
