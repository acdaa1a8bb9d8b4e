// Package alphabet provides symbol interning shared by every automaton in
// the repository. All automata — string automata over hedge-automaton state
// sets, hedge automata over XML element names, the string automaton N of
// Theorem 4 — run over dense int symbols; an Interner maps external names to
// those symbols and back.
//
// Interners are safe for concurrent use and versioned: every Intern that
// assigns a fresh symbol advances a monotonically increasing generation
// counter. Closed-world consumers ('.'-any-hedge desugaring, schema
// products) record the generation they compiled against and revalidate when
// it moves — see ha.Names.Generation and the core compile pipeline. View
// freezes an interner's symbols in O(1): interning is append-only, so the
// names interned so far are a prefix that never changes.
package alphabet

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Symbol is a dense interned identifier. Valid symbols are non-negative;
// None marks the absence of a symbol.
type Symbol = int

// None is the invalid symbol.
const None Symbol = -1

// Interner assigns dense Symbols to names. The zero value is ready to use.
// All methods are safe for concurrent use: lookups take a read lock, and
// interning a genuinely new name takes the write lock and advances the
// generation counter (reading the counter is a single atomic load, so
// generation checks stay off the lock entirely).
//
// An Interner is either live or a view (see View). A view holds the prefix
// of its origin's names that existed when it was taken and never grows:
// its lookups read the origin's map under the origin's read lock and treat
// every symbol at or past the prefix as not interned.
type Interner struct {
	mu    sync.RWMutex
	names []string
	ids   map[string]Symbol
	gen   atomic.Uint64 // == len(names); advances only under mu
	// origin is the live interner a view reads through; nil when live.
	origin *Interner
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]Symbol)}
}

// Intern returns the symbol for name, assigning a fresh one if needed. A
// view cannot assign one: interning a name a view does not hold panics, so
// intern into the origin before taking the view.
func (in *Interner) Intern(name string) Symbol {
	if in.origin != nil {
		if s := in.Lookup(name); s != None {
			return s
		}
		panic(fmt.Sprintf("alphabet: Intern(%q) on a view that does not hold it", name))
	}
	// Fast path: the name is usually already interned.
	in.mu.RLock()
	s, ok := in.ids[name]
	in.mu.RUnlock()
	if ok {
		return s
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.ids == nil {
		in.ids = make(map[string]Symbol)
	}
	if s, ok := in.ids[name]; ok {
		return s
	}
	s = Symbol(len(in.names))
	in.names = append(in.names, name)
	in.ids[name] = s
	in.gen.Store(uint64(len(in.names)))
	return s
}

// Lookup returns the symbol for name, or None if it was never interned (in
// a view: not interned when the view was taken). It takes one read lock,
// the origin's in a view, and allocates nothing.
func (in *Interner) Lookup(name string) Symbol {
	if o := in.origin; o != nil {
		o.mu.RLock()
		s, ok := o.ids[name]
		o.mu.RUnlock()
		if ok && s < len(in.names) {
			return s
		}
		return None
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	if s, ok := in.ids[name]; ok {
		return s
	}
	return None
}

// Name returns the name of s, or a diagnostic placeholder for unknown
// symbols.
func (in *Interner) Name(s Symbol) string {
	names := in.prefix()
	if s < 0 || s >= len(names) {
		return fmt.Sprintf("<sym:%d>", s)
	}
	return names[s]
}

// prefix returns the interned names. The slice is never written to below
// its length (interning only appends), so it is safe to read unlocked.
func (in *Interner) prefix() []string {
	if in.origin != nil {
		return in.names
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.names[:len(in.names):len(in.names)]
}

// Len reports the number of interned symbols.
func (in *Interner) Len() int { return len(in.prefix()) }

// Generation returns the interner's version: a monotonically increasing
// counter that advances exactly when a fresh symbol is interned (it equals
// Len, read without taking the lock). Two equal generations imply an
// identical symbol table; a moved generation tells closed-world consumers
// their compiled view of the alphabet is stale.
func (in *Interner) Generation() uint64 { return in.gen.Load() }

// Names returns a copy of all interned names, in symbol order.
func (in *Interner) Names() []string { return slices.Clone(in.prefix()) }

// SortedNames returns all interned names in lexicographic order.
func (in *Interner) SortedNames() []string {
	out := in.Names()
	sort.Strings(out)
	return out
}

// Clone returns an independent live copy of the interner: it can intern
// names the original never sees.
func (in *Interner) Clone() *Interner {
	c := NewInterner()
	for _, n := range in.prefix() {
		c.Intern(n)
	}
	return c
}

// View returns an immutable view of the interner as it stands, in O(1):
// the names interned so far and their symbols, read through the origin.
// Later interns into the origin do not show in the view. A view of a view
// is the view itself.
func (in *Interner) View() *Interner {
	if in.origin != nil {
		return in
	}
	v := &Interner{names: in.prefix(), origin: in}
	v.gen.Store(uint64(len(v.names)))
	return v
}

// Origin returns the live interner in reads through: its origin if in is a
// view, else in itself. Views of one origin agree on every symbol they
// share, and the longer one holds the shorter.
func (in *Interner) Origin() *Interner {
	if in.origin != nil {
		return in.origin
	}
	return in
}

// Extends reports whether in is an append-only extension of base: every
// name of base is present in in with the same symbol. This holds between
// any two snapshots of one growing interner (interning never reorders),
// and is what makes automata compiled against an older snapshot rebasable
// onto a newer one — the common symbols keep their ids.
func (in *Interner) Extends(base *Interner) bool {
	bn := base.prefix()
	an := in.prefix()
	if len(an) < len(bn) {
		return false
	}
	for i, n := range bn {
		if an[i] != n {
			return false
		}
	}
	return true
}

// TupleInterner assigns dense ids to int tuples. It is used to realize
// product constructions (composite hedge-automaton states, equivalence
// classes of Theorem 4) with dense state numbering. Unlike Interner it is
// not synchronized: every product construction builds its own TupleInterner
// and never shares it across goroutines.
type TupleInterner struct {
	tuples [][]int
	ids    map[string]int
	key    []byte // Intern's key buffer, reused: a hit allocates nothing
}

// NewTupleInterner returns an empty tuple interner.
func NewTupleInterner() *TupleInterner {
	return &TupleInterner{ids: make(map[string]int)}
}

// appendTupleKey appends t's key to dst: its fixed-width little-endian
// encoding, which is cheap for short tuples and collision-free. It is the
// engine's one key for state sets and tuples.
func appendTupleKey(dst []byte, t []int) []byte {
	for _, v := range t {
		dst = append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return dst
}

// Intern returns the id for tuple t, assigning a fresh one if needed. The
// tuple is copied; the caller may reuse t.
func (ti *TupleInterner) Intern(t []int) int {
	ti.key = appendTupleKey(ti.key[:0], t)
	if id, ok := ti.ids[string(ti.key)]; ok {
		return id
	}
	id := len(ti.tuples)
	cp := make([]int, len(t))
	copy(cp, t)
	ti.tuples = append(ti.tuples, cp)
	ti.ids[string(ti.key)] = id
	return id
}

// Lookup returns the id of t, or -1 if t was never interned. It writes
// nothing, so concurrent Lookups are safe; a tuple of up to 16 ints keys
// from the stack.
func (ti *TupleInterner) Lookup(t []int) int {
	var buf [64]byte
	if id, ok := ti.ids[string(appendTupleKey(buf[:0], t))]; ok {
		return id
	}
	return -1
}

// Tuple returns the tuple with the given id. The returned slice must not be
// modified.
func (ti *TupleInterner) Tuple(id int) []int { return ti.tuples[id] }

// Len reports the number of interned tuples.
func (ti *TupleInterner) Len() int { return len(ti.tuples) }
