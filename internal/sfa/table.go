package sfa

// Table is a DFA flattened for stepping: Next holds Width successors per
// state, row-major, with Dead where the DFA has no transition. A symbol
// outside [0, Width) also steps to Dead, so a table compiled over one
// alphabet can be stepped with symbols of a grown one. Evaluation steps
// tables; the map form (DFA) stays the construction format.
type Table struct {
	Start  int32
	Width  int32
	Next   []int32
	Accept []bool
}

// Table returns the dense form of d. Accept aliases d.Accept: tables are
// built from finished automata, which nothing mutates afterwards.
func (d *DFA) Table() Table { return d.TableIn(make([]int32, d.NumStates*d.NumSymbols)) }

// TableIn is Table with the rows stored in next, which must hold
// NumStates×NumSymbols entries; callers flattening many DFAs carve them
// from one slab.
func (d *DFA) TableIn(next []int32) Table {
	for i := range next {
		next[i] = Dead
	}
	for s, row := range d.Trans {
		for sym, to := range row {
			next[s*d.NumSymbols+sym] = int32(to)
		}
	}
	return Table{Start: int32(d.Start), Width: int32(d.NumSymbols), Next: next, Accept: d.Accept}
}

// Step returns the successor of state on sym (Dead-absorbing).
func (t *Table) Step(state, sym int32) int32 {
	if state < 0 || uint32(sym) >= uint32(t.Width) {
		return Dead
	}
	return t.Next[state*t.Width+sym]
}

// Accepting reports whether state is accepting (Dead never is).
func (t *Table) Accepting(state int32) bool {
	return state >= 0 && t.Accept[state]
}
