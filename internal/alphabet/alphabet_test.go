package alphabet

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestInternerBasics(t *testing.T) {
	in := NewInterner()
	a := in.Intern("a")
	b := in.Intern("b")
	if a == b {
		t.Fatal("distinct names must get distinct symbols")
	}
	if in.Intern("a") != a {
		t.Fatal("interning is not idempotent")
	}
	if in.Lookup("a") != a || in.Lookup("zzz") != None {
		t.Fatal("lookup wrong")
	}
	if in.Name(a) != "a" || in.Name(b) != "b" {
		t.Fatal("name wrong")
	}
	if in.Len() != 2 {
		t.Fatalf("Len = %d", in.Len())
	}
	if got := in.Name(99); got == "" {
		t.Fatal("unknown symbols should render a placeholder")
	}
}

func TestInternerZeroValue(t *testing.T) {
	var in Interner
	if in.Lookup("x") != None {
		t.Fatal("zero-value lookup should miss")
	}
	s := in.Intern("x")
	if in.Lookup("x") != s {
		t.Fatal("zero-value intern broken")
	}
}

func TestInternerCloneAndNames(t *testing.T) {
	in := NewInterner()
	in.Intern("b")
	in.Intern("a")
	c := in.Clone()
	c.Intern("z")
	if in.Len() != 2 || c.Len() != 3 {
		t.Fatal("clone not independent")
	}
	names := in.Names()
	if names[0] != "b" || names[1] != "a" {
		t.Fatalf("Names = %v", names)
	}
	sorted := in.SortedNames()
	if sorted[0] != "a" || sorted[1] != "b" {
		t.Fatalf("SortedNames = %v", sorted)
	}
}

func TestInternerDense(t *testing.T) {
	in := NewInterner()
	f := func(names []string) bool {
		for _, n := range names {
			s := in.Intern(n)
			if s < 0 || s >= in.Len() {
				return false
			}
			if in.Name(s) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestInternerGeneration(t *testing.T) {
	in := NewInterner()
	if in.Generation() != 0 {
		t.Fatalf("fresh generation = %d, want 0", in.Generation())
	}
	in.Intern("a")
	g1 := in.Generation()
	if g1 != 1 {
		t.Fatalf("generation after one intern = %d, want 1", g1)
	}
	in.Intern("a") // idempotent intern must not advance
	if in.Generation() != g1 {
		t.Fatal("re-interning an existing name advanced the generation")
	}
	in.Lookup("zzz") // lookups never advance
	if in.Generation() != g1 {
		t.Fatal("lookup advanced the generation")
	}
	in.Intern("b")
	if in.Generation() <= g1 {
		t.Fatal("fresh intern did not advance the generation")
	}
}

// TestInternerView pins a view's contract: it holds the names interned
// when it was taken, under their ids, and none interned later; it interns
// nothing; its lookups allocate nothing.
func TestInternerView(t *testing.T) {
	in := NewInterner()
	a, b := in.Intern("a"), in.Intern("b")
	v := in.View()
	c := in.Intern("c")
	if v.Len() != 2 || v.Generation() != 2 || in.Len() != 3 {
		t.Fatalf("view Len %d, Generation %d; origin Len %d", v.Len(), v.Generation(), in.Len())
	}
	if v.Lookup("a") != a || v.Lookup("b") != b || v.Lookup("c") != None || v.Lookup("zzz") != None {
		t.Fatal("view lookups wrong")
	}
	if v.Name(b) != "b" || v.Name(c) == "c" {
		t.Fatalf("view names: %q, %q", v.Name(b), v.Name(c))
	}
	if v.Intern("a") != a {
		t.Fatal("interning a held name into a view moved it")
	}
	if v.Origin() != in || in.Origin() != in || v.View() != v {
		t.Fatal("origin or view of a view wrong")
	}
	if w := in.View(); !w.Extends(v) || v.Extends(w) || w.Len() != 3 {
		t.Fatal("a later view must extend an earlier one and not the reverse")
	}
	if n := testing.AllocsPerRun(100, func() { v.Lookup("b"); v.Lookup("c") }); n != 0 {
		t.Fatalf("view lookups allocate %v times", n)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("interning a name the view does not hold did not panic")
		}
	}()
	v.Intern("c")
}

// TestInternerConcurrent hammers one interner from concurrent writers and
// readers; run under -race this pins the thread-safety contract the shared
// Engine relies on. Symbols interned for the same name must agree across
// goroutines, and the final generation must equal the distinct name count.
func TestInternerConcurrent(t *testing.T) {
	in := NewInterner()
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	syms := make([][]Symbol, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			syms[w] = make([]Symbol, perWorker)
			for i := 0; i < perWorker; i++ {
				name := fmt.Sprintf("n%d", i)
				syms[w][i] = in.Intern(name)
				if got := in.Lookup(name); got != syms[w][i] {
					t.Errorf("Lookup(%q) = %d, want %d", name, got, syms[w][i])
					return
				}
				_ = in.Name(syms[w][i])
				_ = in.Generation()
				_ = in.Len()
				if v := in.View(); v.Lookup(name) != syms[w][i] || v.Name(syms[w][i]) != name {
					t.Errorf("a view taken after interning %q does not hold it", name)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			if syms[w][i] != syms[0][i] {
				t.Fatalf("worker %d interned n%d as %d, worker 0 as %d", w, i, syms[w][i], syms[0][i])
			}
		}
	}
	if got := in.Generation(); got != perWorker {
		t.Fatalf("final generation = %d, want %d", got, perWorker)
	}
}

func TestTupleInterner(t *testing.T) {
	ti := NewTupleInterner()
	a := ti.Intern([]int{1, 2, 3})
	b := ti.Intern([]int{1, 2, 4})
	if a == b {
		t.Fatal("distinct tuples must get distinct ids")
	}
	if ti.Intern([]int{1, 2, 3}) != a {
		t.Fatal("interning is not idempotent")
	}
	if ti.Lookup([]int{1, 2, 3}) != a || ti.Lookup([]int{9}) != -1 {
		t.Fatal("lookup wrong")
	}
	got := ti.Tuple(a)
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("Tuple = %v", got)
	}
	// The stored tuple must be a copy.
	src := []int{7, 7}
	id := ti.Intern(src)
	src[0] = 99
	if ti.Tuple(id)[0] != 7 {
		t.Fatal("tuple not copied")
	}
	if ti.Len() != 3 {
		t.Fatalf("Len = %d", ti.Len())
	}
}

func TestTupleInternerEmptyAndNegative(t *testing.T) {
	ti := NewTupleInterner()
	e := ti.Intern(nil)
	if ti.Lookup([]int{}) != e {
		t.Fatal("nil and empty tuples must coincide")
	}
	n := ti.Intern([]int{-1, -2})
	if ti.Lookup([]int{-1, -2}) != n {
		t.Fatal("negative components must round trip")
	}
	if ti.Lookup([]int{-1}) == n {
		t.Fatal("prefix must not collide")
	}
}

func TestTupleInternerQuick(t *testing.T) {
	ti := NewTupleInterner()
	f := func(a, b []int16) bool {
		ta := make([]int, len(a))
		for i, v := range a {
			ta[i] = int(v)
		}
		tb := make([]int, len(b))
		for i, v := range b {
			tb[i] = int(v)
		}
		ia, ib := ti.Intern(ta), ti.Intern(tb)
		equal := len(ta) == len(tb)
		if equal {
			for i := range ta {
				if ta[i] != tb[i] {
					equal = false
					break
				}
			}
		}
		return (ia == ib) == equal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
