package hedge

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestParseAndString(t *testing.T) {
	cases := []struct {
		in, out string
	}{
		{"a", "a"},
		{"a b", "a b"},
		{"a<$x>", "a<$x>"},
		{"a b<b $x>", "a b<b $x>"}, // paper's a⟨ε⟩b⟨b⟨ε⟩x⟩
		{"d<p<$x> p<$y>> d<p<$x>>", "d<p<$x> p<$y>> d<p<$x>>"},
		{"c<~z> c<~z>", "c<~z> c<~z>"},
		{"a<$x> b<@>", "a<$x> b<@>"},
		{"a,b,c", "a b c"},
		{"  a  <  b ,, c >  ", "a<b c>"},
		{"", ""},
	}
	for _, c := range cases {
		h, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if got := h.String(); got != c.out {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.out)
		}
		// Round trip.
		h2, err := Parse(h.String())
		if err != nil || !h.Equal(h2) {
			t.Errorf("round trip failed for %q", c.in)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{"<", "a<", "a>", "$", "~", "a<b", "@", "a<@ b>", "@ a"}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestCeil(t *testing.T) {
	h := MustParse("a<$x> b<b $x>")
	got := strings.Join(h.Ceil(), "")
	if got != "ab" {
		t.Fatalf("Ceil = %q, want ab", got)
	}
	if len(Hedge(nil).Ceil()) != 0 {
		t.Fatal("ceil of ε should be empty")
	}
	inner := h[1].Children.Ceil()
	if strings.Join(inner, ",") != "b,x" {
		t.Fatalf("inner ceil = %v", inner)
	}
}

func TestSizeDepth(t *testing.T) {
	h := MustParse("a<b<c>> d")
	if h.Size() != 4 {
		t.Fatalf("Size = %d, want 4", h.Size())
	}
	if h.Depth() != 3 {
		t.Fatalf("Depth = %d, want 3", h.Depth())
	}
	if Hedge(nil).Size() != 0 || Hedge(nil).Depth() != 0 {
		t.Fatal("empty hedge size/depth should be 0")
	}
}

func TestAtAndPaths(t *testing.T) {
	h := MustParse("b a<a<b $x> b>")
	// Paper's example ba⟨a⟨bx⟩b⟩: first second-level node of second
	// top-level node is at path [1 0].
	n := h.At(Path{1, 0})
	if n == nil || n.Name != "a" {
		t.Fatalf("At([1 0]) = %v", n)
	}
	if h.At(Path{5}) != nil || h.At(Path{1, 0, 0, 9}) != nil {
		t.Fatal("out-of-range At should be nil")
	}
	paths := h.Paths()
	if len(paths) != h.Size() {
		t.Fatalf("Paths count %d != Size %d", len(paths), h.Size())
	}
	if paths[0].String() != "1" {
		t.Fatalf("Dewey rendering = %q", paths[0].String())
	}
}

func TestSubhedgeEnvelope(t *testing.T) {
	// Paper's example: in ba⟨a⟨bx⟩b⟩, the first second-level node of the
	// second top-level node has subhedge bx and envelope ba⟨a⟨η⟩b⟩.
	h := MustParse("b a<a<b $x> b>")
	p := Path{1, 0}
	sub, err := h.Subhedge(p)
	if err != nil {
		t.Fatal(err)
	}
	if !sub.Equal(MustParse("b $x")) {
		t.Fatalf("subhedge = %v", sub)
	}
	env, err := h.Envelope(p)
	if err != nil {
		t.Fatal(err)
	}
	if !env.Equal(MustParse("b a<a<@> b>")) {
		t.Fatalf("envelope = %v", env)
	}
	// Original must be unchanged.
	if !h.Equal(MustParse("b a<a<b $x> b>")) {
		t.Fatal("Envelope mutated the input")
	}
	if _, err := h.Subhedge(Path{9}); err == nil {
		t.Fatal("Subhedge of missing node should error")
	}
	if _, err := h.Envelope(Path{9}); err == nil {
		t.Fatal("Envelope of missing node should error")
	}
}

func TestProductPaperExample(t *testing.T) {
	// Figure 1: (a⟨x⟩b⟨η⟩) ⊕ (a⟨x⟩b⟨c⟨η⟩y⟩) = a⟨x⟩b⟨c⟨a⟨x⟩b⟨η⟩⟩y⟩.
	u := MustParse("a<$x> b<@>")
	v := MustParse("a<$x> b<c<@> $y>")
	got := MustProduct(u, v)
	want := MustParse("a<$x> b<c<a<$x> b<@>> $y>")
	if !got.Equal(want) {
		t.Fatalf("product = %v, want %v", got, want)
	}
}

func TestProductAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := DefaultRandConfig()
	for i := 0; i < 200; i++ {
		u := RandomPointed(rng, cfg)
		v := RandomPointed(rng, cfg)
		w := RandomPointed(rng, cfg)
		l := MustProduct(MustProduct(u, v), w)
		r := MustProduct(u, MustProduct(v, w))
		if !l.Equal(r) {
			t.Fatalf("associativity violated:\nu=%v\nv=%v\nw=%v", u, v, w)
		}
	}
}

func TestProductRejectsNonPointed(t *testing.T) {
	pointed := MustParse("a<@>")
	plain := MustParse("a b")
	if _, err := Product(plain, pointed); err == nil {
		t.Fatal("Product should reject non-pointed left operand")
	}
	if _, err := Product(pointed, plain); err == nil {
		t.Fatal("Product should reject non-pointed right operand")
	}
}

func TestIsPointedBase(t *testing.T) {
	if !MustParse("a<$x> b<@>").IsPointedBase() {
		t.Fatal("a⟨x⟩b⟨η⟩ is a pointed base hedge")
	}
	if MustParse("a<$x> b<c<@> $y>").IsPointedBase() {
		t.Fatal("a⟨x⟩b⟨c⟨η⟩y⟩ is not a pointed base hedge")
	}
}

func TestDecomposePaperExample(t *testing.T) {
	// Figure 2: a⟨x⟩b⟨c⟨η⟩y⟩ decomposes into c⟨η⟩y then a⟨x⟩b⟨η⟩.
	h := MustParse("a<$x> b<c<@> $y>")
	bases, err := Decompose(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(bases) != 2 {
		t.Fatalf("got %d bases", len(bases))
	}
	if !bases[0].Hedge().Equal(MustParse("c<@> $y")) {
		t.Fatalf("base 1 = %v", bases[0])
	}
	if !bases[1].Hedge().Equal(MustParse("a<$x> b<@>")) {
		t.Fatalf("base 2 = %v", bases[1])
	}
	if bases[0].Label != "c" || bases[1].Label != "b" {
		t.Fatalf("labels = %q %q", bases[0].Label, bases[1].Label)
	}
}

func TestDecomposeRecomposeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := DefaultRandConfig()
	for i := 0; i < 300; i++ {
		h := RandomPointed(rng, cfg)
		bases, err := Decompose(h)
		if err != nil {
			t.Fatalf("Decompose(%v): %v", h, err)
		}
		for _, b := range bases {
			if !b.Hedge().IsPointedBase() {
				t.Fatalf("decomposition produced non-base %v", b)
			}
		}
		back, err := Recompose(bases)
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(h) {
			t.Fatalf("round trip failed:\n h=%v\n got=%v", h, back)
		}
	}
}

func TestDecompositionOfProductConcatenates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := DefaultRandConfig()
	for i := 0; i < 200; i++ {
		u := RandomPointed(rng, cfg)
		v := RandomPointed(rng, cfg)
		du, _ := Decompose(u)
		dv, _ := Decompose(v)
		dp, err := Decompose(MustProduct(u, v))
		if err != nil {
			t.Fatal(err)
		}
		if len(dp) != len(du)+len(dv) {
			t.Fatalf("lengths: %d vs %d+%d", len(dp), len(du), len(dv))
		}
		for j, b := range append(du, dv...) {
			if !dp[j].Hedge().Equal(b.Hedge()) {
				t.Fatalf("base %d differs", j)
			}
		}
	}
}

func TestEtaPathValidation(t *testing.T) {
	if _, err := MustParse("a b").EtaPath(); err == nil {
		t.Fatal("hedge without η should not be pointed")
	}
	two := Hedge{NewElem("a", NewEta()), NewElem("b", NewEta())}
	if _, err := two.EtaPath(); err == nil {
		t.Fatal("hedge with two η should not be pointed")
	}
	notSole := Hedge{NewElem("a", NewEta(), NewVar("x"))}
	if _, err := notSole.EtaPath(); err == nil {
		t.Fatal("η with siblings should not be pointed")
	}
}

func TestValidate(t *testing.T) {
	top := Hedge{NewSubst("z")}
	if err := top.Validate(); err == nil {
		t.Fatal("top-level substitution symbol should be invalid")
	}
	ok := MustParse("a<~z> b<c<~w>>")
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLabels(t *testing.T) {
	h := MustParse("a<b<$x> d<~z>> c<$y>")
	syms, vars, substs := h.Labels()
	if len(syms) != 4 || len(vars) != 2 || len(substs) != 1 {
		t.Fatalf("Labels = %v %v %v", syms, vars, substs)
	}
}

func TestVisitPruning(t *testing.T) {
	h := MustParse("a<b<c>> d")
	var seen []string
	h.Visit(func(p Path, n *Node) bool {
		seen = append(seen, n.Name)
		return n.Name != "b" // prune below b
	})
	if strings.Join(seen, "") != "abd" {
		t.Fatalf("visited %v", seen)
	}
}

func TestCloneIndependence(t *testing.T) {
	h := MustParse("a<b>")
	c := h.Clone()
	c[0].Children[0].Name = "zz"
	if h[0].Children[0].Name != "b" {
		t.Fatal("Clone shares structure")
	}
}

func TestRandomGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := DefaultRandConfig()
	for i := 0; i < 100; i++ {
		h := Random(rng, cfg)
		if h.Depth() > cfg.MaxDepth {
			t.Fatal("Random exceeded MaxDepth")
		}
		if err := h.Validate(); err != nil {
			t.Fatal(err)
		}
		p := RandomPointed(rng, cfg)
		if !p.IsPointed() {
			t.Fatalf("RandomPointed produced non-pointed %v", p)
		}
	}
	big := RandomSized(rng, cfg, 1000)
	if big.Size() < 1000 {
		t.Fatalf("RandomSized too small: %d", big.Size())
	}
}

func TestEnvelopeDecompositionShape(t *testing.T) {
	// The decomposition of the envelope of node n lists, bottom-up, one
	// base per ancestor level of n, starting with n's own level.
	h := MustParse("b a<a<b $x> b>")
	env, _ := h.Envelope(Path{1, 0})
	bases, err := Decompose(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(bases) != 2 {
		t.Fatalf("got %d bases", len(bases))
	}
	// Innermost base: ε a⟨η⟩ b  (n's elder siblings ε, label a, younger b).
	if len(bases[0].Left) != 0 || bases[0].Label != "a" || !bases[0].Right.Equal(MustParse("b")) {
		t.Fatalf("base 1 = %+v", bases[0])
	}
	// Top base: b a⟨η⟩ ε.
	if !bases[1].Left.Equal(MustParse("b")) || bases[1].Label != "a" || len(bases[1].Right) != 0 {
		t.Fatalf("base 2 = %+v", bases[1])
	}
}

// TestPathStringAppendString pins Path.String to AppendString's rendering,
// and both to Dewey notation: ε, one component, multi-digit components,
// and a path deeper than String's stack buffer.
func TestPathStringAppendString(t *testing.T) {
	deep := make(Path, 40)
	for i := range deep {
		deep[i] = i * 37
	}
	cases := []struct {
		p    Path
		want string
	}{
		{nil, "ε"},
		{Path{}, "ε"},
		{Path{0}, "1"},
		{Path{8}, "9"},
		{Path{9, 99, 999, 1233}, "10.100.1000.1234"},
		{Path{1, 0, 2}, "2.1.3"},
	}
	var deepWant []string
	for _, x := range deep {
		deepWant = append(deepWant, fmt.Sprint(x+1))
	}
	cases = append(cases, struct {
		p    Path
		want string
	}{deep, strings.Join(deepWant, ".")})
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("Path%v.String() = %q, want %q", []int(c.p), got, c.want)
		}
		if got := string(c.p.AppendString(nil)); got != c.p.String() {
			t.Errorf("Path%v: AppendString = %q, String = %q", []int(c.p), got, c.p.String())
		}
		if got := string(c.p.AppendString([]byte("x:"))); got != "x:"+c.want {
			t.Errorf("Path%v: AppendString onto a prefix = %q", []int(c.p), got)
		}
	}
}
