package objects

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ricjs/internal/source"
	"ricjs/internal/symtab"
)

func siteCreator(line, col uint32) Creator {
	return Creator{Site: source.At("t.js", line, col)}
}

func TestCreator(t *testing.T) {
	b := Creator{Builtin: "Math"}
	if !b.IsBuiltin() || b.IsZero() {
		t.Error("builtin creator misclassified")
	}
	if got := b.String(); got != "builtin:Math" {
		t.Errorf("String() = %q", got)
	}
	s := siteCreator(2, 3)
	if s.IsBuiltin() || s.IsZero() {
		t.Error("site creator misclassified")
	}
	if got := s.String(); got != "site:t.js:2:3" {
		t.Errorf("String() = %q", got)
	}
	if !(Creator{}).IsZero() {
		t.Error("zero creator must report IsZero")
	}
}

func TestRootHCHasEmptyLayout(t *testing.T) {
	s := NewSpace(1)
	hc := s.NewRootHC(nil, Creator{Builtin: "EmptyObject"})
	if hc.NumFields() != 0 {
		t.Fatalf("root HC has %d fields", hc.NumFields())
	}
	if _, ok := hc.Offset("x"); ok {
		t.Fatal("empty layout must not resolve offsets")
	}
	if hc.Parent() != nil {
		t.Fatal("root HC must have no parent")
	}
	if hc.Creator().Builtin != "EmptyObject" {
		t.Fatalf("creator = %v", hc.Creator())
	}
}

// The paper's Figure 2: adding x then y creates HC1{x@0} and HC2{x@0,y@1},
// linked through the Next Hidden Class (transition) table.
func TestTransitionChainFigure2(t *testing.T) {
	s := NewSpace(1)
	hc0 := s.NewRootHC(nil, Creator{Builtin: "Point"})

	hc1, created := hc0.Transition(s, "x", siteCreator(2, 8))
	if !created {
		t.Fatal("first transition must create a hidden class")
	}
	if off, ok := hc1.Offset("x"); !ok || off != 0 {
		t.Fatalf("x offset = %d,%v; want 0,true", off, ok)
	}

	hc2, created := hc1.Transition(s, "y", siteCreator(3, 8))
	if !created {
		t.Fatal("second transition must create a hidden class")
	}
	if off, ok := hc2.Offset("x"); !ok || off != 0 {
		t.Fatalf("x offset in HC2 = %d,%v", off, ok)
	}
	if off, ok := hc2.Offset("y"); !ok || off != 1 {
		t.Fatalf("y offset in HC2 = %d,%v", off, ok)
	}
	if hc2.Parent() != hc1 || hc1.Parent() != hc0 {
		t.Fatal("parent chain broken")
	}

	// Second object created the same way reuses the transitions (paper:
	// "hidden classes are created only for a new transition").
	r1, created := hc0.Transition(s, "x", siteCreator(99, 1))
	if created || r1 != hc1 {
		t.Fatal("transition must be reused, not recreated")
	}
	if next, ok := hc1.TransitionTo("y"); !ok || next != hc2 {
		t.Fatal("TransitionTo must find the cached transition")
	}
	if hc0.TransitionCount() != 1 {
		t.Fatalf("TransitionCount = %d", hc0.TransitionCount())
	}
}

func TestTransitionBranches(t *testing.T) {
	s := NewSpace(1)
	hc0 := s.NewRootHC(nil, Creator{Builtin: "o"})
	hcX, _ := hc0.Transition(s, "x", siteCreator(1, 1))
	hcY, _ := hc0.Transition(s, "y", siteCreator(2, 1))
	if hcX == hcY {
		t.Fatal("different properties must branch to different classes")
	}
	if hc0.TransitionCount() != 2 {
		t.Fatalf("TransitionCount = %d", hc0.TransitionCount())
	}
}

func TestCreatorRecordedOnlyOnCreation(t *testing.T) {
	s := NewSpace(1)
	hc0 := s.NewRootHC(nil, Creator{Builtin: "o"})
	first := siteCreator(5, 5)
	hc1, _ := hc0.Transition(s, "p", first)
	// A later transition from another site reuses hc1; the creator of hc1
	// stays the original (triggering) site.
	hc0.Transition(s, "p", siteCreator(9, 9))
	if hc1.Creator() != first {
		t.Fatalf("creator = %v, want %v", hc1.Creator(), first)
	}
}

func TestAddressesDifferAcrossSpaces(t *testing.T) {
	s1 := NewSpace(0)
	s2 := NewSpace(0)
	hc1 := s1.NewRootHC(nil, Creator{Builtin: "o"})
	hc2 := s2.NewRootHC(nil, Creator{Builtin: "o"})
	if hc1.Addr() == hc2.Addr() {
		t.Fatal("the same logical hidden class must get different addresses in different spaces")
	}
}

func TestSeededSpaceIsReproducible(t *testing.T) {
	a := NewSpace(7)
	b := NewSpace(7)
	if a.Base() != b.Base() {
		t.Fatal("equal seeds must give equal bases")
	}
	ha := a.NewRootHC(nil, Creator{Builtin: "o"})
	hb := b.NewRootHC(nil, Creator{Builtin: "o"})
	if ha.Addr() != hb.Addr() {
		t.Fatal("equal seeds must give equal address streams")
	}
}

func TestLayoutSignatureContextIndependent(t *testing.T) {
	build := func() *HiddenClass {
		s := NewSpace(0) // different addresses every call
		hc := s.NewRootHC(nil, Creator{Builtin: "o"})
		hc, _ = hc.Transition(s, "a", siteCreator(1, 1))
		hc, _ = hc.Transition(s, "b", siteCreator(2, 1))
		return hc
	}
	h1, h2 := build(), build()
	if h1.Addr() == h2.Addr() {
		t.Fatal("test needs diverging addresses")
	}
	if h1.LayoutSignature() != h2.LayoutSignature() {
		t.Fatalf("signatures differ: %q vs %q", h1.LayoutSignature(), h2.LayoutSignature())
	}
	if !strings.Contains(h1.LayoutSignature(), "{a,b}") {
		t.Fatalf("signature %q lacks layout", h1.LayoutSignature())
	}
}

func TestWalkTransitionsDeterministicOrder(t *testing.T) {
	s := NewSpace(1)
	root := s.NewRootHC(nil, Creator{Builtin: "o"})
	bHC, _ := root.Transition(s, "b", siteCreator(1, 1))
	aHC, _ := root.Transition(s, "a", siteCreator(2, 1))
	abHC, _ := aHC.Transition(s, "b", siteCreator(3, 1))

	var order []*HiddenClass
	root.WalkTransitions(func(h *HiddenClass) { order = append(order, h) })
	want := []*HiddenClass{root, aHC, abHC, bHC}
	if len(order) != len(want) {
		t.Fatalf("visited %d classes, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("visit order[%d] = %v, want %v", i, order[i], want[i])
		}
	}
}

// TestWalkTransitionsSpilledTableOrder covers a class whose transition
// table has spilled into its map (more than transLinearMax edges). The
// names are interned in reverse order, so their symbol IDs descend while
// the names ascend: the walk must follow the names, whatever order the
// process interned them in.
func TestWalkTransitionsSpilledTableOrder(t *testing.T) {
	const n = transLinearMax + 4
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("walkSpill%02d", i)
	}
	for i := n - 1; i >= 0; i-- {
		if _, ok := symtab.Find(names[i]); ok {
			t.Fatalf("%s already interned; the test needs fresh names", names[i])
		}
		symtab.Intern(names[i])
	}
	s := NewSpace(1)
	root := s.NewRootHC(nil, Creator{Builtin: "o"})
	// Add the edges in a scrambled order, each child with one grandchild.
	children := make([]*HiddenClass, n)
	grandchildren := make([]*HiddenClass, n)
	for _, i := range rand.New(rand.NewSource(7)).Perm(n) {
		children[i], _ = root.Transition(s, names[i], siteCreator(uint32(i+1), 1))
		grandchildren[i], _ = children[i].Transition(s, "tail", siteCreator(uint32(i+1), 2))
	}
	if root.transMap == nil {
		t.Fatalf("%d transitions did not spill into the map", root.TransitionCount())
	}

	var order []*HiddenClass
	root.WalkTransitions(func(h *HiddenClass) { order = append(order, h) })
	want := []*HiddenClass{root}
	for i := range names {
		want = append(want, children[i], grandchildren[i])
	}
	if len(order) != len(want) {
		t.Fatalf("visited %d classes, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("visit order[%d] = %v, want %v", i, order[i], want[i])
		}
	}
}

func TestDictHCMarked(t *testing.T) {
	s := NewSpace(1)
	if !s.DictHC().IsDictionary() {
		t.Fatal("dictionary HC must be marked")
	}
	hc := s.NewRootHC(nil, Creator{Builtin: "o"})
	if hc.IsDictionary() {
		t.Fatal("normal HC must not be marked dictionary")
	}
}

func TestHCStringIncludesLayout(t *testing.T) {
	s := NewSpace(1)
	hc := s.NewRootHC(nil, Creator{Builtin: "o"})
	hc, _ = hc.Transition(s, "q", siteCreator(1, 1))
	if got := hc.String(); !strings.Contains(got, "{q}") {
		t.Fatalf("String() = %q", got)
	}
}

// Property: the same insertion order always reaches the same hidden class
// (shape sharing), and offsets equal insertion positions.
func TestShapeSharingProperty(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e"}
	f := func(perm []uint8) bool {
		if len(perm) == 0 {
			return true
		}
		if len(perm) > 6 {
			perm = perm[:6]
		}
		s := NewSpace(3)
		root := s.NewRootHC(nil, Creator{Builtin: "o"})
		run := func() *HiddenClass {
			hc := root
			seen := map[string]bool{}
			pos := 0
			for _, p := range perm {
				n := names[int(p)%len(names)]
				if seen[n] {
					continue
				}
				seen[n] = true
				hc, _ = hc.Transition(s, n, siteCreator(1, uint32(p)+1))
				if off, ok := hc.Offset(n); !ok || off != pos {
					return nil
				}
				pos++
			}
			return hc
		}
		h1 := run()
		h2 := run()
		return h1 != nil && h1 == h2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestLazyLayoutIndex builds a 40-property transition chain, so every
// class past layoutLinearMax fields builds its offset index on the first
// lookup, and queries every field of every class in shuffled order.
// Absent IDs must miss, including on classes never queried before.
func TestLazyLayoutIndex(t *testing.T) {
	const n = 40
	s := NewSpace(1)
	ids := make([]symtab.ID, n)
	chain := []*HiddenClass{s.NewRootHC(nil, Creator{Builtin: "Wide"})}
	for i := range ids {
		ids[i] = symtab.Intern(fmt.Sprintf("lazyLayout%d", i))
		next, _ := chain[i].TransitionID(s, ids[i], siteCreator(uint32(i+1), 1))
		chain = append(chain, next)
	}
	for c, hc := range chain {
		if hc.offsets != nil {
			t.Fatalf("class of %d fields built its offset index before any lookup", c)
		}
	}
	absent := symtab.Intern("lazyLayoutAbsent")

	// Intermediate classes of both sizes, queried first for an absent ID.
	for _, k := range []int{layoutLinearMax / 2, layoutLinearMax + 3, n - 5} {
		if off, ok := chain[k].OffsetID(absent); ok || off != 0 {
			t.Fatalf("class of %d fields: absent ID gave (%d, %v)", k, off, ok)
		}
		if off, ok := chain[k].OffsetID(ids[k]); ok || off != 0 {
			t.Fatalf("class of %d fields: its successor's field gave (%d, %v)", k, off, ok)
		}
	}

	type query struct{ class, field int }
	var queries []query
	for c := range chain {
		for f := 0; f < n; f++ {
			queries = append(queries, query{c, f})
		}
	}
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(queries), func(i, j int) { queries[i], queries[j] = queries[j], queries[i] })
	for _, q := range queries {
		off, ok := chain[q.class].OffsetID(ids[q.field])
		if present := q.field < q.class; ok != present || (present && off != q.field) {
			t.Fatalf("class of %d fields, field %d: got (%d, %v)", q.class, q.field, off, ok)
		}
		if !ok && off != 0 {
			t.Fatalf("class of %d fields, field %d: miss returned offset %d", q.class, q.field, off)
		}
	}
	for c, hc := range chain {
		if off, ok := hc.OffsetID(absent); ok || off != 0 {
			t.Fatalf("class of %d fields: absent ID gave (%d, %v)", c, off, ok)
		}
		if built := hc.offsets != nil; built != (c > layoutLinearMax) {
			t.Errorf("class of %d fields: offset index built = %v", c, built)
		}
	}
}

// TestGrowingObjectBuildsNoTransientIndex grows one object to 40
// properties the way a store site does: each SetNamedID first looks the
// property up on the current class, misses, and transitions. Every class
// the object passed through was asked only for a field it lacks, so none
// may have built an offset index; the first hit on the final class builds
// its own.
func TestGrowingObjectBuildsNoTransientIndex(t *testing.T) {
	const n = 40
	s := NewSpace(1)
	o := s.NewObject(s.NewRootHC(nil, Creator{Builtin: "Grown"}))
	ids := make([]symtab.ID, n)
	chain := []*HiddenClass{o.HC()}
	for i := range ids {
		ids[i] = symtab.Intern(fmt.Sprintf("grown%d", i))
		o.SetNamedID(s, ids[i], fmt.Sprintf("grown%d", i), Num(float64(i)), siteCreator(uint32(i+1), 1))
		chain = append(chain, o.HC())
	}
	for c, hc := range chain {
		if hc.NumFields() != c {
			t.Fatalf("class %d has %d fields", c, hc.NumFields())
		}
		if hc.offsets != nil {
			t.Errorf("class of %d fields built an offset index on a miss", c)
		}
	}
	if off, ok := o.HC().OffsetID(ids[n/2]); !ok || off != n/2 {
		t.Fatalf("final class: field %d gave (%d, %v)", n/2, off, ok)
	}
	if o.HC().offsets == nil {
		t.Error("final class: a hit did not build the offset index")
	}
}
