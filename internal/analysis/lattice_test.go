package analysis

import (
	"math/rand"
	"testing"
	"unsafe"

	"ricjs/internal/objects"
)

// allSlotTypes enumerates every element of the slot-type lattice,
// including ⊤ and ⊥.
var allSlotTypes = []objects.SlotType{
	objects.SlotTypeNone,
	objects.SlotTypeSmallInt,
	objects.SlotTypeFloat,
	objects.SlotTypeString,
	objects.SlotTypeBoolean,
	objects.SlotTypeObject,
	objects.SlotTypeNullUndef,
	objects.SlotTypeBottom,
}

// TestSlotTypeLatticeLaws checks the order axioms and the lub/glb laws
// over the full element set. The typed-shape pipeline leans on all of
// them: Join at dataflow merge points, Meet for claim intersection, Leq
// as the soundness order riclint verifies records against.
func TestSlotTypeLatticeLaws(t *testing.T) {
	top, bot := objects.SlotTypeNone, objects.SlotTypeBottom
	for _, a := range allSlotTypes {
		if !a.Leq(a) {
			t.Errorf("Leq not reflexive at %s", a)
		}
		if !a.Leq(top) {
			t.Errorf("%s ⋢ ⊤", a)
		}
		if !bot.Leq(a) {
			t.Errorf("⊥ ⋢ %s", a)
		}
		if got := a.Join(top); got != top {
			t.Errorf("%s ⊔ ⊤ = %s, want ⊤", a, got)
		}
		if got := a.Join(bot); got != a {
			t.Errorf("%s ⊔ ⊥ = %s, want %s", a, got, a)
		}
		if got := a.Meet(top); got != a {
			t.Errorf("%s ⊓ ⊤ = %s, want %s", a, got, a)
		}
		if got := a.Meet(bot); got != bot {
			t.Errorf("%s ⊓ ⊥ = %s, want ⊥", a, got)
		}
		if got := a.Join(a); got != a {
			t.Errorf("join not idempotent at %s", a)
		}
		for _, b := range allSlotTypes {
			if a.Leq(b) && b.Leq(a) && a != b {
				t.Errorf("Leq not antisymmetric: %s and %s", a, b)
			}
			j, m := a.Join(b), a.Meet(b)
			if j != b.Join(a) {
				t.Errorf("join not commutative: %s ⊔ %s", a, b)
			}
			if m != b.Meet(a) {
				t.Errorf("meet not commutative: %s ⊓ %s", a, b)
			}
			if !a.Leq(j) || !b.Leq(j) {
				t.Errorf("%s ⊔ %s = %s is not an upper bound", a, b, j)
			}
			if !m.Leq(a) || !m.Leq(b) {
				t.Errorf("%s ⊓ %s = %s is not a lower bound", a, b, m)
			}
			// Least upper bound: every other upper bound is above the join.
			for _, u := range allSlotTypes {
				if a.Leq(u) && b.Leq(u) && !j.Leq(u) {
					t.Errorf("%s ⊔ %s = %s is not least (%s is a smaller upper bound)", a, b, j, u)
				}
				if u.Leq(a) && u.Leq(b) && !u.Leq(m) {
					t.Errorf("%s ⊓ %s = %s is not greatest (%s is a larger lower bound)", a, b, m, u)
				}
			}
			for _, c := range allSlotTypes {
				if a.Leq(b) && b.Leq(c) && !a.Leq(c) {
					t.Errorf("Leq not transitive: %s ⊑ %s ⊑ %s", a, b, c)
				}
				if a.Join(b).Join(c) != a.Join(b.Join(c)) {
					t.Errorf("join not associative at (%s, %s, %s)", a, b, c)
				}
				if a.Meet(b).Meet(c) != a.Meet(b.Meet(c)) {
					t.Errorf("meet not associative at (%s, %s, %s)", a, b, c)
				}
			}
		}
	}
	// The single non-trivial chain.
	if !objects.SlotTypeSmallInt.Leq(objects.SlotTypeFloat) {
		t.Error("SmallInt ⋢ Float")
	}
	if objects.SlotTypeFloat.Leq(objects.SlotTypeSmallInt) {
		t.Error("Float ⊑ SmallInt")
	}
	if got := objects.SlotTypeSmallInt.Join(objects.SlotTypeFloat); got != objects.SlotTypeFloat {
		t.Errorf("SmallInt ⊔ Float = %s, want float", got)
	}
	// Unrelated concrete types only meet at the bounds.
	if got := objects.SlotTypeString.Join(objects.SlotTypeBoolean); got != objects.SlotTypeNone {
		t.Errorf("string ⊔ boolean = %s, want ⊤", got)
	}
	if got := objects.SlotTypeString.Meet(objects.SlotTypeObject); got != objects.SlotTypeBottom {
		t.Errorf("string ⊓ object = %s, want ⊥", got)
	}
}

// absEq compares abstract values by mutual ⊑ — equal sets built by
// different joins are distinct objSets, so pointer equality is the wrong
// notion.
func absEq(a, b absVal) bool { return a.leq(b) && b.leq(a) }

// TestAbsValJoinLaws checks the abstract-value join over a structured
// sample: primitives, single objects, object sets, mixes, ⊤, and ⊥.
func TestAbsValJoinLaws(t *testing.T) {
	o1 := &absObj{id: 1, label: "site-a"}
	o2 := &absObj{id: 2, label: "site-b"}
	sample := []absVal{
		{},
		topVal,
		primVal(pInt),
		primVal(pFlo),
		primVal(pNum),
		primVal(pStr),
		primVal(pBool),
		primVal(pUndef | pNull),
		primVal(pInt | pStr),
		objVal(o1),
		objVal(o2),
		objVal(o1).join(objVal(o2)),
		objVal(o1).join(primVal(pInt)),
	}
	for _, a := range sample {
		if !absEq(a.join(a), a) {
			t.Errorf("join not idempotent at %v", a)
		}
		if !absEq(a.join(topVal), topVal) {
			t.Errorf("%v ⊔ ⊤ is not ⊤", a)
		}
		if !absEq(a.join(absVal{}), a) {
			t.Errorf("⊥ is not a join identity at %v", a)
		}
		if !a.leq(topVal) {
			t.Errorf("%v ⋢ ⊤", a)
		}
		if !(absVal{}).leq(a) {
			t.Errorf("⊥ ⋢ %v", a)
		}
		for _, b := range sample {
			j := a.join(b)
			if !absEq(j, b.join(a)) {
				t.Errorf("join not commutative: %v ⊔ %v", a, b)
			}
			if !a.leq(j) || !b.leq(j) {
				t.Errorf("%v ⊔ %v is not an upper bound", a, b)
			}
			for _, c := range sample {
				if !absEq(a.join(b).join(c), a.join(b.join(c))) {
					t.Errorf("join not associative at (%v, %v, %v)", a, b, c)
				}
			}
		}
	}
	// Joining distinct objects keeps both identities (no silent widening)…
	both := objVal(o1).join(objVal(o2))
	if l := both.objsSorted(); both.top || len(l) != 2 || l[0] != o1 || l[1] != o2 {
		t.Fatalf("object join lost identities: %v", both)
	}
	// …and still collapses to one Object claim for typed shapes.
	if got := slotTypeOf(both); got != objects.SlotTypeObject {
		t.Errorf("slotTypeOf(obj ⊔ obj) = %s, want object", got)
	}
}

// TestSlotTypeOfCollapse pins the absVal → SlotType collapse table: the
// bridge between the dataflow lattice and the claims that ship in
// records.
func TestSlotTypeOfCollapse(t *testing.T) {
	o1 := &absObj{id: 1}
	cases := []struct {
		name string
		v    absVal
		want objects.SlotType
	}{
		{"top", topVal, objects.SlotTypeNone},
		{"bottom", absVal{}, objects.SlotTypeBottom},
		{"smallint", primVal(pInt), objects.SlotTypeSmallInt},
		{"float", primVal(pFlo), objects.SlotTypeFloat},
		{"any-number", primVal(pNum), objects.SlotTypeFloat},
		{"string", primVal(pStr), objects.SlotTypeString},
		{"boolean", primVal(pBool), objects.SlotTypeBoolean},
		{"undefined", primVal(pUndef), objects.SlotTypeNullUndef},
		{"null-or-undef", primVal(pNull | pUndef), objects.SlotTypeNullUndef},
		{"object", objVal(o1), objects.SlotTypeObject},
		{"number-or-string", primVal(pInt | pStr), objects.SlotTypeNone},
		{"object-or-number", objVal(o1).join(primVal(pFlo)), objects.SlotTypeNone},
		{"number-or-null", primVal(pFlo | pNull), objects.SlotTypeNone},
	}
	for _, c := range cases {
		if got := slotTypeOf(c.v); got != c.want {
			t.Errorf("%s: slotTypeOf = %s, want %s", c.name, got, c.want)
		}
	}
	// Monotonicity: collapsing after a join never claims more than
	// collapsing before it.
	for _, a := range cases {
		for _, b := range cases {
			joined := slotTypeOf(a.v.join(b.v))
			if !slotTypeOf(a.v).Leq(joined) || !slotTypeOf(b.v).Leq(joined) {
				t.Errorf("collapse not monotone over join: %s ⊔ %s → %s", a.name, b.name, joined)
			}
		}
	}
}

// objModel is the naive reference for an absVal's object component.
func objModel(v absVal) map[*absObj]bool {
	m := map[*absObj]bool{}
	for _, o := range v.objsSorted() {
		m[o] = true
	}
	return m
}

func subsetModel(a, b map[*absObj]bool) bool {
	for o := range a {
		if !b[o] {
			return false
		}
	}
	return true
}

// checkSetForm reports a set that is not strictly id-sorted, or an empty
// set that is not nil.
func checkSetForm(t *testing.T, what string, v absVal) {
	t.Helper()
	l := v.objsSorted()
	if v.objs != nil && len(l) == 0 {
		t.Fatalf("%s: empty object set is not nil", what)
	}
	for i := 1; i < len(l); i++ {
		if l[i-1].id >= l[i].id {
			t.Fatalf("%s: set not strictly id-sorted: ids %d, %d at %d", what, l[i-1].id, l[i].id, i)
		}
	}
}

// TestObjSetLawsAgainstMapModel checks join and leq on random values
// over 40 objects against a map[*absObj]bool model. Sets are shared
// between values, so a join must never modify an operand, and a join
// that adds nothing must hand back the containing operand's own set.
func TestObjSetLawsAgainstMapModel(t *testing.T) {
	if got := unsafe.Sizeof(absVal{}); got != 16 {
		t.Fatalf("absVal is %d bytes, want 16: every locals chunk copy scales with it", got)
	}
	rng := rand.New(rand.NewSource(13))
	objs := make([]*absObj, 40)
	for i := range objs {
		objs[i] = &absObj{id: i}
	}
	random := func() absVal {
		switch rng.Intn(10) {
		case 0:
			return topVal
		case 1:
			return absVal{}
		}
		v := primVal(uint8(rng.Intn(64)))
		n := rng.Intn(5)
		if rng.Intn(4) == 0 {
			n = rng.Intn(len(objs))
		}
		for i := 0; i < n; i++ {
			v = v.join(objVal(objs[rng.Intn(len(objs))]))
		}
		return v
	}
	for trial := 0; trial < 5000; trial++ {
		v, w := random(), random()
		vl := append([]*absObj(nil), v.objsSorted()...)
		wl := append([]*absObj(nil), w.objsSorted()...)
		vm, wm := objModel(v), objModel(w)

		j := v.join(w)
		checkSetForm(t, "join", j)
		if j.top != (v.top || w.top) {
			t.Fatalf("trial %d: join top = %v", trial, j.top)
		}
		if !j.top {
			if j.prims != v.prims|w.prims {
				t.Fatalf("trial %d: join prims %b, want %b", trial, j.prims, v.prims|w.prims)
			}
			um := objModel(j)
			if !subsetModel(vm, um) || !subsetModel(wm, um) || len(um) > len(vm)+len(wm) {
				t.Fatalf("trial %d: join objects are not the union", trial)
			}
			for o := range um {
				if !vm[o] && !wm[o] {
					t.Fatalf("trial %d: join invented object %d", trial, o.id)
				}
			}
			if v.objs != nil && subsetModel(wm, vm) && j.objs != v.objs {
				t.Fatalf("trial %d: join copied a set that already held the union", trial)
			}
			if w.objs != nil && subsetModel(vm, wm) && j.objs != w.objs && j.objs != v.objs {
				t.Fatalf("trial %d: join copied a set that already held the union", trial)
			}
		}

		wantLeq := w.top || (!v.top && v.prims&^w.prims == 0 && subsetModel(vm, wm))
		if got := v.leq(w); got != wantLeq {
			t.Fatalf("trial %d: leq = %v, model says %v", trial, got, wantLeq)
		}
		if !v.leq(j) || !w.leq(j) {
			t.Fatalf("trial %d: join is not an upper bound", trial)
		}

		for _, c := range []struct {
			name   string
			before []*absObj
			after  absVal
		}{{"left", vl, v}, {"right", wl, w}} {
			got := c.after.objsSorted()
			if len(got) != len(c.before) {
				t.Fatalf("trial %d: join changed its %s operand", trial, c.name)
			}
			for i := range got {
				if got[i] != c.before[i] {
					t.Fatalf("trial %d: join changed its %s operand", trial, c.name)
				}
			}
		}
	}
}

// TestShapeSetAddDuringIteration checks that add keeps the set id-sorted
// and duplicate-free, and that a walk over sorted() sees the set as it
// was before the adds it makes — storeTransition relies on it.
func TestShapeSetAddDuringIteration(t *testing.T) {
	g := newGraph()
	shapes := make([]*Shape, 12)
	for i := range shapes {
		shapes[i] = g.newShape(nil, nil)
	}
	var ss shapeSet
	for _, i := range []int{7, 2, 9, 2, 4, 10} {
		ss.add(shapes[i])
	}
	if ss.add(shapes[4]) {
		t.Fatal("add reported a present shape as new")
	}
	before := append([]*Shape(nil), ss.sorted()...)
	var seen []*Shape
	added := []int{1, 11, 3, 5, 0}
	for k, s := range ss.sorted() {
		seen = append(seen, s)
		if !ss.add(shapes[added[k]]) {
			t.Fatalf("add of new shape #%d reported no growth", added[k])
		}
	}
	if len(seen) != len(before) {
		t.Fatalf("walk saw %d shapes, set held %d before it", len(seen), len(before))
	}
	for i := range seen {
		if seen[i] != before[i] {
			t.Fatalf("walk saw shape #%d at %d, want #%d", seen[i].ID, i, before[i].ID)
		}
	}
	want := []int{0, 1, 2, 3, 4, 5, 7, 9, 10, 11}
	got := ss.sorted()
	if len(got) != len(want) {
		t.Fatalf("set has %d shapes, want %d", len(got), len(want))
	}
	for i, id := range want {
		if got[i].ID != id {
			t.Fatalf("shape %d is #%d, want #%d", i, got[i].ID, id)
		}
	}
}
