package ic

import (
	"strings"
	"testing"
	"testing/quick"

	"ricjs/internal/objects"
	"ricjs/internal/source"
)

// siteInfo builds a site descriptor outside any proto, with its own copy
// of the script name to point at.
func siteInfo(site source.Site, kind AccessKind, name string) *SiteInfo {
	script := site.Script
	return &SiteInfo{Script: &script, Pos: site.Pos, Kind: kind, Name: name}
}

func hcChain(t *testing.T, n int) (*objects.Space, []*objects.HiddenClass) {
	t.Helper()
	s := objects.NewSpace(1)
	hcs := make([]*objects.HiddenClass, n)
	cur := s.NewRootHC(nil, objects.Creator{Builtin: "o"})
	for i := 0; i < n; i++ {
		var created bool
		cur, created = cur.Transition(s, string(rune('a'+i)), objects.Creator{Site: source.At("t.js", 1, uint32(i+1))})
		if !created {
			t.Fatal("expected fresh hidden classes")
		}
		hcs[i] = cur
	}
	return s, hcs
}

func TestHandlerKinds(t *testing.T) {
	cases := []struct {
		h    Handler
		kind HandlerKind
		ci   bool
	}{
		{LoadField{Offset: 2}, KindLoadField, true},
		{StoreField{Offset: 1}, KindStoreField, true},
		{LoadArrayLength{}, KindLoadArrayLength, true},
		{LoadMissing{Name: "x"}, KindLoadMissing, false},
	}
	for _, c := range cases {
		if c.h.Kind() != c.kind {
			t.Errorf("%v.Kind() = %v, want %v", c.h, c.h.Kind(), c.kind)
		}
		if c.h.ContextIndependent() != c.ci {
			t.Errorf("%v.ContextIndependent() = %v, want %v", c.h, c.h.ContextIndependent(), c.ci)
		}
		if c.h.String() == "" {
			t.Errorf("%v has empty String()", c.kind)
		}
	}
}

func TestContextDependentHandlers(t *testing.T) {
	s, hcs := hcChain(t, 1)
	holder := s.NewObject(hcs[0])
	proto := LoadFromPrototype{Holder: holder, Name: "m", Offset: 0}
	if proto.ContextIndependent() {
		t.Error("prototype handlers must be context-dependent")
	}
	if proto.Kind() != KindLoadFromPrototype || proto.String() == "" {
		t.Error("LoadFromPrototype metadata broken")
	}
	trans := StoreTransition{Next: hcs[0], Offset: 0}
	if trans.ContextIndependent() {
		t.Error("transition handlers must be context-dependent")
	}
	if trans.Kind() != KindStoreTransition || trans.String() == "" {
		t.Error("StoreTransition metadata broken")
	}
}

func TestDescribeCIRoundTrip(t *testing.T) {
	for _, h := range []Handler{LoadField{Offset: 3}, StoreField{Offset: 7}, LoadArrayLength{}} {
		d, ok := DescribeCI(h)
		if !ok {
			t.Fatalf("DescribeCI(%v) failed", h)
		}
		back, err := d.Rebuild()
		if err != nil {
			t.Fatalf("Rebuild: %v", err)
		}
		if back != h {
			t.Fatalf("round trip %v -> %v", h, back)
		}
	}
}

func TestDescribeCIRejectsContextDependent(t *testing.T) {
	_, hcs := hcChain(t, 1)
	if _, ok := DescribeCI(StoreTransition{Next: hcs[0]}); ok {
		t.Fatal("context-dependent handler must not be describable")
	}
	if _, ok := DescribeCI(LoadMissing{Name: "x"}); ok {
		t.Fatal("LoadMissing must not be describable")
	}
	bad := CIDescriptor{Kind: KindStoreTransition}
	if _, err := bad.Rebuild(); err == nil {
		t.Fatal("rebuilding a non-CI descriptor must error")
	}
}

func TestSlotStateMachine(t *testing.T) {
	_, hcs := hcChain(t, MaxPolymorphic+1)
	var s Slot
	if s.State != Uninitialized {
		t.Fatal("fresh slot must be uninitialized")
	}
	s.Add(hcs[0], LoadField{Offset: 0})
	if s.State != Monomorphic {
		t.Fatalf("state = %v, want monomorphic", s.State)
	}
	s.Add(hcs[1], LoadField{Offset: 1})
	if s.State != Polymorphic {
		t.Fatalf("state = %v, want polymorphic", s.State)
	}
	s.Add(hcs[2], LoadField{Offset: 2})
	s.Add(hcs[3], LoadField{Offset: 3})
	if s.State != Polymorphic || len(s.Entries) != MaxPolymorphic {
		t.Fatalf("state = %v with %d entries", s.State, len(s.Entries))
	}
	s.Add(hcs[4], LoadField{Offset: 4})
	if s.State != Megamorphic || s.Entries != nil {
		t.Fatalf("overflow must go megamorphic and drop entries; state=%v", s.State)
	}
	// Further adds stay megamorphic.
	s.Add(hcs[0], LoadField{Offset: 0})
	if s.State != Megamorphic || len(s.Entries) != 0 {
		t.Fatal("megamorphic is terminal")
	}
}

func TestSlotLookup(t *testing.T) {
	_, hcs := hcChain(t, 3)
	var s Slot
	s.Add(hcs[0], LoadField{Offset: 0})
	s.Add(hcs[1], LoadField{Offset: 1})

	e, found, extra := s.Lookup(hcs[0])
	if !found || extra != 0 || e.H.(LoadField).Offset != 0 {
		t.Fatalf("lookup[0] = %v,%v,%d", e, found, extra)
	}
	e, found, extra = s.Lookup(hcs[1])
	if !found || extra != 1 || e.H.(LoadField).Offset != 1 {
		t.Fatalf("lookup[1] = %v,%v,%d", e, found, extra)
	}
	if _, found, extra = s.Lookup(hcs[2]); found || extra != 2 {
		t.Fatalf("missing lookup = %v,%d", found, extra)
	}
}

func TestPreload(t *testing.T) {
	_, hcs := hcChain(t, MaxPolymorphic+1)
	var s Slot
	if !s.Preload(hcs[0], LoadField{Offset: 0}) {
		t.Fatal("preload into fresh slot must succeed")
	}
	if s.State != Monomorphic {
		t.Fatalf("state = %v", s.State)
	}
	e, found, _ := s.Lookup(hcs[0])
	if !found || !e.Preloaded {
		t.Fatal("preloaded entry must be found and marked")
	}
	// Duplicate preload is a no-op.
	if s.Preload(hcs[0], LoadField{Offset: 9}) {
		t.Fatal("duplicate preload must be rejected")
	}
	if e, _, _ := s.Lookup(hcs[0]); e.H.(LoadField).Offset != 0 {
		t.Fatal("duplicate preload must not overwrite")
	}
	// Preload never tips into megamorphic.
	for i := 1; i < MaxPolymorphic; i++ {
		if !s.Preload(hcs[i], LoadField{Offset: i}) {
			t.Fatalf("preload %d must succeed", i)
		}
	}
	if s.Preload(hcs[MaxPolymorphic], LoadField{Offset: 9}) {
		t.Fatal("preload beyond capacity must be rejected")
	}
	if s.State != Polymorphic {
		t.Fatalf("state = %v, must stay polymorphic", s.State)
	}
	// Preload into a megamorphic slot is rejected.
	var m Slot
	m.State = Megamorphic
	if m.Preload(hcs[0], LoadField{}) {
		t.Fatal("preload into megamorphic slot must be rejected")
	}
	// Miss-driven Add on a preloaded-full slot still tips megamorphic.
	s.Add(hcs[MaxPolymorphic], LoadField{Offset: 4})
	if s.State != Megamorphic {
		t.Fatal("miss-driven overflow must still go megamorphic")
	}
}

func TestAccessKind(t *testing.T) {
	if AccessLoad.IsGlobal() || AccessStore.IsGlobal() {
		t.Error("plain accesses are not global")
	}
	if !AccessLoadGlobal.IsGlobal() || !AccessStoreGlobal.IsGlobal() {
		t.Error("global accesses misclassified")
	}
	if AccessLoad.IsStore() || AccessLoadGlobal.IsStore() {
		t.Error("loads are not stores")
	}
	if !AccessStore.IsStore() || !AccessStoreGlobal.IsStore() {
		t.Error("stores misclassified")
	}
	for _, k := range []AccessKind{AccessLoad, AccessStore, AccessLoadGlobal, AccessStoreGlobal} {
		if k.String() == "" || strings.HasPrefix(k.String(), "access(") {
			t.Errorf("AccessKind %d has bad name %q", k, k)
		}
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		Uninitialized: "uninitialized",
		Monomorphic:   "monomorphic",
		Polymorphic:   "polymorphic",
		Megamorphic:   "megamorphic",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s)
		}
	}
}

func TestVectorString(t *testing.T) {
	_, hcs := hcChain(t, 1)
	v := &Vector{FuncName: "f", Slots: []Slot{{SiteInfo: siteInfo(source.At("t.js", 1, 5), AccessLoad, "x")}}}
	v.Slot(0).Add(hcs[0], LoadField{Offset: 0})
	out := v.String()
	for _, want := range []string{"ICVector(f)", "t.js:1:5", "monomorphic", "LoadField[0]"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}

// Property: a slot never exceeds MaxPolymorphic entries, and a hidden class
// appears at most once, under any interleaving of Add and Preload.
func TestSlotInvariantsProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		s := objects.NewSpace(2)
		root := s.NewRootHC(nil, objects.Creator{Builtin: "o"})
		pool := make([]*objects.HiddenClass, 8)
		cur := root
		for i := range pool {
			cur, _ = cur.Transition(s, string(rune('a'+i)), objects.Creator{Site: source.At("p.js", 1, uint32(i+1))})
			pool[i] = cur
		}
		var slot Slot
		for _, op := range ops {
			hc := pool[int(op)%len(pool)]
			if op%2 == 0 {
				slot.Add(hc, LoadField{Offset: int(op) % 4})
			} else {
				slot.Preload(hc, LoadField{Offset: int(op) % 4})
			}
			if len(slot.Entries) > MaxPolymorphic {
				return false
			}
			seen := map[*objects.HiddenClass]bool{}
			for _, e := range slot.Entries {
				if seen[e.HC] {
					return false
				}
				seen[e.HC] = true
			}
			if slot.State == Megamorphic && len(slot.Entries) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
