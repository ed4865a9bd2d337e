package ic

import (
	"strings"
	"testing"

	"ricjs/internal/source"
)

// TestSlotTransitionTable drives the feedback-slot state machine through
// every edge with a table of operation scripts: miss-installs (Add),
// record preloads (Preload), prototype-invalidation evictions (Remove) and
// the keyed-site shortcut (ForceMegamorphic). hc indices select hidden
// classes from a fresh chain per case.
func TestSlotTransitionTable(t *testing.T) {
	type op struct {
		kind string // add | preload | remove | force
		hc   int
		ok   bool // for preload: expected return
	}
	cases := []struct {
		name    string
		ops     []op
		state   State
		entries int
	}{
		{"uninitialized", nil, Uninitialized, 0},
		{"mono", []op{{kind: "add", hc: 0}}, Monomorphic, 1},
		{"mono-re-add-same-hc", []op{{kind: "add", hc: 0}, {kind: "add", hc: 0}}, Monomorphic, 1},
		{"poly", []op{{kind: "add", hc: 0}, {kind: "add", hc: 1}}, Polymorphic, 2},
		{"poly-at-limit", []op{
			{kind: "add", hc: 0}, {kind: "add", hc: 1}, {kind: "add", hc: 2}, {kind: "add", hc: 3},
		}, Polymorphic, MaxPolymorphic},
		{"mega-on-overflow", []op{
			{kind: "add", hc: 0}, {kind: "add", hc: 1}, {kind: "add", hc: 2}, {kind: "add", hc: 3},
			{kind: "add", hc: 4},
		}, Megamorphic, 0},
		{"mega-absorbs-adds", []op{
			{kind: "add", hc: 0}, {kind: "add", hc: 1}, {kind: "add", hc: 2}, {kind: "add", hc: 3},
			{kind: "add", hc: 4}, {kind: "add", hc: 5},
		}, Megamorphic, 0},
		{"preload-into-empty", []op{{kind: "preload", hc: 0, ok: true}}, Monomorphic, 1},
		{"preload-duplicate-hc-rejected", []op{
			{kind: "add", hc: 0}, {kind: "preload", hc: 0, ok: false},
		}, Monomorphic, 1},
		{"preload-at-limit-rejected", []op{
			{kind: "add", hc: 0}, {kind: "add", hc: 1}, {kind: "add", hc: 2}, {kind: "add", hc: 3},
			{kind: "preload", hc: 4, ok: false},
		}, Polymorphic, MaxPolymorphic},
		{"preload-into-mega-rejected", []op{
			{kind: "force"}, {kind: "preload", hc: 0, ok: false},
		}, Megamorphic, 0},
		{"preload-then-miss-promotes", []op{
			{kind: "preload", hc: 0, ok: true}, {kind: "add", hc: 1},
		}, Polymorphic, 2},
		{"remove-last-entry-resets", []op{
			{kind: "add", hc: 0}, {kind: "remove", hc: 0},
		}, Uninitialized, 0},
		{"remove-to-mono", []op{
			{kind: "add", hc: 0}, {kind: "add", hc: 1}, {kind: "remove", hc: 0},
		}, Monomorphic, 1},
		{"remove-unknown-hc-noop", []op{
			{kind: "add", hc: 0}, {kind: "remove", hc: 1},
		}, Monomorphic, 1},
		{"remove-then-refill", []op{
			{kind: "add", hc: 0}, {kind: "remove", hc: 0}, {kind: "add", hc: 1},
		}, Monomorphic, 1},
		{"force-from-mono", []op{{kind: "add", hc: 0}, {kind: "force"}}, Megamorphic, 0},
		{"force-is-terminal-for-remove", []op{
			{kind: "add", hc: 0}, {kind: "force"}, {kind: "remove", hc: 0},
		}, Megamorphic, 0},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			_, hcs := hcChain(t, MaxPolymorphic+2)
			slot := &Slot{SiteInfo: siteInfo(source.At("t.js", 1, 1), AccessLoad, "p")}
			for i, o := range c.ops {
				switch o.kind {
				case "add":
					slot.Add(hcs[o.hc], LoadField{Offset: o.hc})
				case "preload":
					if got := slot.Preload(hcs[o.hc], LoadField{Offset: o.hc}); got != o.ok {
						t.Fatalf("op %d: Preload = %v, want %v", i, got, o.ok)
					}
				case "remove":
					slot.Remove(hcs[o.hc])
				case "force":
					slot.ForceMegamorphic()
				default:
					t.Fatalf("op %d: unknown kind %q", i, o.kind)
				}
			}
			if slot.State != c.state {
				t.Errorf("state = %v, want %v", slot.State, c.state)
			}
			if len(slot.Entries) != c.entries {
				t.Errorf("entries = %d, want %d", len(slot.Entries), c.entries)
			}
		})
	}
}

// TestSlotLookupPositions pins Lookup's extra-entries-examined contract,
// which the profiler charges as polymorphic dispatch cost and the trace
// reports as the hit event's N payload.
func TestSlotLookupPositions(t *testing.T) {
	_, hcs := hcChain(t, 3)
	slot := &Slot{}
	for i, hc := range hcs {
		slot.Add(hc, LoadField{Offset: i})
	}
	for want, hc := range hcs {
		if _, found, extra := slot.Lookup(hc); !found || extra != want {
			t.Errorf("Lookup(hc%d): found=%v extra=%d, want true %d", want, found, extra, want)
		}
	}
	_, found, extra := slot.Lookup(nil)
	if found || extra != len(hcs) {
		t.Errorf("missing class: found=%v extra=%d, want false %d", found, extra, len(hcs))
	}
}

// TestAccessKindTable pins the classification predicates the VM, the
// reuser's slot-matching and the exporters all branch on.
func TestAccessKindTable(t *testing.T) {
	cases := []struct {
		kind                     AccessKind
		str                      string
		isGlobal, isStore, keyed bool
	}{
		{AccessLoad, "load", false, false, false},
		{AccessStore, "store", false, true, false},
		{AccessLoadGlobal, "load-global", true, false, false},
		{AccessStoreGlobal, "store-global", true, true, false},
		{AccessKeyedLoad, "keyed-load", false, false, true},
		{AccessKeyedStore, "keyed-store", false, true, true},
		{AccessKind(99), "access(99)", false, false, false},
	}
	for _, c := range cases {
		if got := c.kind.String(); got != c.str {
			t.Errorf("%d.String() = %q, want %q", c.kind, got, c.str)
		}
		if got := c.kind.IsGlobal(); got != c.isGlobal {
			t.Errorf("%v.IsGlobal() = %v, want %v", c.kind, got, c.isGlobal)
		}
		if got := c.kind.IsStore(); got != c.isStore {
			t.Errorf("%v.IsStore() = %v, want %v", c.kind, got, c.isStore)
		}
		if got := c.kind.IsKeyed(); got != c.keyed {
			t.Errorf("%v.IsKeyed() = %v, want %v", c.kind, got, c.keyed)
		}
	}
	for s, want := range map[State]string{
		Uninitialized: "uninitialized", Monomorphic: "monomorphic",
		Polymorphic: "polymorphic", Megamorphic: "megamorphic",
		State(9): "state(9)",
	} {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", s, got, want)
		}
	}
}

// TestHandlerKindNames pins the diagnostic names, including the
// out-of-range fallback.
func TestHandlerKindNames(t *testing.T) {
	for k, want := range map[HandlerKind]string{
		KindLoadField:         "LoadField",
		KindStoreField:        "StoreField",
		KindLoadArrayLength:   "LoadArrayLength",
		KindLoadFromPrototype: "LoadFromPrototype",
		KindStoreTransition:   "StoreTransition",
		KindLoadMissing:       "LoadMissing",
		KindLoadElement:       "LoadElement",
		KindStoreElement:      "StoreElement",
		KindKeyedNamed:        "KeyedNamed",
		HandlerKind(77):       "HandlerKind(77)",
	} {
		if got := k.String(); got != want {
			t.Errorf("kind %d String() = %q, want %q", k, got, want)
		}
	}
}

// TestRebuildRejectsNonCIDescriptors pins Rebuild's refusal paths: kinds
// that are context-dependent by definition and malformed nested keyed
// descriptors must fail rather than fabricate a handler.
func TestRebuildRejectsNonCIDescriptors(t *testing.T) {
	if _, err := (CIDescriptor{Kind: KindLoadFromPrototype}).Rebuild(); err == nil {
		t.Error("context-dependent kind must not rebuild")
	}
	if _, err := (CIDescriptor{Kind: KindKeyedNamed, Inner: KindKeyedNamed}).Rebuild(); err == nil {
		t.Error("nested keyed descriptor must not rebuild")
	}
	if _, err := (CIDescriptor{Kind: KindKeyedNamed, Inner: KindLoadFromPrototype}).Rebuild(); err == nil {
		t.Error("keyed descriptor with a context-dependent inner kind must not rebuild")
	}
	h, err := (CIDescriptor{Kind: KindKeyedNamed, Inner: KindLoadField, Offset: 2, Name: "k"}).Rebuild()
	if err != nil {
		t.Fatalf("keyed rebuild: %v", err)
	}
	kn, ok := h.(KeyedNamed)
	if !ok || kn.Name != "k" {
		t.Fatalf("rebuilt handler = %#v", h)
	}
	if lf, ok := kn.Inner.(LoadField); !ok || lf.Offset != 2 {
		t.Fatalf("rebuilt inner = %#v", kn.Inner)
	}
}

// TestInsertDenormalizesHandlers pins the install-time denormalization the
// VM's inline hit paths switch on: field handlers carry their offset,
// array handlers need none, and every other handler stays on the general
// path. Find returns the entry in place plus the entries scanned before it.
func TestInsertDenormalizesHandlers(t *testing.T) {
	_, hcs := hcChain(t, 5)
	cases := []struct {
		h      Handler
		fast   FastOp
		offset int32
	}{
		{LoadField{Offset: 3}, FastLoadField, 3},
		{StoreField{Offset: 2}, FastStoreField, 2},
		{LoadArrayLength{}, FastLoadArrayLength, 0},
		{LoadElement{}, FastLoadElement, 0},
		{StoreElement{}, FastNone, 0},
	}
	for i, c := range cases {
		var s Slot
		if i > 0 {
			s.Add(hcs[0], LoadField{Offset: 0})
		}
		s.Add(hcs[i], c.h)
		e, scanned := s.Find(hcs[i])
		if e == nil || e.H != c.h || e.Fast != c.fast || e.FastOffset != c.offset {
			t.Errorf("%T: entry %+v, want Fast %d at offset %d", c.h, e, c.fast, c.offset)
		}
		if want := len(s.Entries) - 1; scanned != want {
			t.Errorf("%T: Find scanned %d entries before the match, want %d", c.h, scanned, want)
		}
		e.Preloaded = true
		if !s.Entries[len(s.Entries)-1].Preloaded {
			t.Errorf("%T: Find returned a copy, not the entry in place", c.h)
		}
	}
	var s Slot
	s.Add(hcs[0], LoadField{Offset: 0})
	if e, scanned := s.Find(hcs[1]); e != nil || scanned != 1 {
		t.Fatalf("Find of an uncached class = (%+v, %d), want (nil, 1)", e, scanned)
	}
}

// TestVectorStringRendersEntries covers the diagnostic dump, preloaded
// marker included.
func TestVectorStringRendersEntries(t *testing.T) {
	_, hcs := hcChain(t, 2)
	v := &Vector{FuncName: "f", Slots: []Slot{{SiteInfo: siteInfo(source.At("t.js", 3, 7), AccessLoad, "p")}}}
	slot := v.Slot(0)
	slot.Add(hcs[0], LoadField{Offset: 0})
	slot.Preload(hcs[1], LoadField{Offset: 1})
	s := v.String()
	for _, want := range []string{"ICVector(f)", "t.js:3:7", `"p"`, "polymorphic", "preloaded", "LoadField[1]"} {
		if !strings.Contains(s, want) {
			t.Errorf("Vector.String() missing %q:\n%s", want, s)
		}
	}
}

// TestPreloadedFlagMarksRICEntries distinguishes miss-installed from
// record-installed entries: only the latter carry Preloaded, the bit that
// turns a first hit into an averted miss.
func TestPreloadedFlagMarksRICEntries(t *testing.T) {
	_, hcs := hcChain(t, 2)
	slot := &Slot{}
	slot.Add(hcs[0], LoadField{Offset: 0})
	if !slot.Preload(hcs[1], LoadField{Offset: 1}) {
		t.Fatal("preload rejected")
	}
	if e, _, _ := slot.Lookup(hcs[0]); e.Preloaded {
		t.Error("miss-installed entry marked preloaded")
	}
	if e, _, _ := slot.Lookup(hcs[1]); !e.Preloaded {
		t.Error("record-installed entry not marked preloaded")
	}
}
