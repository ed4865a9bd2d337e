package ic

import (
	"testing"

	"ricjs/internal/source"
)

// TestKeyedSlotTransitionTable mirrors TestSlotTransitionTable for the
// keyed-access state machine: AccessKeyedLoad/Store slots holding
// LoadElement/StoreElement/KeyedNamed handlers must walk exactly the same
// edges as named slots — the state machine is access-kind agnostic, and
// this table pins that there is no keyed-specific drift.
func TestKeyedSlotTransitionTable(t *testing.T) {
	type op struct {
		kind string // add | preload | remove | force
		hc   int
		ok   bool // for preload: expected return
	}
	cases := []struct {
		name    string
		access  AccessKind
		handler func(i int) Handler
		ops     []op
		state   State
		entries int
	}{
		{
			"keyed-load-uninitialized", AccessKeyedLoad,
			func(i int) Handler { return LoadElement{} },
			nil, Uninitialized, 0,
		},
		{
			"keyed-load-mono", AccessKeyedLoad,
			func(i int) Handler { return LoadElement{} },
			[]op{{kind: "add", hc: 0}}, Monomorphic, 1,
		},
		{
			"keyed-load-re-add-same-hc", AccessKeyedLoad,
			func(i int) Handler { return LoadElement{} },
			[]op{{kind: "add", hc: 0}, {kind: "add", hc: 0}}, Monomorphic, 1,
		},
		{
			"keyed-load-poly", AccessKeyedLoad,
			func(i int) Handler { return LoadElement{} },
			[]op{{kind: "add", hc: 0}, {kind: "add", hc: 1}}, Polymorphic, 2,
		},
		{
			"keyed-load-mega-on-overflow", AccessKeyedLoad,
			func(i int) Handler { return LoadElement{} },
			[]op{
				{kind: "add", hc: 0}, {kind: "add", hc: 1}, {kind: "add", hc: 2},
				{kind: "add", hc: 3}, {kind: "add", hc: 4},
			}, Megamorphic, 0,
		},
		{
			"keyed-store-mono", AccessKeyedStore,
			func(i int) Handler { return StoreElement{} },
			[]op{{kind: "add", hc: 0}}, Monomorphic, 1,
		},
		{
			"keyed-store-poly-at-limit", AccessKeyedStore,
			func(i int) Handler { return StoreElement{} },
			[]op{
				{kind: "add", hc: 0}, {kind: "add", hc: 1}, {kind: "add", hc: 2},
				{kind: "add", hc: 3},
			}, Polymorphic, MaxPolymorphic,
		},
		{
			"keyed-named-mono", AccessKeyedLoad,
			func(i int) Handler { return KeyedNamed{Name: "k", Inner: LoadField{Offset: i}} },
			[]op{{kind: "add", hc: 0}}, Monomorphic, 1,
		},
		{
			"keyed-named-preload-into-empty", AccessKeyedLoad,
			func(i int) Handler { return KeyedNamed{Name: "k", Inner: LoadField{Offset: i}} },
			[]op{{kind: "preload", hc: 0, ok: true}}, Monomorphic, 1,
		},
		{
			"keyed-preload-duplicate-hc-rejected", AccessKeyedLoad,
			func(i int) Handler { return LoadElement{} },
			[]op{{kind: "add", hc: 0}, {kind: "preload", hc: 0, ok: false}}, Monomorphic, 1,
		},
		{
			"keyed-preload-at-limit-rejected", AccessKeyedStore,
			func(i int) Handler { return StoreElement{} },
			[]op{
				{kind: "add", hc: 0}, {kind: "add", hc: 1}, {kind: "add", hc: 2},
				{kind: "add", hc: 3}, {kind: "preload", hc: 4, ok: false},
			}, Polymorphic, MaxPolymorphic,
		},
		{
			"keyed-preload-into-mega-rejected", AccessKeyedLoad,
			func(i int) Handler { return LoadElement{} },
			[]op{{kind: "force"}, {kind: "preload", hc: 0, ok: false}}, Megamorphic, 0,
		},
		{
			"keyed-preload-then-miss-promotes", AccessKeyedLoad,
			func(i int) Handler { return KeyedNamed{Name: "k", Inner: LoadField{Offset: i}} },
			[]op{{kind: "preload", hc: 0, ok: true}, {kind: "add", hc: 1}}, Polymorphic, 2,
		},
		{
			"keyed-remove-last-entry-resets", AccessKeyedLoad,
			func(i int) Handler { return LoadElement{} },
			[]op{{kind: "add", hc: 0}, {kind: "remove", hc: 0}}, Uninitialized, 0,
		},
		{
			"keyed-remove-to-mono", AccessKeyedStore,
			func(i int) Handler { return StoreElement{} },
			[]op{{kind: "add", hc: 0}, {kind: "add", hc: 1}, {kind: "remove", hc: 0}}, Monomorphic, 1,
		},
		{
			"keyed-remove-unknown-hc-noop", AccessKeyedLoad,
			func(i int) Handler { return LoadElement{} },
			[]op{{kind: "add", hc: 0}, {kind: "remove", hc: 1}}, Monomorphic, 1,
		},
		{
			"keyed-force-from-mono", AccessKeyedLoad,
			func(i int) Handler { return LoadElement{} },
			[]op{{kind: "add", hc: 0}, {kind: "force"}}, Megamorphic, 0,
		},
		{
			"keyed-force-is-terminal-for-remove", AccessKeyedStore,
			func(i int) Handler { return StoreElement{} },
			[]op{{kind: "add", hc: 0}, {kind: "force"}, {kind: "remove", hc: 0}}, Megamorphic, 0,
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			_, hcs := hcChain(t, MaxPolymorphic+2)
			slot := &Slot{SiteInfo: siteInfo(source.At("t.js", 2, 1), c.access, "")}
			for i, o := range c.ops {
				switch o.kind {
				case "add":
					slot.Add(hcs[o.hc], c.handler(o.hc))
				case "preload":
					if got := slot.Preload(hcs[o.hc], c.handler(o.hc)); got != o.ok {
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

// TestKeyedSlotLookupPositions pins the dispatch-cost contract for keyed
// entries, matching the named-slot behaviour.
func TestKeyedSlotLookupPositions(t *testing.T) {
	_, hcs := hcChain(t, 3)
	slot := &Slot{SiteInfo: &SiteInfo{Kind: AccessKeyedLoad}}
	for _, hc := range hcs {
		slot.Add(hc, LoadElement{})
	}
	for want, hc := range hcs {
		if _, found, extra := slot.Lookup(hc); !found || extra != want {
			t.Errorf("Lookup(hc%d): found=%v extra=%d, want true %d", want, found, extra, want)
		}
	}
	if _, found, extra := slot.Lookup(nil); found || extra != len(hcs) {
		t.Errorf("missing class: found=%v extra=%d, want false %d", found, extra, len(hcs))
	}
}

// TestKeyedPreloadedFlagMarksRICEntries: record-installed keyed entries
// carry Preloaded exactly like named ones do.
func TestKeyedPreloadedFlagMarksRICEntries(t *testing.T) {
	_, hcs := hcChain(t, 2)
	slot := &Slot{SiteInfo: &SiteInfo{Kind: AccessKeyedStore}}
	slot.Add(hcs[0], StoreElement{})
	if !slot.Preload(hcs[1], KeyedNamed{Name: "k", Inner: StoreField{Offset: 1}}) {
		t.Fatal("preload rejected")
	}
	if e, _, _ := slot.Lookup(hcs[0]); e.Preloaded {
		t.Error("miss-installed keyed entry marked preloaded")
	}
	if e, _, _ := slot.Lookup(hcs[1]); !e.Preloaded {
		t.Error("record-installed keyed entry not marked preloaded")
	}
}
