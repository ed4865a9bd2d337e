package vm

import (
	"os"
	"strings"
	"testing"

	"ricjs/internal/source"
)

// TestBuiltinObjectNamesOrder pins the registration order the identity
// index replays: the static analysis rebuilds the startup object graph in
// this order, so building the index on first read must not change it.
func TestBuiltinObjectNamesOrder(t *testing.T) {
	want, err := os.ReadFile("testdata/builtin_names.golden")
	if err != nil {
		t.Fatal(err)
	}
	v := New(Options{AddressSeed: 1})
	got := strings.Join(v.BuiltinObjectNames(), "\n") + "\n"
	if got != string(want) {
		t.Fatalf("builtin object names changed:\n got %q\nwant %q", got, want)
	}
}

// TestBuiltinIdentityFirstWins checks the dedupe the index replays: the
// print function is registered first as global.print, so it keeps that
// name, and its later console.* registrations are dropped both ways.
func TestBuiltinIdentityFirstWins(t *testing.T) {
	v := New(Options{AddressSeed: 1})
	printFn, ok := v.Global().GetNamed("print")
	if !ok || printFn.Obj() == nil {
		t.Fatal("global print missing")
	}
	if name := v.BuiltinObjectName(printFn.Obj()); name != "global.print" {
		t.Fatalf("print resolves to %q, want global.print", name)
	}
	if o := v.BuiltinObjectByName("global.print"); o != printFn.Obj() {
		t.Fatal("global.print does not resolve to the print function")
	}
	for _, alias := range []string{"console.log", "console.error", "console.warn"} {
		if o := v.BuiltinObjectByName(alias); o != nil {
			t.Errorf("%s resolves to an object; the first registration must win", alias)
		}
	}
	for _, name := range v.BuiltinObjectNames() {
		o := v.BuiltinObjectByName(name)
		if o == nil || v.BuiltinObjectName(o) != name {
			t.Errorf("%s does not round-trip through the identity index", name)
		}
	}
}

// TestConventionalRunBuildsNoSlotIndex checks that the site index is
// built only for a reader: a run without a reuser never calls SlotFor.
func TestConventionalRunBuildsNoSlotIndex(t *testing.T) {
	v, _ := run(t, "function f(o) { return o.p; } var s = 0; for (var i = 0; i < 4; i++) s += f({p: i});")
	if v.slotIndex != nil {
		t.Fatalf("conventional run built a slot index of %d sites", len(v.slotIndex))
	}
}

// TestSlotForSeesLaterScripts registers a second script after the site
// index was first built, as a two-script Reuse session does, and checks
// SlotFor resolves the slots of both scripts.
func TestSlotForSeesLaterScripts(t *testing.T) {
	v := New(Options{AddressSeed: 1})
	first := compileFor(t, "a.js", "function f(o) { return o.p; } f({p: 1});")
	second := compileFor(t, "b.js", "function g(o) { return o.q; } g({q: 2});")
	v.RegisterProgram(first)
	if v.SlotFor(source.Site{Script: "missing.js"}) != nil {
		t.Fatal("unknown site resolved")
	}
	if v.slotIndex == nil {
		t.Fatal("SlotFor did not build the index")
	}
	v.RegisterProgram(second)
	for _, prog := range []string{"a.js", "b.js"} {
		found := 0
		for _, vec := range v.Vectors() {
			for i := range vec.Slots {
				s := &vec.Slots[i]
				if s.Site.Script != prog {
					continue
				}
				if got := v.SlotFor(s.Site); got == nil || got.Site != s.Site {
					t.Errorf("%s: SlotFor(%s) does not return a registered slot", prog, s.Site)
				}
				found++
			}
		}
		if found == 0 {
			t.Errorf("%s registered no slots", prog)
		}
	}
}
