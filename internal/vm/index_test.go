package vm

import (
	"os"
	"strings"
	"testing"

	"ricjs/internal/bytecode"
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

// TestRegistrationsSeeLaterScripts registers two scripts and checks each
// registration's slab: one slot per site in WalkProtos order, pointing at
// the proto's own site entry, shared with the function's ICVector.
func TestRegistrationsSeeLaterScripts(t *testing.T) {
	v := New(Options{AddressSeed: 1})
	first := compileFor(t, "a.js", "function f(o) { return o.p; } f({p: 1});")
	second := compileFor(t, "b.js", "function g(o) { return o.q; } g({q: 2});")
	v.RegisterProgram(first)
	v.RegisterProgram(second)
	v.RegisterProgram(first) // already registered: no new slab
	regs := v.Registrations()
	if len(regs) != 2 || regs[0].Prog != first || regs[1].Prog != second {
		t.Fatalf("registrations = %v, want the two programs in order", regs)
	}
	for _, r := range regs {
		ord := 0
		r.Prog.Toplevel.WalkProtos(func(p *bytecode.FuncProto) {
			vec := v.feedback[p]
			for i := range p.Sites {
				s := &r.Slab[ord]
				if s.SiteInfo != &p.Sites[i] {
					t.Errorf("%s: slab slot %d does not point at %s", r.Prog.Script, ord, p.Sites[i].Site())
				}
				if &vec.Slots[i] != s {
					t.Errorf("%s: vector slot %d of %s is not slab slot %d", r.Prog.Script, i, p.FunctionName(), ord)
				}
				ord++
			}
		})
		if ord == 0 || ord != len(r.Slab) {
			t.Errorf("%s: slab holds %d slots for %d sites", r.Prog.Script, len(r.Slab), ord)
		}
	}
}
