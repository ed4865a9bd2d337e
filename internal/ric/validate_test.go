package ric

import (
	"runtime"
	"testing"
	"time"

	"ricjs/internal/bytecode"
	"ricjs/internal/vm"
	"ricjs/internal/workloads"
)

// errText renders a verdict for comparison; nil renders empty.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// memoized reports the serial of the program whose verdict the record's
// memo holds, or 0 when it holds none.
func memoized(r *Record) uint64 {
	if v := r.memo.Load(); v != nil {
		return v.serial
	}
	return 0
}

// TestValidateMemoMatchesFresh checks, for every profile's record against
// its own program, that the first Validate, a memoized repeat and an
// unmemoized check give the same verdict, both on the extracted record
// and on its decoded copy (the form sessions share).
func TestValidateMemoMatchesFresh(t *testing.T) {
	for _, p := range workloads.Profiles {
		prog := compileSrc(t, p.Script, p.Source())
		v := vm.New(vm.Options{AddressSeed: 1})
		if _, err := v.RunProgram(prog); err != nil {
			t.Fatalf("%s: initial run: %v", p.Name, err)
		}
		extracted := Extract(v, p.Script, Config{})
		decoded, err := Decode(extracted.Encode())
		if err != nil {
			t.Fatalf("%s: decode: %v", p.Name, err)
		}
		for _, rec := range []*Record{extracted, decoded} {
			_, freshErr := rec.validate([]*bytecode.Program{prog})
			fresh := errText(freshErr)
			first := errText(rec.Validate(prog))
			memo := errText(rec.Validate(prog))
			if fresh != "" || first != fresh || memo != fresh {
				t.Errorf("%s: fresh %q, first %q, memoized %q; want all nil", p.Name, fresh, first, memo)
			}
			if memoized(rec) != prog.Serial() {
				t.Errorf("%s: memo does not hold the program's verdict", p.Name)
			}
		}
	}
}

// TestValidateMemoKeepsStaleVerdict validates a record against an edited
// version of its script, alternating with the program it came from: the
// stale program must keep failing with the same error and the valid one
// keep passing, however the calls interleave and whichever verdict the
// single-entry memo holds.
func TestValidateMemoKeepsStaleVerdict(t *testing.T) {
	_, rec := initialRun(t, pointLib, Config{})
	valid := compileSrc(t, "lib.js", pointLib)
	// One leading line moves every access site, so no site the record
	// names exists in the edited program.
	stale := compileSrc(t, "lib.js", "var pad = 0;\n"+pointLib)
	_, staleErr := rec.validate([]*bytecode.Program{stale})
	want := errText(staleErr)
	if want == "" {
		t.Fatal("edited program validated; the test needs a stale record")
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 2; j++ {
			if got := errText(rec.Validate(stale)); got != want {
				t.Fatalf("round %d: stale verdict %q, want %q", i, got, want)
			}
			if memoized(rec) != stale.Serial() {
				t.Fatalf("round %d: memo does not hold the stale verdict", i)
			}
		}
		if err := rec.Validate(valid); err != nil {
			t.Fatalf("round %d: valid program rejected: %v", i, err)
		}
	}
}

// TestValidateMemoDoesNotPinProgram checks that a record's memo lets go of
// the program it validated: once nothing else holds the program, a
// collection frees it, so a code cache that evicts a program gets its
// memory back even while the record stays cached.
func TestValidateMemoDoesNotPinProgram(t *testing.T) {
	src := `function P(x) { this.x = x; } var p = new P(1); print(p.x);`
	prog := compileSrc(t, "pin.js", src)
	v := vm.New(vm.Options{AddressSeed: 1})
	if _, err := v.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	rec := Extract(v, "pin.js", Config{})
	v = nil
	freed := make(chan struct{})
	func() {
		p := compileSrc(t, "pin.js", src)
		if err := rec.Validate(p); err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(p, func(*bytecode.Program) { close(freed) })
	}()
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-freed:
			if memoized(rec) == 0 {
				t.Fatal("memo lost its verdict")
			}
			runtime.KeepAlive(prog)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the validated program stayed reachable through the record's memo")
}

// TestValidateManyProgramsNotMemoized checks that a check against several
// programs at once bypasses the memo.
func TestValidateManyProgramsNotMemoized(t *testing.T) {
	_, rec := initialRun(t, pointLib, Config{})
	other := compileSrc(t, "other.js", "var q = {a: 1}; q.a;")
	if err := rec.Validate(compileSrc(t, "lib.js", pointLib), other); err != nil {
		t.Fatal(err)
	}
	if memoized(rec) != 0 {
		t.Fatal("multi-program check stored a verdict")
	}
}

// TestReusePreloadsScriptRegisteredAfterIndex runs a two-script Reuse
// session in which the reuser indexes the first script's slot slab while
// that script runs; the dependents the second script holds must still
// preload once it is registered.
func TestReusePreloadsScriptRegisteredAfterIndex(t *testing.T) {
	lib := compileSrc(t, "a.js", `
		function Point(x, y) { this.x = x; this.y = y; }
		var pts = [];
		for (var i = 0; i < 8; i++) pts.push(new Point(i, i + 1));`)
	app := compileSrc(t, "b.js", `
		function norm(p) { return p.x * p.x + p.y * p.y; }
		var s = 0;
		for (var j = 0; j < 8; j++) s += norm(pts[j]);
		print(s);`)
	initial := vm.New(vm.Options{})
	for _, prog := range []*bytecode.Program{lib, app} {
		if _, err := initial.RunProgram(prog); err != nil {
			t.Fatal(err)
		}
	}
	rec := Extract(initial, "lib", Config{})

	reuser := NewReuser(rec)
	v := vm.New(vm.Options{Hooks: reuser})
	reuser.Attach(v)
	v.RegisterProgram(lib)
	reuser.ReplayPreloads()
	if _, err := v.RunProgram(lib); err != nil {
		t.Fatal(err)
	}
	if len(reuser.progs) != 1 {
		t.Fatalf("reuser tracks %d programs after the first script, want 1", len(reuser.progs))
	}
	v.RegisterProgram(app)
	reuser.ReplayPreloads()
	preloaded := 0
	for _, vec := range v.Vectors() {
		for i := range vec.Slots {
			s := &vec.Slots[i]
			if *s.Script != "b.js" {
				continue
			}
			for _, e := range s.Entries {
				if e.Preloaded {
					preloaded++
				}
			}
		}
	}
	if preloaded == 0 {
		t.Fatal("no dependent of the later script was preloaded")
	}
	if _, err := v.RunProgram(app); err != nil {
		t.Fatal(err)
	}
}

// TestVerdictOrdinalsResolveSlab checks the slab ordinals a verdict
// carries, for every profile's record: each dependent in the program's
// script resolves to the slot a VM registers for its site, with the
// recorded access kind and name, and a dependent of another script
// resolves to nothing.
func TestVerdictOrdinalsResolveSlab(t *testing.T) {
	for _, p := range workloads.Profiles {
		prog := compileSrc(t, p.Script, p.Source())
		v := vm.New(vm.Options{AddressSeed: 1})
		if _, err := v.RunProgram(prog); err != nil {
			t.Fatalf("%s: initial run: %v", p.Name, err)
		}
		rec := Extract(v, p.Script, Config{})
		other := compileSrc(t, "other.js", "function f(o) { return o.x; } f({x: 1});")
		fresh := vm.New(vm.Options{AddressSeed: 2})
		fresh.RegisterProgram(prog)
		fresh.RegisterProgram(other)
		regs := fresh.Registrations()
		ords := rec.verdictFor(prog).ords
		otherOrds := rec.verdictFor(other).ords
		resolved := 0
		for hcid, deps := range rec.Deps {
			for j, d := range deps {
				if o := otherOrds[hcid][j]; o != -1 {
					t.Errorf("%s: dependent %s resolves to ordinal %d in another script", p.Name, d.Site, o)
				}
				o := ords[hcid][j]
				if o < 0 || int(o) >= len(regs[0].Slab) {
					t.Errorf("%s: dependent %s has ordinal %d of %d slots", p.Name, d.Site, o, len(regs[0].Slab))
					continue
				}
				s := &regs[0].Slab[o]
				if s.Site() != d.Site || s.Kind != d.Kind || s.Name != d.Name {
					t.Errorf("%s: dependent %s %s %q resolves to slot %s %s %q",
						p.Name, d.Site, d.Kind, d.Name, s.Site(), s.Kind, s.Name)
				}
				resolved++
			}
		}
		if resolved == 0 && rec.Stats.DependentSlots > 0 {
			t.Errorf("%s: no dependent resolved", p.Name)
		}
	}
}
