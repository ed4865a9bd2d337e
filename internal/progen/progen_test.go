package progen

import (
	"strings"
	"testing"

	"ricjs/internal/bytecode"
	"ricjs/internal/parser"
	"ricjs/internal/ric"
	"ricjs/internal/snapshot"
	"ricjs/internal/vm"
)

func TestGeneratorDeterministic(t *testing.T) {
	a := New(42).Program()
	b := New(42).Program()
	if a != b {
		t.Fatal("same seed must generate the same program")
	}
	c := New(43).Program()
	if a == c {
		t.Fatal("different seeds should generate different programs")
	}
}

func TestGeneratedProgramsParseCompileRun(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		src := New(seed).Program()
		prog, err := parser.Parse("gen.js", src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v\n%s", seed, err, src)
		}
		bc, err := bytecode.Compile(prog)
		if err != nil {
			t.Fatalf("seed %d: compile: %v\n%s", seed, err, src)
		}
		v := vm.New(vm.Options{MaxSteps: 2_000_000})
		if _, err := v.RunProgram(bc); err != nil {
			t.Fatalf("seed %d: run: %v\n%s", seed, err, src)
		}
		if !strings.Contains(v.Output(), "|") {
			t.Fatalf("seed %d: checksum missing: %q", seed, v.Output())
		}
	}
}

// The central differential property: for every generated program, the
// Initial run, the Conventional Reuse run, and the RIC Reuse run print
// identical output — across distinct simulated address spaces.
func TestDifferentialEquivalence(t *testing.T) {
	seeds := 120
	if testing.Short() {
		seeds = 25
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		src := New(seed).Program()
		prog, err := parser.Parse("gen.js", src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		bc, err := bytecode.Compile(prog)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		initial := vm.New(vm.Options{MaxSteps: 2_000_000})
		if _, err := initial.RunProgram(bc); err != nil {
			t.Fatalf("seed %d: initial: %v\n%s", seed, err, src)
		}
		rec := ric.Extract(initial, "gen.js", ric.Config{})

		conv := vm.New(vm.Options{MaxSteps: 2_000_000})
		if _, err := conv.RunProgram(bc); err != nil {
			t.Fatalf("seed %d: conventional: %v", seed, err)
		}

		reuser := ric.NewReuser(rec, nil, nil)
		reuse := vm.New(vm.Options{MaxSteps: 2_000_000, Hooks: reuser})
		reuser.Attach(reuse)
		reuse.RegisterProgram(bc)
		reuser.ReplayPreloads()
		if _, err := reuse.RunProgram(bc); err != nil {
			t.Fatalf("seed %d: reuse: %v\n%s", seed, err, src)
		}

		if initial.Output() != conv.Output() {
			t.Fatalf("seed %d: conventional diverged\ninitial: %q\nconv:    %q\nprogram:\n%s",
				seed, initial.Output(), conv.Output(), src)
		}
		if initial.Output() != reuse.Output() {
			t.Fatalf("seed %d: RIC diverged\ninitial: %q\nric:     %q\nprogram:\n%s",
				seed, initial.Output(), reuse.Output(), src)
		}
	}
}

// TestProgenDifferential is the fixed-seed-range sweep ci.sh runs by name:
// for every seed, four executions of the same program must agree —
// plain, Conventional (second run, warm code cache semantics), RIC Reuse,
// and a snapshot-restored heap whose observable state (sum/log/check)
// matches the donor's byte for byte. The range starts at 200 to cover
// programs dense in the keyed/delete/prototype-call statement kinds.
func TestProgenDifferential(t *testing.T) {
	lo, hi := uint64(200), uint64(260)
	if testing.Short() {
		hi = lo + 15
	}
	for seed := lo; seed <= hi; seed++ {
		src := New(seed).Program()
		prog, err := parser.Parse("gen.js", src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		bc, err := bytecode.Compile(prog)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		initial := vm.New(vm.Options{MaxSteps: 2_000_000})
		if _, err := initial.RunProgram(bc); err != nil {
			t.Fatalf("seed %d: initial: %v\n%s", seed, err, src)
		}
		rec := ric.Extract(initial, "gen.js", ric.Config{})

		conv := vm.New(vm.Options{MaxSteps: 2_000_000})
		if _, err := conv.RunProgram(bc); err != nil {
			t.Fatalf("seed %d: conventional: %v", seed, err)
		}

		reuser := ric.NewReuser(rec, nil, nil)
		reuse := vm.New(vm.Options{MaxSteps: 2_000_000, Hooks: reuser})
		reuser.Attach(reuse)
		reuse.RegisterProgram(bc)
		reuser.ReplayPreloads()
		if _, err := reuse.RunProgram(bc); err != nil {
			t.Fatalf("seed %d: reuse: %v\n%s", seed, err, src)
		}

		if initial.Output() != conv.Output() {
			t.Fatalf("seed %d: conventional diverged\ninitial: %q\nconv:    %q\nprogram:\n%s",
				seed, initial.Output(), conv.Output(), src)
		}
		if initial.Output() != reuse.Output() {
			t.Fatalf("seed %d: RIC diverged\ninitial: %q\nric:     %q\nprogram:\n%s",
				seed, initial.Output(), reuse.Output(), src)
		}

		snap, err := snapshot.Capture(initial, "gen")
		if err != nil {
			t.Fatalf("seed %d: capture: %v", seed, err)
		}
		restored := vm.New(vm.Options{MaxSteps: 2_000_000})
		restored.RegisterProgram(bc)
		if err := snapshot.Restore(restored, snap); err != nil {
			t.Fatalf("seed %d: restore: %v", seed, err)
		}
		for _, name := range []string{"sum", "log", "check"} {
			want, ok := initial.Global().GetNamed(name)
			if !ok {
				t.Fatalf("seed %d: donor missing global %q", seed, name)
			}
			got, ok := restored.Global().GetNamed(name)
			if !ok {
				t.Fatalf("seed %d: restored heap missing global %q", seed, name)
			}
			if got.ToString() != want.ToString() {
				t.Fatalf("seed %d: snapshot diverged on %s\nwant: %q\ngot:  %q\nprogram:\n%s",
					seed, name, want.ToString(), got.ToString(), src)
			}
		}
	}
}

// Reusing a record extracted from a DIFFERENT generated program must
// never corrupt execution — only ever degrade to conventional behaviour.
func TestCrossProgramRecordSafety(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		srcA := New(seed).Program()
		srcB := New(seed + 1000).Program()
		progA, err := parser.Parse("gen.js", srcA) // same script name on purpose:
		if err != nil {
			t.Fatal(err)
		}
		bcA, err := bytecode.Compile(progA)
		if err != nil {
			t.Fatal(err)
		}
		progB, err := parser.Parse("gen.js", srcB) // sites may collide coincidentally
		if err != nil {
			t.Fatal(err)
		}
		bcB, err := bytecode.Compile(progB)
		if err != nil {
			t.Fatal(err)
		}

		donor := vm.New(vm.Options{MaxSteps: 2_000_000})
		if _, err := donor.RunProgram(bcA); err != nil {
			t.Fatalf("seed %d: donor: %v", seed, err)
		}
		rec := ric.Extract(donor, "gen.js", ric.Config{})

		plain := vm.New(vm.Options{MaxSteps: 2_000_000})
		if _, err := plain.RunProgram(bcB); err != nil {
			t.Fatalf("seed %d: plain: %v", seed, err)
		}

		reuser := ric.NewReuser(rec, nil, nil)
		victim := vm.New(vm.Options{MaxSteps: 2_000_000, Hooks: reuser})
		reuser.Attach(victim)
		victim.RegisterProgram(bcB)
		reuser.ReplayPreloads()
		if _, err := victim.RunProgram(bcB); err != nil {
			t.Fatalf("seed %d: victim: %v", seed, err)
		}
		if plain.Output() != victim.Output() {
			t.Fatalf("seed %d: foreign record corrupted execution\nplain:  %q\nvictim: %q\nprogram B:\n%s",
				seed, plain.Output(), victim.Output(), srcB)
		}
	}
}
