package analysis_test

import (
	"fmt"
	"runtime"
	"testing"

	"ricjs/internal/analysis"
	"ricjs/internal/bytecode"
	"ricjs/internal/ic"
	"ricjs/internal/progen"
	"ricjs/internal/source"
	"ricjs/internal/workloads"
)

// TestSoundnessProgen runs the differential soundness check over the
// progen seeds the differential sweep uses (200-260, dense in keyed,
// delete and prototype-call statements) and over the 400-program corpus.
func TestSoundnessProgen(t *testing.T) {
	var progs []*bytecode.Program
	for seed := uint64(200); seed <= 260; seed++ {
		progs = append(progs, compile(t, fmt.Sprintf("gen-%d.js", seed), progen.New(seed).Program()))
	}
	progs = append(progs, corpus(t)...)
	for _, prog := range progs {
		res := analysis.Analyze(prog)
		if obs, _ := checkSoundness(t, res, prog); obs == 0 {
			t.Fatalf("%s: no site observations", prog.Script)
		}
		if t.Failed() {
			t.Fatalf("%s: unsound", prog.Script)
		}
	}
}

// ctorRootOf returns the instance root shape of the nth top-level
// function declaration of prog.
func ctorRootOf(t *testing.T, res *analysis.Result, prog *bytecode.Program, n int) *analysis.Shape {
	t.Helper()
	decl := prog.Toplevel.Protos[n]
	root := res.CtorRoot(source.Site{Script: decl.Script, Pos: decl.DeclPos})
	if root == nil {
		t.Fatalf("no constructor root for %s", decl.FunctionName())
	}
	return root
}

// onlySite returns the one prediction for a named access kind and name.
func onlySite(t *testing.T, res *analysis.Result, kind ic.AccessKind, name string) *analysis.SitePrediction {
	t.Helper()
	sites := findSites(res, kind, name)
	if len(sites) != 1 {
		t.Fatalf("want exactly one %s %q site, got %d", kind, name, len(sites))
	}
	return sites[0]
}

// lineages returns the set of root shapes a finite prediction draws from.
func lineages(t *testing.T, p *analysis.SitePrediction) map[*analysis.Shape]bool {
	t.Helper()
	if p.Top || p.Dead {
		t.Fatalf("%s: want a finite live prediction", p)
	}
	out := map[*analysis.Shape]bool{}
	for _, s := range p.Shapes {
		out[s.Root()] = true
	}
	return out
}

// TestEngineEdgeCases drives the block-level engine through the control
// flow that decides where states live and when they are shared.
func TestEngineEdgeCases(t *testing.T) {
	t.Run("back-edge into a straight-line run", func(t *testing.T) {
		// The do-while body starts right after straight-line code, so its
		// first instruction is a leader only because the back-edge targets
		// it. The second iteration's receiver (a B) must reach the load.
		prog := compile(t, "t.js", `
			function A() { this.a = 1; }
			function B() { this.b = 2; }
			var n = 0;
			function run() {
				var o = new A();
				var i = 0;
				do {
					n = n + (o.a === undefined ? 0 : 1);
					o = new B();
					i = i + 1;
				} while (i < 3);
			}
			run();
			print(n);`)
		res := analysis.Analyze(prog)
		checkSoundness(t, res, prog)
		got := lineages(t, onlySite(t, res, ic.AccessLoad, "a"))
		for i := 0; i < 2; i++ {
			if root := ctorRootOf(t, res, prog, i); !got[root] {
				t.Errorf("load of a misses the %s lineage carried by the back-edge", root)
			}
		}
	})

	t.Run("try/catch handler target", func(t *testing.T) {
		// The handler is only reachable through TryPush's second
		// successor; its locals are ⊤, so a load through a local there is
		// live and ⊤.
		prog := compile(t, "t.js", `
			function A() { this.a = 1; }
			function run() {
				var o = new A();
				try {
					o = {};
					throw 1;
				} catch (e) {
					print(o.h);
				}
			}
			run();`)
		res := analysis.Analyze(prog)
		checkSoundness(t, res, prog)
		if p := onlySite(t, res, ic.AccessLoad, "h"); p.Dead || !p.Top {
			t.Errorf("%s: want a live ⊤ prediction in the catch handler", p)
		}
	})

	t.Run("one arm stores a local", func(t *testing.T) {
		// The then-arm runs first and overwrites o; the else-arm's state
		// comes from the same branch and must still see only an A.
		prog := compile(t, "t.js", `
			function A() { this.a = 1; }
			function B() { this.b = 2; }
			function run(flag) {
				var o = new A();
				if (flag) {
					o = new B();
				} else {
					print(o.a);
				}
				print(o.j);
			}
			run(true);
			run(false);`)
		res := analysis.Analyze(prog)
		checkSoundness(t, res, prog)
		rootA, rootB := ctorRootOf(t, res, prog, 0), ctorRootOf(t, res, prog, 1)
		if got := lineages(t, onlySite(t, res, ic.AccessLoad, "a")); len(got) != 1 || !got[rootA] {
			t.Errorf("else-arm load sees %d lineages, want only A's: the arms' states alias", len(got))
		}
		if got := lineages(t, onlySite(t, res, ic.AccessLoad, "j")); !got[rootA] || !got[rootB] {
			t.Errorf("load after the join misses an arm's receiver")
		}
	})

	t.Run("locals span chunks", func(t *testing.T) {
		// 40 locals span two chunks. Each arm writes a different chunk;
		// the join must keep both arms' receivers and neither arm may see
		// the other's store.
		src := `
			function A() { this.a = 1; }
			function B() { this.b = 2; }
			function run(flag) {
				var l00, l01, l02, l03, l04, l05, l06, l07, l08, l09;
				var l10, l11, l12, l13, l14, l15, l16, l17, l18, l19;
				var l20, l21, l22, l23, l24, l25, l26, l27, l28, l29;
				var l30, l31, l32, l33, l34, l35, l36, l37, l38, l39;
				l02 = new A();
				l37 = new A();
				if (flag) {
					l02 = new B();
					print(l37.a);
				} else {
					l37 = new B();
					print(l02.a);
				}
				print(l02.p, l37.q);
			}
			run(true);
			run(false);`
		prog := compile(t, "t.js", src)
		if n := prog.Toplevel.Protos[2].NumLocals; n < 40 {
			t.Fatalf("run has %d locals, want at least 40", n)
		}
		res := analysis.Analyze(prog)
		checkSoundness(t, res, prog)
		rootA, rootB := ctorRootOf(t, res, prog, 0), ctorRootOf(t, res, prog, 1)
		armLoads := findSites(res, ic.AccessLoad, "a")
		if len(armLoads) != 2 {
			t.Fatalf("want one load of a per arm, got %d", len(armLoads))
		}
		for _, p := range armLoads {
			if got := lineages(t, p); len(got) != 1 || !got[rootA] {
				t.Errorf("%s: sees %d lineages, want only A's", p, len(got))
			}
		}
		for _, name := range []string{"p", "q"} {
			if got := lineages(t, onlySite(t, res, ic.AccessLoad, name)); !got[rootA] || !got[rootB] {
				t.Errorf("load of %s after the join misses an arm's receiver", name)
			}
		}
	})
}

// BenchmarkAnalyze measures Analyze on each workload profile, compiled
// once outside the timer.
func BenchmarkAnalyze(b *testing.B) {
	for _, p := range workloads.Profiles {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			prog := compile(b, p.Script, p.Source())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkResult = analysis.Analyze(prog)
			}
		})
	}
}

var sinkResult *analysis.Result

// TestAnalyzeAllocBudget bounds the bytes one analysis of React
// allocates. Frame states live only at block leaders and share their
// locals chunks, and joins allocate only when an object set grows, so
// the budget is far below the gigabytes a state per pc would cost. React
// allocates about 39 MiB.
func TestAnalyzeAllocBudget(t *testing.T) {
	const budget = 64 << 20
	p, ok := workloads.ByName("React")
	if !ok {
		t.Fatal("no React profile")
	}
	prog := compile(t, p.Script, p.Source())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sinkResult = analysis.Analyze(prog)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("Analyze(React) allocated %d MB, budget %d MB", got>>20, budget>>20)
	} else {
		t.Logf("Analyze(React) allocated %d MB", got>>20)
	}
}
