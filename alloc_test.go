package ricjs_test

import (
	"runtime"
	"testing"

	"ricjs"
	"ricjs/internal/objects"
	"ricjs/internal/vm"
	"ricjs/internal/workloads"
)

// zeroAllocCall asserts that steady-state invocations of a warmed-up
// compiled function allocate nothing: the frame pool supplies the
// activation record, every IC site hits its denormalized fast path, and
// no Value boxing occurs. One warm-up call populates the ICs and the
// pool before measuring.
func zeroAllocCall(t *testing.T, label string, v *vm.VM, fn objects.Value) {
	t.Helper()
	this := objects.Obj(v.Global())
	if _, err := v.CallFunction(fn, this, nil); err != nil {
		t.Fatalf("%s warm-up: %v", label, err)
	}
	var callErr error
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := v.CallFunction(fn, this, nil); err != nil {
			callErr = err
		}
	})
	if callErr != nil {
		t.Fatalf("%s: %v", label, callErr)
	}
	if allocs != 0 {
		t.Errorf("%s: %v allocs/op, want 0", label, allocs)
	}
}

// TestMonomorphicHitPathZeroAlloc pins the tentpole contract: the
// monomorphic IC hit path — load and store — is allocation-free,
// including the call frame around it. A regression here means either the
// frame pool stopped recycling or something on the hit path started
// boxing (string conversion, handler interface churn, trace emission).
func TestMonomorphicHitPathZeroAlloc(t *testing.T) {
	loadVM, loadFn := benchClosure(t, `
		var obj = {a: 1, b: 2, c: 3};
		function bench() {
			var t = 0;
			for (var i = 0; i < 64; i++) { t = t + obj.c; }
			return t;
		}
		bench();`, "bench")
	zeroAllocCall(t, "monomorphic load", loadVM, loadFn)

	storeVM, storeFn := benchClosure(t, `
		var obj = {a: 1, b: 2, c: 3};
		function bench() {
			for (var i = 0; i < 64; i++) { obj.b = i; }
			return obj.b;
		}
		bench();`, "bench")
	zeroAllocCall(t, "monomorphic store", storeVM, storeFn)
}

// TestPolymorphicHitPathZeroAlloc extends the pin to polymorphic and
// megamorphic hits: entry-list scans and the generic stub also run
// allocation-free once warm.
func TestPolymorphicHitPathZeroAlloc(t *testing.T) {
	polyVM, polyFn := benchClosure(t, `
		var shapes = [{x: 1}, {a: 1, x: 2}, {a: 1, b: 2, x: 3}, {a: 1, b: 2, c: 3, x: 4}];
		function bench() {
			var t = 0;
			for (var i = 0; i < 64; i++) { t = t + shapes[i % 4].x; }
			return t;
		}
		bench();`, "bench")
	zeroAllocCall(t, "polymorphic load", polyVM, polyFn)
}

// TestNestedCallZeroAlloc pins the frame pool across call depth: nested
// user-function calls reuse pooled frames rather than allocating
// activation records.
func TestNestedCallZeroAlloc(t *testing.T) {
	v, fn := benchClosure(t, `
		var obj = {a: 7};
		function inner(n) { return n + obj.a; }
		function bench() {
			var t = 0;
			for (var i = 0; i < 32; i++) { t = inner(t); }
			return t;
		}
		bench();`, "bench")
	zeroAllocCall(t, "nested calls", v, fn)
}

// TestExtractRecordAllocBudget bounds what one extraction and one encode
// allocate on the largest profile. ExtractRecord runs only the §5
// extraction: about 186 KB on React, nearly all of it the record itself:
// one exactly sized dependent array and the two TOAST maps; map-keyed
// numbering and append-grown rows took 677 KB.
// Growing rows by append, keying the class numbering by pointer or
// putting a whole-session static analysis (about 12 MB) back on the
// serving path fails the budget. Encode appends to one buffer sized from
// the record, 78 KB on React where per-varint buffer writes and
// twice-sorted site tables took 113 KB.
func TestExtractRecordAllocBudget(t *testing.T) {
	const extractBudget, encodeBudget = 256 << 10, 96 << 10
	p, ok := workloads.ByName("React")
	if !ok {
		t.Fatal("no React profile")
	}
	e := ricjs.NewEngine(ricjs.Options{Cache: ricjs.NewCodeCache()})
	if err := e.Run(p.Script, p.Source()); err != nil {
		t.Fatal(err)
	}
	var before, mid, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rec := e.ExtractRecord(p.Name)
	runtime.ReadMemStats(&mid)
	rec.Encode()
	runtime.ReadMemStats(&after)
	if got := mid.TotalAlloc - before.TotalAlloc; got >= extractBudget {
		t.Errorf("ExtractRecord on React allocated %d bytes, budget %d", got, extractBudget)
	}
	if got := after.TotalAlloc - mid.TotalAlloc; got >= encodeBudget {
		t.Errorf("Encode on React allocated %d bytes, budget %d", got, encodeBudget)
	}
}

// TestEngineStartupAllocs pins what building a conventional engine
// allocates. The builtin realm is copied from the process template as a
// few flat blocks, and a VM builds no index that only the analysis or
// the reuser reads, so neither is paid per session; building the realm
// object by object, or an index eagerly, raises the count past the pin.
func TestEngineStartupAllocs(t *testing.T) {
	const pin = 17
	allocs := testing.AllocsPerRun(20, func() {
		ricjs.NewEngine(ricjs.Options{})
	})
	if allocs > pin {
		t.Errorf("NewEngine allocated %v times, pinned at %d", allocs, pin)
	}
}

// TestReuseSessionAllocBudget bounds one warm reuse-startup session on
// AngularJS: a conventional Run and a Reuse Run of the same script on a
// shared code cache. Fixed setup (realm copy, slot slab, code-cache hit,
// preload resolution) is a large share of such a session; rebuilding the
// realm per engine, hashing the source per cache hit or building a site
// index per Reuse session each push the session past the budget.
func TestReuseSessionAllocBudget(t *testing.T) {
	const allocBudget, byteBudget = 4000, 384 << 10
	p, ok := workloads.ByName("AngularJS")
	if !ok {
		t.Fatal("no AngularJS profile")
	}
	src := p.Source()
	cache := ricjs.NewCodeCache()
	initial := ricjs.NewEngine(ricjs.Options{Cache: cache})
	if err := initial.Run(p.Script, src); err != nil {
		t.Fatal(err)
	}
	rec := initial.ExtractRecord(p.Name)
	var runErr error
	session := func() {
		conv := ricjs.NewEngine(ricjs.Options{Cache: cache})
		if err := conv.Run(p.Script, src); err != nil {
			runErr = err
		}
		reuse := ricjs.NewEngine(ricjs.Options{Cache: cache, Record: rec})
		if err := reuse.Run(p.Script, src); err != nil {
			runErr = err
		}
	}
	session() // warms the record's validation memo
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		session()
	}
	runtime.ReadMemStats(&after)
	if runErr != nil {
		t.Fatal(runErr)
	}
	allocs := (after.Mallocs - before.Mallocs) / runs
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	if allocs > allocBudget || bytes > byteBudget {
		t.Errorf("warm AngularJS session allocated %d times, %d bytes; budget %d times, %d bytes",
			allocs, bytes, allocBudget, byteBudget)
	}
}
