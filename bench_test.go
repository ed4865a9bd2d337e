package ricjs_test

// One benchmark per table and figure of the paper's evaluation. The
// custom metrics attached via b.ReportMetric carry the quantity each
// table/figure reports; `go test -bench . -benchmem` regenerates the full
// set. cmd/ricbench prints the same data as formatted tables.

import (
	"testing"

	"ricjs"
	"ricjs/internal/bench"
	"ricjs/internal/objects"
	"ricjs/internal/vm"
	"ricjs/internal/workloads"
)

type (
	// Local aliases keep the benchmark bodies readable.
	CodeCache = ricjs.CodeCache
	Record    = ricjs.Record
	Options   = ricjs.Options
	Stats     = ricjs.Stats
)

var (
	NewEngine    = ricjs.NewEngine
	NewCodeCache = ricjs.NewCodeCache
)

// prime compiles a library into a cache and returns (cache, src) so that
// benchmark iterations measure execution, not compilation.
func prime(b *testing.B, p workloads.Profile) (*CodeCache, string) {
	b.Helper()
	cache := NewCodeCache()
	src := p.Source()
	e := NewEngine(Options{Cache: cache})
	if err := e.Run(p.Script, src); err != nil {
		b.Fatal(err)
	}
	return cache, src
}

// recordFor runs the Initial run and extracts the record.
func recordFor(b *testing.B, cache *CodeCache, p workloads.Profile, src string) *Record {
	b.Helper()
	initial := NewEngine(Options{Cache: cache})
	if err := initial.Run(p.Script, src); err != nil {
		b.Fatal(err)
	}
	return initial.ExtractRecord(p.Name)
}

// BenchmarkFigure1Data walks the Figure 1 motivation series (static data;
// present so every figure has a bench target).
func BenchmarkFigure1Data(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var loads, reqs float64
		for _, p := range bench.Figure1Paper {
			loads += p.ExpectedLoadSecs
			reqs += p.JSRequests
		}
		if loads == 0 || reqs == 0 {
			b.Fatal("empty figure 1 data")
		}
	}
	b.ReportMetric(float64(len(bench.Figure1Paper)), "years")
}

// BenchmarkFigure5InstructionBreakdown measures each library's Initial
// run and reports the IC-miss share of its instructions (Figure 5).
func BenchmarkFigure5InstructionBreakdown(b *testing.B) {
	for _, p := range workloads.Profiles {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			cache, src := prime(b, p)
			var share float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := NewEngine(Options{Cache: cache})
				if err := e.Run(p.Script, src); err != nil {
					b.Fatal(err)
				}
				share = e.Stats().ICMissShare()
			}
			b.ReportMetric(100*share, "%ic-miss-instr")
		})
	}
}

// BenchmarkTable1Characterization measures the Table 1 columns in the
// Initial run of each library.
func BenchmarkTable1Characterization(b *testing.B) {
	for _, p := range workloads.Profiles {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			cache, src := prime(b, p)
			var s Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := NewEngine(Options{Cache: cache})
				if err := e.Run(p.Script, src); err != nil {
					b.Fatal(err)
				}
				s = e.Stats()
			}
			b.ReportMetric(float64(s.HCCreated), "hidden-classes")
			b.ReportMetric(float64(s.ICMisses), "ic-misses")
			b.ReportMetric(s.MissesPerHC(), "misses/hc")
			b.ReportMetric(s.ContextIndependentShare(), "%ci-handlers")
		})
	}
}

// BenchmarkTable4MissRates measures IC miss rates of the Initial and RIC
// Reuse runs (Table 4).
func BenchmarkTable4MissRates(b *testing.B) {
	for _, p := range workloads.Profiles {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			cache, src := prime(b, p)
			record := recordFor(b, cache, p, src)
			var initRate, reuseRate float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				initial := NewEngine(Options{Cache: cache})
				if err := initial.Run(p.Script, src); err != nil {
					b.Fatal(err)
				}
				initRate = initial.Stats().MissRate()

				reuse := NewEngine(Options{Cache: cache, Record: record})
				if err := reuse.Run(p.Script, src); err != nil {
					b.Fatal(err)
				}
				reuseRate = reuse.Stats().MissRate()
			}
			b.ReportMetric(initRate, "%initial-miss-rate")
			b.ReportMetric(reuseRate, "%reuse-miss-rate")
		})
	}
}

// BenchmarkFigure8Instructions measures the normalized dynamic
// instruction count of the RIC Reuse run against the Conventional one.
func BenchmarkFigure8Instructions(b *testing.B) {
	for _, p := range workloads.Profiles {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			cache, src := prime(b, p)
			record := recordFor(b, cache, p, src)
			var conv, ric uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := NewEngine(Options{Cache: cache})
				if err := c.Run(p.Script, src); err != nil {
					b.Fatal(err)
				}
				conv = c.Stats().TotalInstr()

				r := NewEngine(Options{Cache: cache, Record: record})
				if err := r.Run(p.Script, src); err != nil {
					b.Fatal(err)
				}
				ric = r.Stats().TotalInstr()
			}
			b.ReportMetric(100*float64(ric)/float64(conv), "%instr-vs-conventional")
		})
	}
}

// BenchmarkFigure9ExecutionTime times the two Reuse-run variants; the
// Conventional/RIC pair of sub-benchmarks per library gives the
// normalized execution time of Figure 9 (ns/op ratios).
func BenchmarkFigure9ExecutionTime(b *testing.B) {
	for _, p := range workloads.Profiles {
		p := p
		cachedRecord := func(b *testing.B) (*CodeCache, string, *Record) {
			cache, src := prime(b, p)
			return cache, src, recordFor(b, cache, p, src)
		}
		b.Run(p.Name+"/Conventional", func(b *testing.B) {
			cache, src, _ := cachedRecord(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := NewEngine(Options{Cache: cache})
				if err := e.Run(p.Script, src); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(p.Name+"/RIC", func(b *testing.B) {
			cache, src, record := cachedRecord(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := NewEngine(Options{Cache: cache, Record: record})
				if err := e.Run(p.Script, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtractionPhase times the extraction phase alone (§7.3).
func BenchmarkExtractionPhase(b *testing.B) {
	for _, p := range workloads.Profiles {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			cache, src := prime(b, p)
			initial := NewEngine(Options{Cache: cache})
			if err := initial.Run(p.Script, src); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if initial.ExtractRecord(p.Name) == nil {
					b.Fatal("nil record")
				}
			}
		})
	}
}

// BenchmarkICRecordSize measures encoding throughput and reports the
// record's size (§7.3's memory overhead).
func BenchmarkICRecordSize(b *testing.B) {
	for _, p := range workloads.Profiles {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			cache, src := prime(b, p)
			record := recordFor(b, cache, p, src)
			var size int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				size = len(record.Encode())
			}
			b.ReportMetric(float64(size)/1024, "record-KB")
		})
	}
}

// BenchmarkWebsiteCrossReuse measures the §6 robustness setup: record
// from website 1 consumed by website 2's different load order.
func BenchmarkWebsiteCrossReuse(b *testing.B) {
	cache := NewCodeCache()
	initial := NewEngine(Options{Cache: cache})
	for _, s := range workloads.Website(1) {
		if err := initial.Run(s.Name, s.Source); err != nil {
			b.Fatal(err)
		}
	}
	record := initial.ExtractRecord("website1")
	var saved uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reuse := NewEngine(Options{Cache: cache, Record: record})
		for _, s := range workloads.Website(2) {
			if err := reuse.Run(s.Name, s.Source); err != nil {
				b.Fatal(err)
			}
		}
		saved = reuse.Stats().MissesSaved
	}
	b.ReportMetric(float64(saved), "misses-averted")
}

// BenchmarkAblationGlobals compares reuse effectiveness with RIC's
// global-object support on and off (§6's design choice).
func BenchmarkAblationGlobals(b *testing.B) {
	for _, includeGlobals := range []bool{false, true} {
		name := "GlobalsOff"
		if includeGlobals {
			name = "GlobalsOn"
		}
		b.Run(name, func(b *testing.B) {
			p, _ := workloads.ByName("jQuery")
			cache := NewCodeCache()
			src := p.Source()
			initial := NewEngine(Options{Cache: cache, IncludeGlobals: includeGlobals})
			if err := initial.Run(p.Script, src); err != nil {
				b.Fatal(err)
			}
			record := initial.ExtractRecord(p.Name)
			var rate float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reuse := NewEngine(Options{Cache: cache, Record: record})
				if err := reuse.Run(p.Script, src); err != nil {
					b.Fatal(err)
				}
				rate = reuse.Stats().MissRate()
			}
			b.ReportMetric(rate, "%reuse-miss-rate")
		})
	}
}

// BenchmarkAblationEmptyRecord isolates RIC's Reuse-run bookkeeping
// overhead by running with a record that matches nothing (§7.3 reports
// this overhead as negligible).
func BenchmarkAblationEmptyRecord(b *testing.B) {
	cache := NewCodeCache()
	emptyEngine := NewEngine(Options{Cache: cache})
	if err := emptyEngine.Run("empty.js", ";"); err != nil {
		b.Fatal(err)
	}
	record := emptyEngine.ExtractRecord("empty")
	p, _ := workloads.ByName("AngularJS")
	src := p.Source()
	warm := NewEngine(Options{Cache: cache})
	if err := warm.Run(p.Script, src); err != nil {
		b.Fatal(err)
	}
	for _, withRecord := range []bool{false, true} {
		name := "Conventional"
		if withRecord {
			name = "WithEmptyRecord"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := Options{Cache: cache}
				if withRecord {
					opts.Record = record
				}
				e := NewEngine(opts)
				if err := e.Run(p.Script, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTraceOverhead compares a Reuse run with tracing disabled (nil
// sink — the default) and enabled. The Disabled variant is the number the
// ≤2% overhead contract is stated against: a nil trace buffer must cost no
// more than the one predictable branch per event site.
func BenchmarkTraceOverhead(b *testing.B) {
	p, _ := workloads.ByName("jQuery")
	cache := NewCodeCache()
	src := p.Source()
	initial := NewEngine(Options{Cache: cache})
	if err := initial.Run(p.Script, src); err != nil {
		b.Fatal(err)
	}
	record := initial.ExtractRecord(p.Name)
	b.Run("Disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := NewEngine(Options{Cache: cache, Record: record})
			if err := e.Run(p.Script, src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Enabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := NewEngine(Options{Cache: cache, Record: record, Trace: ricjs.NewTrace(0)})
			if err := e.Run(p.Script, src); err != nil {
				b.Fatal(err)
			}
			if e.Trace().Len() == 0 {
				b.Fatal("enabled trace collected no events")
			}
		}
	})
}

// BenchmarkEngineStartup measures bare engine construction (builtin
// environment setup), context for all per-run numbers above.
func BenchmarkEngineStartup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine(Options{})
		if e == nil {
			b.Fatal("nil engine")
		}
	}
}

// ---- Hot-path micro-benchmarks ----
//
// The suite below pins the cost of the IC fast path itself (a hit must be
// a compare-and-load, paper §2.3) rather than whole-run figures. Each
// benchmark drives the interpreter through the public engine, then calls
// a pre-compiled JavaScript function directly via the VM so an iteration
// measures access-path cost, not engine or compile time. Each reports
// allocations: the monomorphic variants are the 0 allocs/op contract
// that TestMonomorphicHitPathZeroAlloc enforces.

// benchClosure compiles src, runs it, and returns the VM plus the global
// function fn ready to call.
func benchClosure(tb testing.TB, src, fn string) (*vm.VM, objects.Value) {
	tb.Helper()
	e := NewEngine(Options{})
	if err := e.Run("bench.js", src); err != nil {
		tb.Fatal(err)
	}
	v := e.VM()
	fval, ok := v.Global().GetNamed(fn)
	if !ok || !fval.IsCallable() {
		tb.Fatalf("benchmark function %q not defined", fn)
	}
	return v, fval
}

// callN invokes fn b.N times, failing on any JS error, and reports
// allocations per op.
func callN(b *testing.B, v *vm.VM, fn objects.Value) {
	b.Helper()
	b.ReportAllocs()
	this := objects.Obj(v.Global())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.CallFunction(fn, this, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadNamedMono measures a monomorphic named-load site: one
// hidden class, LoadField handler, 128 loads per op.
func BenchmarkLoadNamedMono(b *testing.B) {
	v, fn := benchClosure(b, `
		var obj = {a: 1, b: 2, c: 3};
		function bench() {
			var t = 0;
			for (var i = 0; i < 128; i++) { t = t + obj.c; }
			return t;
		}
		bench();`, "bench")
	callN(b, v, fn)
}

// dispatchLoopSrc is a loop dominated by plain dispatch: the condition
// compiles to Lt+JumpIfFalse and the body to LoadLocal+LoadNamed.
const dispatchLoopSrc = `
	var obj = {n: 3};
	function bench() {
		var o = obj, t = 0;
		for (var i = 0; i < 256; i = i + 1) { t = t + o.n; }
		return t;
	}
	bench();`

// BenchmarkDispatchLoop measures the interpreter loop above.
func BenchmarkDispatchLoop(b *testing.B) {
	v, fn := benchClosure(b, dispatchLoopSrc, "bench")
	callN(b, v, fn)
}

// BenchmarkLoadNamedPoly measures a polymorphic site: four layouts cycle
// through one load site, so hits scan the slot's entry list.
func BenchmarkLoadNamedPoly(b *testing.B) {
	v, fn := benchClosure(b, `
		var shapes = [{x: 1}, {a: 1, x: 2}, {a: 1, b: 2, x: 3}, {a: 1, b: 2, c: 3, x: 4}];
		function bench() {
			var t = 0;
			for (var i = 0; i < 128; i++) { t = t + shapes[i % 4].x; }
			return t;
		}
		bench();`, "bench")
	callN(b, v, fn)
}

// BenchmarkLoadNamedMegamorphic measures a megamorphic site: more
// layouts than MaxPolymorphic force the generic access stub.
func BenchmarkLoadNamedMegamorphic(b *testing.B) {
	v, fn := benchClosure(b, `
		var shapes = [{x: 1}, {a: 1, x: 2}, {a: 1, b: 2, x: 3},
			{a: 1, b: 2, c: 3, x: 4}, {a: 1, b: 2, c: 3, d: 4, x: 5},
			{q: 1, x: 6}];
		function bench() {
			var t = 0;
			for (var i = 0; i < 128; i++) { t = t + shapes[i % 6].x; }
			return t;
		}
		bench();`, "bench")
	callN(b, v, fn)
}

// BenchmarkStoreNamedMono measures a monomorphic named-store site
// (StoreField overwrite of an existing property).
func BenchmarkStoreNamedMono(b *testing.B) {
	v, fn := benchClosure(b, `
		var obj = {a: 1, b: 2, c: 3};
		function bench() {
			for (var i = 0; i < 128; i++) { obj.b = i; }
			return obj.b;
		}
		bench();`, "bench")
	callN(b, v, fn)
}

// BenchmarkStoreTransition measures the add-property store path: each op
// builds 16 fresh objects of 4 properties, so every store walks the
// hidden-class transition table (warm: all target classes exist).
func BenchmarkStoreTransition(b *testing.B) {
	v, fn := benchClosure(b, `
		function bench() {
			var last;
			for (var i = 0; i < 16; i++) {
				var o = {};
				o.a = i; o.b = i; o.c = i; o.d = i;
				last = o;
			}
			return last;
		}
		bench();`, "bench")
	callN(b, v, fn)
}

// BenchmarkRecordDecode measures .ric decoding throughput over a real
// workload record (the per-session cost SessionPool amortizes).
func BenchmarkRecordDecode(b *testing.B) {
	p, _ := workloads.ByName("jQuery")
	cache := NewCodeCache()
	src := p.Source()
	initial := NewEngine(Options{Cache: cache})
	if err := initial.Run(p.Script, src); err != nil {
		b.Fatal(err)
	}
	data := initial.ExtractRecord(p.Name).Encode()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ricjs.DecodeRecord(data); err != nil {
			b.Fatal(err)
		}
	}
}
