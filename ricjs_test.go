package ricjs

import (
	"bytes"
	"strings"
	"testing"

	"ricjs/internal/workloads"
)

const demoLib = `
	function Widget(id) { this.id = id; this.visible = false; this.children = []; }
	Widget.prototype.show = function () { this.visible = true; return this; };
	Widget.prototype.add = function (w) { this.children.push(w); return this; };
	var root = new Widget(0).show();
	for (var i = 1; i <= 15; i++) root.add(new Widget(i));
	var count = 0;
	for (var j = 0; j < root.children.length; j++) {
		if (root.children[j].id % 2 === 0) count++;
	}
	print('widgets', root.children.length, 'even', count);
`

func TestEngineRunAndOutput(t *testing.T) {
	e := NewEngine(Options{AddressSeed: 1})
	if err := e.Run("demo.js", demoLib); err != nil {
		t.Fatal(err)
	}
	if got := e.Output(); got != "widgets 15 even 7\n" {
		t.Fatalf("output = %q", got)
	}
	s := e.Stats()
	if s.ICMisses == 0 || s.ICHits == 0 {
		t.Fatalf("stats look empty: %+v", s)
	}
}

func TestEngineStdoutWriter(t *testing.T) {
	var buf bytes.Buffer
	e := NewEngine(Options{Stdout: &buf})
	if err := e.Run("w.js", "print('hi');"); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "hi\n" {
		t.Fatalf("stdout = %q", buf.String())
	}
	if e.Output() != "" {
		t.Fatal("internal buffer must stay empty with an external writer")
	}
}

func TestEngineRunErrors(t *testing.T) {
	e := NewEngine(Options{})
	if err := e.Run("bad.js", "var ;"); err == nil || !strings.Contains(err.Error(), "bad.js") {
		t.Fatalf("err = %v", err)
	}
	if err := e.Run("boom.js", "throw 'x';"); err == nil || !strings.Contains(err.Error(), "boom.js") {
		t.Fatalf("err = %v", err)
	}
}

func TestFullRICPipeline(t *testing.T) {
	cache := NewCodeCache()

	initial := NewEngine(Options{Cache: cache})
	if err := initial.Run("demo.js", demoLib); err != nil {
		t.Fatal(err)
	}
	record := initial.ExtractRecord("demo.js")
	if record.Stats().DependentSlots == 0 {
		t.Fatal("record has no dependents")
	}
	if record.Label() != "demo.js" {
		t.Fatalf("label = %q", record.Label())
	}

	// Persist and reload, as a browser would between sessions.
	data := record.Encode()
	if len(data) == 0 {
		t.Fatal("empty record encoding")
	}
	restored, err := DecodeRecord(data)
	if err != nil {
		t.Fatal(err)
	}

	conventional := NewEngine(Options{Cache: cache})
	if err := conventional.Run("demo.js", demoLib); err != nil {
		t.Fatal(err)
	}
	reuse := NewEngine(Options{Cache: cache, Record: restored})
	if err := reuse.Run("demo.js", demoLib); err != nil {
		t.Fatal(err)
	}

	if conventional.Output() != reuse.Output() {
		t.Fatalf("outputs differ: %q vs %q", conventional.Output(), reuse.Output())
	}
	cs, rs := conventional.Stats(), reuse.Stats()
	if rs.ICMisses >= cs.ICMisses {
		t.Fatalf("reuse misses %d !< conventional %d", rs.ICMisses, cs.ICMisses)
	}
	if rs.MissRate() >= cs.MissRate() {
		t.Fatalf("reuse miss rate %.2f !< conventional %.2f", rs.MissRate(), cs.MissRate())
	}
	if rs.TotalInstr() >= cs.TotalInstr() {
		t.Fatalf("reuse instructions %d !< conventional %d", rs.TotalInstr(), cs.TotalInstr())
	}
	if rs.MissesSaved == 0 {
		t.Fatal("no saved misses")
	}
	if reuse.ValidatedHCs() == 0 {
		t.Fatal("no validated hidden classes")
	}
	if conventional.ValidatedHCs() != 0 {
		t.Fatal("conventional run must not validate")
	}
}

func TestDecodeRecordRejectsGarbage(t *testing.T) {
	if _, err := DecodeRecord([]byte("garbage")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestCodeCacheSharedAcrossEngines(t *testing.T) {
	cache := NewCodeCache()
	for i := 0; i < 3; i++ {
		e := NewEngine(Options{Cache: cache})
		if err := e.Run("s.js", "var v = {a: 1}; print(v.a);"); err != nil {
			t.Fatal(err)
		}
	}
	if st := cache.c.Stats(); st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("cache hits=%d misses=%d", st.Hits, st.Misses)
	}
}

func TestMultiScriptWebsiteReuse(t *testing.T) {
	libA := `
		function A(v) { this.v = v; }
		A.prototype.get = function () { return this.v; };
		var as = [];
		for (var i = 0; i < 10; i++) as.push(new A(i));
		var sa = 0;
		for (var j = 0; j < 10; j++) sa += as[j].v;
		print('A', sa);
	`
	libB := `
		function B(n) { this.n = n; this.sq = n * n; }
		var bs = [];
		for (var i = 0; i < 10; i++) bs.push(new B(i));
		var sb = 0;
		for (var j = 0; j < 10; j++) sb += bs[j].sq;
		print('B', sb);
	`
	cache := NewCodeCache()
	initial := NewEngine(Options{Cache: cache})
	if err := initial.Run("a.js", libA); err != nil {
		t.Fatal(err)
	}
	if err := initial.Run("b.js", libB); err != nil {
		t.Fatal(err)
	}
	rec := initial.ExtractRecord("site1")

	// Reuse with the opposite load order (the paper's two-website setup).
	// The one record must avert misses in each script's run.
	reuse := NewEngine(Options{Cache: cache, Record: rec})
	if err := reuse.Run("b.js", libB); err != nil {
		t.Fatal(err)
	}
	savedAfterB := reuse.Stats().MissesSaved
	if err := reuse.Run("a.js", libA); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(reuse.Output(), "A 45") || !strings.Contains(reuse.Output(), "B 285") {
		t.Fatalf("output = %q", reuse.Output())
	}
	if savedAfterB == 0 {
		t.Fatal("cross-order reuse saved no misses during b.js")
	}
	if reuse.Stats().MissesSaved <= savedAfterB {
		t.Fatal("cross-order reuse saved no misses during a.js")
	}
}

func TestRecordAcrossDifferentAddressSpaces(t *testing.T) {
	// The whole point: records must work even though every run sees
	// different heap addresses. Use fresh (process-unique) seeds.
	cache := NewCodeCache()
	initial := NewEngine(Options{Cache: cache})
	if err := initial.Run("demo.js", demoLib); err != nil {
		t.Fatal(err)
	}
	rec := initial.ExtractRecord("demo.js")
	for i := 0; i < 3; i++ {
		reuse := NewEngine(Options{Cache: cache, Record: rec})
		if err := reuse.Run("demo.js", demoLib); err != nil {
			t.Fatal(err)
		}
		if reuse.Stats().MissesSaved == 0 {
			t.Fatalf("iteration %d saved no misses", i)
		}
	}

	// Extraction is address-independent too: every profile's record
	// encodes byte-identically whatever addresses its Initial run saw, so
	// processes that extract the same key save the same bytes.
	for _, p := range workloads.Profiles {
		var first []byte
		for _, seed := range []uint64{0, 0, 12345} {
			e := NewEngine(Options{Cache: cache, AddressSeed: seed})
			if err := e.Run(p.Script, p.Source()); err != nil {
				t.Fatal(err)
			}
			got := e.ExtractRecord(p.Name).Encode()
			if first == nil {
				first = got
			} else if !bytes.Equal(got, first) {
				t.Fatalf("%s: record extracted at AddressSeed %d differs from the first extraction", p.Name, seed)
			}
		}
	}
}

func TestIncludeGlobalsOption(t *testing.T) {
	src := "var g1 = 1; var g2 = 2; function f() { return g1 + g2; } print(f());"
	cache := NewCodeCache()
	initial := NewEngine(Options{Cache: cache, IncludeGlobals: true})
	if err := initial.Run("g.js", src); err != nil {
		t.Fatal(err)
	}
	rec := initial.ExtractRecord("g.js")
	reuse := NewEngine(Options{Cache: cache, Record: rec})
	if err := reuse.Run("g.js", src); err != nil {
		t.Fatal(err)
	}
	if reuse.Output() != "3\n" {
		t.Fatalf("output = %q", reuse.Output())
	}
}

func TestDegradedEngineWritesDirectly(t *testing.T) {
	// Extract a record from version 1 of a script...
	v1 := `
		function P(x, y) { this.x = x; this.y = y; }
		var ps = [];
		for (var i = 0; i < 10; i++) ps.push(new P(i, i));
		var s = 0;
		for (var j = 0; j < ps.length; j++) s += ps[j].x + ps[j].y;
		print('v1', s);
	`
	init := NewEngine(Options{})
	if err := init.Run("lib.js", v1); err != nil {
		t.Fatal(err)
	}
	rec := init.ExtractRecord("lib.js")

	// ...and replay the session against version 2, whose access sites no
	// longer exist: validation fails and the engine degrades.
	var buf bytes.Buffer
	eng := NewEngine(Options{Record: rec, Stdout: &buf})
	if err := eng.Run("pre.js", "print('pre');"); err != nil {
		t.Fatal(err)
	}
	v2 := "var done = true; print('v2 ran');"
	if err := eng.Run("lib.js", v2); err != nil {
		t.Fatal(err)
	}
	if degraded, cause := eng.Degraded(); !degraded || cause == nil || cause.Phase != "validate" {
		t.Fatalf("engine must degrade at validate, got degraded=%v cause=%v", degraded, cause)
	}
	// Replay must not duplicate already-delivered output.
	if got := buf.String(); got != "pre\nv2 ran\n" {
		t.Fatalf("output = %q, want each line exactly once", got)
	}

	// The bug this pins: degrade used to leave e.rec set, so runWriter kept
	// staging output through e.staged forever even though no further
	// degradation is possible. Post-degradation writes must go straight to
	// the external Stdout.
	if eng.rec != nil {
		t.Fatal("degrade must clear the record")
	}
	if eng.router == nil || eng.router.w != &buf {
		t.Fatalf("post-degradation writer = %T, want the external Stdout", eng.router.w)
	}
	if err := eng.Run("post.js", "print('post');"); err != nil {
		t.Fatal(err)
	}
	if eng.staged != nil && eng.staged.Len() != 0 {
		t.Fatalf("staged buffer still in use after degradation: %q", eng.staged.String())
	}
	if got := buf.String(); got != "pre\nv2 ran\npost\n" {
		t.Fatalf("output after post-degradation run = %q", got)
	}
}

func TestDegradedOutputBypassesStaging(t *testing.T) {
	// Black-box check that post-degradation print output reaches the
	// external writer during execution, not via a post-run staged flush:
	// the VM must hold the direct writer.
	var buf bytes.Buffer
	init := NewEngine(Options{})
	if err := init.Run("a.js", "function A(){this.v=1;} var a=new A(); print(a.v);"); err != nil {
		t.Fatal(err)
	}
	rec := init.ExtractRecord("a.js")
	eng := NewEngine(Options{Record: rec, Stdout: &buf})
	if err := eng.Run("a.js", "print('different');"); err != nil {
		t.Fatal(err)
	}
	if degraded, _ := eng.Degraded(); !degraded {
		t.Fatal("stale record must degrade")
	}
	if got := buf.String(); got != "different\n" {
		t.Fatalf("output = %q", got)
	}
}
