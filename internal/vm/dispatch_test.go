package vm

import (
	"testing"

	"ricjs/internal/bytecode"
	"ricjs/internal/ic"
	"ricjs/internal/parser"
	"ricjs/internal/trace"
)

// runTraced executes a script on a fresh VM with a trace buffer attached
// and returns both. The buffer is installed before execution (like
// Options.Trace on an engine), so it sees exactly the events the profiler
// counts.
func runTraced(t *testing.T, src string) (*VM, *trace.Buffer) {
	t.Helper()
	prog, err := parser.Parse("test.js", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	bc, err := bytecode.Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	tr := trace.NewBuffer(0)
	v := New(Options{AddressSeed: 1, Trace: tr})
	if _, err := v.RunProgram(bc); err != nil {
		t.Fatalf("run: %v\noutput so far: %s", err, v.Output())
	}
	return v, tr
}

// reconcileVM asserts the event stream rolls up to the VM's profiler
// aggregates — the same counter↔event mapping the engine-level
// reconciliation test checks, applied at the dispatch layer.
func reconcileVM(t *testing.T, v *VM, tr *trace.Buffer) {
	t.Helper()
	st := v.Prof.Snapshot()
	checks := []struct {
		name    string
		counter uint64
		events  uint64
	}{
		{"ICHits", st.ICHits, tr.Count(trace.EvICHit) + tr.Count(trace.EvICHitPreloaded)},
		{"ICMisses", st.ICMisses,
			tr.Count(trace.EvICMissHandler) + tr.Count(trace.EvICMissGlobal) + tr.Count(trace.EvICMissOther)},
		{"HCCreated", st.HCCreated, tr.Count(trace.EvHCCreated)},
		{"HandlersMade", st.HandlersMade,
			tr.Count(trace.EvHandlerInstall) + tr.Count(trace.EvHandlerInstallCI)},
		{"HandlersContextIndep", st.HandlersContextIndep, tr.Count(trace.EvHandlerInstallCI)},
	}
	for _, c := range checks {
		if c.counter != c.events {
			t.Errorf("%s: profiler %d, trace %d", c.name, c.counter, c.events)
		}
	}
}

// TestDispatchTransitionTable drives named and keyed dispatch through the
// IC state transitions end to end and pins the event stream each one
// produces: monomorphic steady state, polymorphic growth, megamorphic
// promotion by overflow and by the keyed varying-name shortcut, global and
// dictionary bypasses. Every case also reconciles trace against profiler.
func TestDispatchTransitionTable(t *testing.T) {
	cases := []struct {
		name string
		src  string
		min  map[trace.Type]uint64 // type → minimum count
		zero []trace.Type          // types that must not occur
	}{
		{
			name: "monomorphic-steady-state",
			src: `
				var o = {p: 1};
				var s = 0;
				for (var i = 0; i < 20; i++) s += o.p;
				print(s);
			`,
			min:  map[trace.Type]uint64{trace.EvICHit: 19},
			zero: []trace.Type{trace.EvMegamorphic, trace.EvICHitPreloaded},
		},
		{
			name: "polymorphic-two-shapes",
			src: `
				function get(o) { return o.p; }
				var a = {p: 1};
				var b = {p: 2, q: 3};
				var s = 0;
				for (var i = 0; i < 10; i++) s += get(a) + get(b);
				print(s);
			`,
			min:  map[trace.Type]uint64{trace.EvICHit: 18},
			zero: []trace.Type{trace.EvMegamorphic},
		},
		{
			name: "megamorphic-by-overflow",
			src: `
				function get(o) { return o.p; }
				var os = [{p: 1}, {p: 2, a: 0}, {p: 3, b: 0}, {p: 4, c: 0}, {p: 5, d: 0}];
				var s = 0;
				for (var r = 0; r < 4; r++)
					for (var i = 0; i < os.length; i++) s += get(os[i]);
				print(s);
			`,
			// The 5th shape tips the slot; later rounds hit the generic
			// stub, which still counts as (slow) hits.
			min: map[trace.Type]uint64{trace.EvMegamorphic: 1, trace.EvICHit: 10},
		},
		{
			name: "keyed-varying-names-force-megamorphic",
			src: `
				var o = {a: 1, b: 2, c: 3};
				var keys = ['a', 'b', 'c'];
				var s = 0;
				for (var r = 0; r < 5; r++)
					for (var i = 0; i < keys.length; i++) s += o[keys[i]];
				print(s);
			`,
			min: map[trace.Type]uint64{trace.EvMegamorphic: 1},
		},
		{
			name: "store-transitions-create-hidden-classes",
			src: `
				function P(n) { this.a = n; this.b = n; this.c = n; }
				var x = new P(1);
				var y = new P(2);
				print(x.a + y.c);
			`,
			// Three transitions a→b→c; the second instance rides the
			// cached transition chain without creating classes.
			min:  map[trace.Type]uint64{trace.EvHCCreated: 3, trace.EvICHit: 3},
			zero: []trace.Type{trace.EvMegamorphic},
		},
		{
			name: "global-misses-classified",
			src: `
				var g = 7;
				function f() { return g; }
				print(f() + f());
			`,
			min: map[trace.Type]uint64{trace.EvICMissGlobal: 1},
		},
		{
			name: "dictionary-mode-bypasses-ic",
			src: `
				var o = {x: 1, y: 2};
				delete o.x;
				var s = 0;
				for (var i = 0; i < 10; i++) s += o.y;
				print(s);
			`,
			// Dictionary receivers take the generic path: no hits, no
			// misses, no megamorphic promotion at that site.
			zero: []trace.Type{trace.EvMegamorphic},
		},
		{
			name: "keyed-element-loads-and-stores",
			src: `
				var a = [0, 0, 0, 0];
				for (var i = 0; i < 4; i++) a[i] = i * 2;
				var s = 0;
				for (var j = 0; j < 4; j++) s += a[j];
				print(s);
			`,
			min: map[trace.Type]uint64{trace.EvICHit: 6, trace.EvHandlerInstallCI: 1},
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			v, tr := runTraced(t, c.src)
			for typ, want := range c.min {
				if got := tr.Count(typ); got < want {
					t.Errorf("%s = %d, want >= %d", typ, got, want)
				}
			}
			for _, typ := range c.zero {
				if got := tr.Count(typ); got != 0 {
					t.Errorf("%s = %d, want 0", typ, got)
				}
			}
			reconcileVM(t, v, tr)
		})
	}
}

// TestStaleProtoHandlerEvicted pins the validity-epoch eviction path: a
// cached prototype-chain handler must be dropped after any prototype shape
// change, producing a fresh miss that re-resolves the property.
func TestStaleProtoHandlerEvicted(t *testing.T) {
	v, tr := runTraced(t, `
		function P() {}
		P.prototype.m = 10;
		var o = new P();
		function get() { return o.m; }
		var a = get();   // miss: installs a LoadFromPrototype handler
		var b = get();   // hit through the cached handler
		P.prototype.x = 1;  // prototype shape change bumps the epoch
		var c = get();   // stale handler evicted: miss + re-resolve
		var d = get();   // fresh handler hits again
		print(a + b + c + d);
	`)
	if out := v.Output(); out != "40\n" {
		t.Fatalf("output = %q, want %q", out, "40\n")
	}
	// The o.m site must have missed twice (initial fill + post-eviction
	// refill) and hit twice, all at the same slot.
	var site *ic.Slot
	for _, vec := range v.Vectors() {
		for i := range vec.Slots {
			if vec.Slots[i].Name == "m" && vec.Slots[i].Kind == ic.AccessLoad {
				site = &vec.Slots[i]
			}
		}
	}
	if site == nil {
		t.Fatal("o.m load slot not found")
	}
	sum := tr.Summary()
	for _, sc := range sum.Sites {
		if sc.Site != site.Site() {
			continue
		}
		if got := sc.Counts[trace.EvICMissOther]; got != 2 {
			t.Errorf("misses at o.m site = %d, want 2 (fill + post-eviction refill)", got)
		}
		if got := sc.Counts[trace.EvICHit]; got != 2 {
			t.Errorf("hits at o.m site = %d, want 2", got)
		}
	}
	reconcileVM(t, v, tr)
}

// TestTraceDisabledVMRunsClean checks the nil-sink contract at the
// dispatch layer: a VM without a buffer runs identically and Trace()
// reports nil, with all nil-safe accessors returning zero.
func TestTraceDisabledVMRunsClean(t *testing.T) {
	v, out := run(t, `
		var o = {p: 1};
		var s = 0;
		for (var i = 0; i < 20; i++) s += o.p;
		print(s);
	`)
	if out != "20\n" {
		t.Fatalf("output = %q", out)
	}
	tr := v.Trace()
	if tr != nil {
		t.Fatalf("Trace() = %v, want nil", tr)
	}
	if tr.Len() != 0 || tr.Count(trace.EvICHit) != 0 || tr.Events() != nil {
		t.Fatal("nil buffer accessors must return zero values")
	}
	if st := v.Prof.Snapshot(); st.ICHits == 0 {
		t.Fatal("profiler must still count with tracing disabled")
	}
}
