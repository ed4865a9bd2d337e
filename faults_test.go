package ricjs_test

import (
	"bytes"
	"strings"
	"testing"

	"ricjs"
	"ricjs/internal/bench"
	"ricjs/internal/faultinject"
)

const faultLib = `
	function Point(x, y) { this.x = x; this.y = y; }
	Point.prototype.norm2 = function () { return this.x * this.x + this.y * this.y; };
	var pts = [];
	for (var i = 0; i < 40; i++) pts.push(new Point(i, i + 1));
	var total = 0;
	for (var j = 0; j < pts.length; j++) total += pts[j].norm2();
	print('total', total);
`

func extractFaultRecord(t *testing.T, cache *ricjs.CodeCache) *ricjs.Record {
	t.Helper()
	initial := ricjs.NewEngine(ricjs.Options{Cache: cache})
	if err := initial.Run("lib.js", faultLib); err != nil {
		t.Fatal(err)
	}
	return initial.ExtractRecord("lib.js")
}

func conventionalOutput(t *testing.T, cache *ricjs.CodeCache) string {
	t.Helper()
	conv := ricjs.NewEngine(ricjs.Options{Cache: cache})
	if err := conv.Run("lib.js", faultLib); err != nil {
		t.Fatal(err)
	}
	return conv.Output()
}

// TestFaultSweepDifferential is the acceptance harness: every workload ×
// every fault mode must uphold the robustness trio — no panic escapes,
// output byte-identical to a conventional run, poisoned records never
// reach the next session.
func TestFaultSweepDifferential(t *testing.T) {
	trials, err := bench.FaultSweep(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) == 0 {
		t.Fatal("fault sweep produced no trials")
	}
	degradedSomewhere := false
	for _, trial := range trials {
		trial := trial
		t.Run(trial.Library+"/"+string(trial.Mode), func(t *testing.T) {
			if trial.Panicked {
				t.Errorf("panic escaped: %s", trial.Err)
			}
			if trial.Err != "" && !trial.Panicked {
				t.Errorf("unexpected error: %s", trial.Err)
			}
			if !trial.OutputMatch {
				t.Error("faulted reuse output differs from conventional run")
			}
			if !trial.PoisonCleared {
				t.Error("faulted record survived to the next session")
			}
		})
		if trial.Degraded {
			degradedSomewhere = true
		}
	}
	if !degradedSomewhere {
		t.Error("no trial degraded; the sweep is not exercising the fallback path")
	}
}

// TestEngineDegradesOnDecodeFailure proves the decode phase of the
// degradation pipeline: undecodable record bytes must not fail engine
// construction or the run — the engine starts conventionally and says so.
func TestEngineDegradesOnDecodeFailure(t *testing.T) {
	cache := ricjs.NewCodeCache()
	want := conventionalOutput(t, cache)

	eng := ricjs.NewEngine(ricjs.Options{Cache: cache, RecordBytes: []byte("not a record")})
	if err := eng.Run("lib.js", faultLib); err != nil {
		t.Fatal(err)
	}
	degraded, cause := eng.Degraded()
	if !degraded {
		t.Fatal("engine with undecodable record bytes must degrade")
	}
	if cause == nil || cause.Phase != "decode" || !cause.RecordAttributable {
		t.Fatalf("degradation cause = %+v, want record-attributable decode failure", cause)
	}
	if got := eng.Stats().DegradedRuns; got != 1 {
		t.Fatalf("DegradedRuns = %d, want 1", got)
	}
	if eng.Output() != want {
		t.Fatalf("degraded output %q != conventional %q", eng.Output(), want)
	}
}

// TestEngineRecoversFromHookPanic proves the recovery boundary: an
// invariant violation inside the reuse machinery mid-run becomes a
// degradation, not a crash, and the retried run matches the conventional
// output.
func TestEngineRecoversFromHookPanic(t *testing.T) {
	cache := ricjs.NewCodeCache()
	rec := extractFaultRecord(t, cache)
	want := conventionalOutput(t, cache)

	eng := ricjs.NewEngine(ricjs.Options{Cache: cache, Record: rec})
	eng.VM().SetHooks(&faultinject.PanicHooks{Countdown: 2})
	if err := eng.Run("lib.js", faultLib); err != nil {
		t.Fatalf("run after injected panic: %v", err)
	}
	degraded, cause := eng.Degraded()
	if !degraded {
		t.Fatal("engine must degrade after an injected hook panic")
	}
	if cause == nil || !cause.RecordAttributable {
		t.Fatalf("degradation cause = %+v, want record-attributable", cause)
	}
	if got := eng.Stats().DegradedRuns; got != 1 {
		t.Fatalf("DegradedRuns = %d, want 1", got)
	}
	if eng.Output() != want {
		t.Fatalf("degraded output %q != conventional %q", eng.Output(), want)
	}
}

// TestDegradedEngineStdoutNoDuplicates proves output staging: with an
// external Stdout, a mid-session degradation must not re-deliver output
// the user already received from earlier scripts, and the final bytes
// must equal a conventional session's.
func TestDegradedEngineStdoutNoDuplicates(t *testing.T) {
	script1 := `function A(v) { this.a = v; } var xs = [new A(1), new A(2)]; print('one', xs[0].a + xs[1].a);`
	script2 := `function B(v) { this.b = v; } var ys = [new B(3), new B(4)]; print('two', ys[0].b + ys[1].b);`

	cache := ricjs.NewCodeCache()
	initial := ricjs.NewEngine(ricjs.Options{Cache: cache})
	for _, s := range []struct{ name, src string }{{"one.js", script1}, {"two.js", script2}} {
		if err := initial.Run(s.name, s.src); err != nil {
			t.Fatal(err)
		}
	}
	rec := initial.ExtractRecord("both")

	var convOut bytes.Buffer
	conv := ricjs.NewEngine(ricjs.Options{Cache: cache, Stdout: &convOut})
	for _, s := range []struct{ name, src string }{{"one.js", script1}, {"two.js", script2}} {
		if err := conv.Run(s.name, s.src); err != nil {
			t.Fatal(err)
		}
	}

	var out bytes.Buffer
	eng := ricjs.NewEngine(ricjs.Options{Cache: cache, Record: rec, Stdout: &out})
	if err := eng.Run("one.js", script1); err != nil {
		t.Fatal(err)
	}
	// Poison the second script's run: the hooks panic on the next
	// hidden-class creation, forcing a mid-session degradation.
	eng.VM().SetHooks(&faultinject.PanicHooks{})
	if err := eng.Run("two.js", script2); err != nil {
		t.Fatal(err)
	}
	if degraded, _ := eng.Degraded(); !degraded {
		t.Fatal("second script must have degraded the engine")
	}
	if out.String() != convOut.String() {
		t.Fatalf("staged output %q != conventional %q", out.String(), convOut.String())
	}
	if n := strings.Count(out.String(), "one"); n != 1 {
		t.Fatalf("first script's output delivered %d times, want exactly once", n)
	}
}

// TestRecordStoreUnderIOFaults drives the store through injected
// filesystem failures: a failed save must leave the previous record
// intact, and a read error must surface as an error, never as silent
// quarantine of a healthy file.
func TestRecordStoreUnderIOFaults(t *testing.T) {
	cache := ricjs.NewCodeCache()
	rec := extractFaultRecord(t, cache)
	dir := t.TempDir()

	healthy, err := ricjs.OpenRecordStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := healthy.Save("lib.js", rec); err != nil {
		t.Fatal(err)
	}

	t.Run("enospc-on-save", func(t *testing.T) {
		ffs := &faultinject.FaultFS{Base: ricjs.NewOSFS(), WriteErr: faultinject.ErrNoSpace}
		store, err := ricjs.OpenRecordStoreFS(dir, ffs)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Save("lib.js", rec); err == nil {
			t.Fatal("save over a full disk must fail")
		}
		if back, err := healthy.Load("lib.js"); err != nil || back == nil {
			t.Fatalf("failed save must leave the old record intact, got (%v, %v)", back, err)
		}
	})

	t.Run("rename-failure-on-save", func(t *testing.T) {
		ffs := &faultinject.FaultFS{Base: ricjs.NewOSFS(), RenameErr: faultinject.ErrIO}
		store, err := ricjs.OpenRecordStoreFS(dir, ffs)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Save("lib.js", rec); err == nil {
			t.Fatal("save with failing rename must fail")
		}
		if back, err := healthy.Load("lib.js"); err != nil || back == nil {
			t.Fatalf("failed save must leave the old record intact, got (%v, %v)", back, err)
		}
	})

	t.Run("eio-on-load", func(t *testing.T) {
		ffs := &faultinject.FaultFS{Base: ricjs.NewOSFS(), ReadErr: faultinject.ErrIO}
		store, err := ricjs.OpenRecordStoreFS(dir, ffs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := store.Load("lib.js"); err == nil {
			t.Fatal("load through a failing disk must surface the error")
		}
		// The healthy file must still be there — an I/O error is not
		// corruption and must not trigger quarantine.
		if back, err := healthy.Load("lib.js"); err != nil || back == nil {
			t.Fatalf("record lost after read error, got (%v, %v)", back, err)
		}
	})
}

// TestQuarantineFailureSurfaces pins the corrupt-record worst case: when
// the quarantine rename AND the last-resort remove both fail, the poison
// file survives and every future Load would re-decode it — so Load must
// return an error instead of silently reporting the record as absent.
func TestQuarantineFailureSurfaces(t *testing.T) {
	dir := t.TempDir()
	healthy, err := ricjs.OpenRecordStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := healthy.SaveBytes("lib.js", []byte("RICREC\xffgarbage")); err != nil {
		t.Fatal(err)
	}

	// Both escape hatches blocked: the poison cannot be moved or removed.
	ffs := &faultinject.FaultFS{
		Base:      ricjs.NewOSFS(),
		RenameErr: faultinject.ErrIO,
		RemoveErr: faultinject.ErrIO,
	}
	wedged, err := ricjs.OpenRecordStoreFS(dir, ffs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wedged.Load("lib.js"); err == nil {
		t.Fatal("surviving poison must surface as a Load error, not silence")
	}

	// Remove works even though rename is broken: the poison is cleared
	// (forensic copy sacrificed), so the load degrades to absent cleanly.
	ffs.RemoveErr = nil
	if rec, err := wedged.Load("lib.js"); err != nil || rec != nil {
		t.Fatalf("removable poison must load as absent, got (%v, %v)", rec, err)
	}
	if rec, err := healthy.Load("lib.js"); err != nil || rec != nil {
		t.Fatalf("poison file must be gone, got (%v, %v)", rec, err)
	}
}

// TestRecordStoreQuarantinedReadDirFault covers the ReadDir fault hook:
// listing quarantined records over a failing disk must surface the error,
// not report an empty (healthy-looking) quarantine.
func TestRecordStoreQuarantinedReadDirFault(t *testing.T) {
	dir := t.TempDir()
	healthy, err := ricjs.OpenRecordStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, script, src := poolLib(3)
	eng := ricjs.NewEngine(ricjs.Options{})
	if err := eng.Run(script, src); err != nil {
		t.Fatal(err)
	}
	if err := healthy.Save(key, eng.ExtractRecord(key)); err != nil {
		t.Fatal(err)
	}
	if err := healthy.Quarantine(key); err != nil {
		t.Fatal(err)
	}

	ffs := &faultinject.FaultFS{Base: ricjs.NewOSFS(), ReadDirErr: faultinject.ErrIO}
	broken, err := ricjs.OpenRecordStoreFS(dir, ffs)
	if err != nil {
		t.Fatal(err)
	}
	if names, err := broken.Quarantined(); err == nil {
		t.Fatalf("Quarantined() over a failing disk returned %v; must surface the error", names)
	}
	// The healthy handle still sees the quarantined record: the fault was
	// the disk, not the data.
	if names, err := healthy.Quarantined(); err != nil || len(names) != 1 {
		t.Fatalf("healthy Quarantined() = %v, %v", names, err)
	}
}
