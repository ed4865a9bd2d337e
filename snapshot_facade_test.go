package ricjs

import (
	"strings"
	"sync"
	"testing"

	"ricjs/internal/workloads"
)

const snapLib = `
	function Svc(name) { this.name = name; this.calls = 0; }
	Svc.prototype.ping = function () { this.calls++; return this.name; };
	var services = {};
	services.db = new Svc('db');
	services.cache = new Svc('cache');
	var booted = true;
`

func TestSnapshotFacadeRoundTrip(t *testing.T) {
	cache := NewCodeCache()
	sources := map[string]string{"svc.js": snapLib}

	initial := NewEngine(Options{Cache: cache})
	if err := initial.Run("svc.js", snapLib); err != nil {
		t.Fatal(err)
	}
	snap, err := initial.CaptureSnapshot("svc")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Label() != "svc" || len(snap.Scripts()) != 1 {
		t.Fatalf("snapshot meta: %q %v", snap.Label(), snap.Scripts())
	}

	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	restoredSnap, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}

	target := NewEngine(Options{Cache: cache})
	if err := target.RestoreSnapshot(restoredSnap, sources); err != nil {
		t.Fatal(err)
	}
	// The restored heap works without the init script ever running here:
	// drive it with a new script.
	if err := target.Run("probe.js", "print(booted, services.db.ping(), services.cache.name);"); err != nil {
		t.Fatal(err)
	}
	if target.Output() != "true db cache\n" {
		t.Fatalf("output = %q", target.Output())
	}
}

func TestRestoreSnapshotMissingSource(t *testing.T) {
	cache := NewCodeCache()
	initial := NewEngine(Options{Cache: cache})
	if err := initial.Run("svc.js", snapLib); err != nil {
		t.Fatal(err)
	}
	snap, err := initial.CaptureSnapshot("svc")
	if err != nil {
		t.Fatal(err)
	}
	target := NewEngine(Options{Cache: cache})
	err = target.RestoreSnapshot(snap, map[string]string{})
	if err == nil || !strings.Contains(err.Error(), "svc.js") {
		t.Fatalf("err = %v", err)
	}
}

func TestCaptureSnapshotRejectsBoundFunctions(t *testing.T) {
	e := NewEngine(Options{})
	if err := e.Run("b.js", "function f() {} var g = f.bind(null);"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CaptureSnapshot("b"); err == nil {
		t.Fatal("bound functions must be rejected")
	}
}

func TestSnapshotFasterThanReExecution(t *testing.T) {
	// Not a timing assertion (too noisy for CI); instead verify the
	// restore executed zero bytecode: its instruction count stays 0.
	cache := NewCodeCache()
	initial := NewEngine(Options{Cache: cache})
	if err := initial.Run("svc.js", snapLib); err != nil {
		t.Fatal(err)
	}
	snap, err := initial.CaptureSnapshot("svc")
	if err != nil {
		t.Fatal(err)
	}
	target := NewEngine(Options{Cache: cache})
	if err := target.RestoreSnapshot(snap, map[string]string{"svc.js": snapLib}); err != nil {
		t.Fatal(err)
	}
	if got := target.Stats().TotalInstr(); got != 0 {
		t.Fatalf("restore executed %d instructions; must execute none", got)
	}
}

// TestSnapshotConcurrentRestore restores one captured snapshot of a real
// library on several engines at once. Each engine runs the same probe,
// which reads and then mutates the restored API object, and every output
// must equal what the executed engine prints for the same probe. Under
// -race this proves restore never writes to the shared snapshot, and the
// identical outputs prove no engine sees another's mutation.
func TestSnapshotConcurrentRestore(t *testing.T) {
	const engines = 8
	lib := workloads.Profiles[0]
	src := lib.Source()
	cache := NewCodeCache()
	initial := NewEngine(Options{Cache: cache})
	if err := initial.Run(lib.Script, src); err != nil {
		t.Fatal(err)
	}
	snap, err := initial.CaptureSnapshot(lib.Name)
	if err != nil {
		t.Fatal(err)
	}
	api := "window." + sanitized(lib.Name)
	probe := "print(" + api + ".acc, " + api + ".ready); " + api + ".acc = " + api + ".acc + 1; print(" + api + ".acc);"
	before := len(initial.Output())
	if err := initial.Run("probe.js", probe); err != nil {
		t.Fatal(err)
	}
	want := initial.Output()[before:]

	outs := make([]string, engines)
	errs := make([]error, engines)
	var wg sync.WaitGroup
	for i := 0; i < engines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eng := NewEngine(Options{Cache: cache})
			if errs[i] = eng.RestoreSnapshot(snap, map[string]string{lib.Script: src}); errs[i] != nil {
				return
			}
			if errs[i] = eng.Run("probe.js", probe); errs[i] == nil {
				outs[i] = eng.Output()
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < engines; i++ {
		if errs[i] != nil {
			t.Fatalf("engine %d: %v", i, errs[i])
		}
		if outs[i] != want {
			t.Fatalf("engine %d probe output %q, executed engine printed %q", i, outs[i], want)
		}
	}
}
