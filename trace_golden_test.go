package ricjs

// Golden-trace and trace/profiler reconciliation tests: the structured
// event stream (internal/trace) is locked against committed per-workload
// summaries, shown to be deterministic across repeated runs, and proven to
// roll up to exactly the profiler's aggregate counters — including for
// degraded engines and SessionPool sessions.

import (
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ricjs/internal/trace"
	"ricjs/internal/workloads"
)

var updateGoldens = flag.Bool("update", false, "rewrite the golden trace summaries under testdata/traces")

// tracedPair runs one library's Initial and Reuse runs with tracing on and
// returns both engines (Initial first).
func tracedPair(t *testing.T, p workloads.Profile) (*Engine, *Engine) {
	t.Helper()
	src := p.Source()
	cache := NewCodeCache()

	initial := NewEngine(Options{Cache: cache, Trace: NewTrace(0)})
	if err := initial.Run(p.Script, src); err != nil {
		t.Fatal(err)
	}
	record := initial.ExtractRecord(p.Name)

	reuse := NewEngine(Options{Cache: cache, Record: record, Trace: NewTrace(0)})
	if err := reuse.Run(p.Script, src); err != nil {
		t.Fatal(err)
	}
	return initial, reuse
}

func checkGolden(t *testing.T, name string, got string) {
	t.Helper()
	path := filepath.Join("testdata", "traces", name)
	if *updateGoldens {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run `go test -run TestGoldenTraces -update .` to create it): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("trace summary drifted from %s.\nRe-run with -update if the change is intended.\ngot:\n%s\nwant:\n%s",
			path, got, want)
	}
}

// TestGoldenTraces pins every workload's Initial- and Reuse-run event
// summaries against the committed files under testdata/traces. Any change
// to IC behaviour — promotion thresholds, preload policy, validation —
// shows up here as a diff against a reviewable text file.
func TestGoldenTraces(t *testing.T) {
	for _, p := range workloads.Profiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			initial, reuse := tracedPair(t, p)
			checkGolden(t, p.Name+".initial.golden", initial.Trace().Summary().String())
			checkGolden(t, p.Name+".reuse.golden", reuse.Trace().Summary().String())
		})
	}
	t.Run("Website", func(t *testing.T) {
		// Cross-website reuse: record from website 1, consumed both by the
		// same load order and by website 2's different one (§6's robustness
		// setup). Every website gets an initial AND a reuse golden, so the
		// pairing invariant ci.sh checks holds for the whole directory.
		cache := NewCodeCache()
		runSite := func(n int, record *Record) *Engine {
			e := NewEngine(Options{Cache: cache, Record: record, Trace: NewTrace(0)})
			for _, s := range workloads.Website(n) {
				if err := e.Run(s.Name, s.Source); err != nil {
					t.Fatal(err)
				}
			}
			return e
		}
		initial1 := runSite(1, nil)
		record := initial1.ExtractRecord("website1")
		initial2 := runSite(2, nil)
		reuse1 := runSite(1, record)
		reuse2 := runSite(2, record)
		checkGolden(t, "Website1.initial.golden", initial1.Trace().Summary().String())
		checkGolden(t, "Website1.reuse.golden", reuse1.Trace().Summary().String())
		checkGolden(t, "Website2.initial.golden", initial2.Trace().Summary().String())
		checkGolden(t, "Website2.reuse.golden", reuse2.Trace().Summary().String())
	})
}

// TestTraceDeterminism runs every workload's Initial and Reuse runs twice
// each and requires byte-identical script output and identical trace
// summaries. AddressSeed stays 0 on purpose: every engine sees a different
// simulated heap base, so any address leaking into events or any
// iteration-order dependence in the summary would fail here.
func TestTraceDeterminism(t *testing.T) {
	for _, p := range workloads.Profiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			i1, r1 := tracedPair(t, p)
			i2, r2 := tracedPair(t, p)
			if i1.Output() != i2.Output() {
				t.Error("Initial-run output differs between identical runs")
			}
			if r1.Output() != r2.Output() {
				t.Error("Reuse-run output differs between identical runs")
			}
			if r1.Output() != i1.Output() {
				t.Error("Reuse run changed script behaviour vs Initial run")
			}
			if a, b := i1.Trace().Summary().String(), i2.Trace().Summary().String(); a != b {
				t.Errorf("Initial-run trace summary not deterministic:\n%s\nvs\n%s", a, b)
			}
			if a, b := r1.Trace().Summary().String(), r2.Trace().Summary().String(); a != b {
				t.Errorf("Reuse-run trace summary not deterministic:\n%s\nvs\n%s", a, b)
			}
		})
	}
}

// reconcile asserts that an engine's profiler counters exactly equal the
// roll-up of its trace event stream.
func reconcile(t *testing.T, label string, s Stats, sum *trace.Summary) {
	t.Helper()
	checks := []struct {
		name    string
		counter uint64
		events  uint64
	}{
		{"ICHits", s.ICHits, sum.Count(trace.EvICHit) + sum.Count(trace.EvICHitPreloaded)},
		{"ICMisses", s.ICMisses, sum.Count(trace.EvICMissHandler) + sum.Count(trace.EvICMissGlobal) + sum.Count(trace.EvICMissOther)},
		{"MissHandler", s.MissHandler, sum.Count(trace.EvICMissHandler)},
		{"MissGlobal", s.MissGlobal, sum.Count(trace.EvICMissGlobal)},
		{"MissOther", s.MissOther, sum.Count(trace.EvICMissOther)},
		{"MissesSaved", s.MissesSaved, sum.Count(trace.EvICHitPreloaded)},
		{"Preloads", s.Preloads, sum.Count(trace.EvPreloadApplied)},
		{"Validations", s.Validations, sum.Count(trace.EvValidatePass)},
		{"ValFailures", s.ValFailures, sum.Count(trace.EvValidateFail)},
		{"HCCreated", s.HCCreated, sum.Count(trace.EvHCCreated)},
		{"HandlersMade", s.HandlersMade, sum.Count(trace.EvHandlerInstall) + sum.Count(trace.EvHandlerInstallCI)},
		{"HandlersContextIndep", s.HandlersContextIndep, sum.Count(trace.EvHandlerInstallCI)},
		{"DegradedRuns", s.DegradedRuns, sum.Count(trace.EvDegrade)},
	}
	for _, c := range checks {
		if c.counter != c.events {
			t.Errorf("%s: profiler %s = %d but trace rolls up to %d", label, c.name, c.counter, c.events)
		}
	}
}

// TestTraceProfilerReconciliation checks, for every workload's Initial and
// Reuse runs, that the profiler aggregates are exactly the trace stream's
// roll-up: same events, counted two ways.
func TestTraceProfilerReconciliation(t *testing.T) {
	for _, p := range workloads.Profiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			initial, reuse := tracedPair(t, p)
			reconcile(t, "initial", initial.Stats(), initial.Trace().Summary())
			reconcile(t, "reuse", reuse.Stats(), reuse.Trace().Summary())
			if n := reuse.Trace().Count(trace.EvICHitPreloaded); n == 0 {
				t.Error("reuse run traced no preloaded hits; tracing is not observing RIC")
			}
		})
	}
}

// TestTraceDegradedEngineReconciles drives both degradation paths — a
// record that fails to decode at construction, and a corrupt record that
// fails validation on Run — and checks that the trace buffer restarts with
// the fresh profiler so the two still reconcile.
func TestTraceDegradedEngineReconciles(t *testing.T) {
	t.Run("decode", func(t *testing.T) {
		tr := NewTrace(0)
		e := NewEngine(Options{RecordBytes: []byte("not a record"), Trace: tr})
		if err := e.Run("demo.js", demoLib); err != nil {
			t.Fatal(err)
		}
		if degraded, _ := e.Degraded(); !degraded {
			t.Fatal("engine did not degrade on a corrupt record")
		}
		if tr.Count(trace.EvDegrade) != 1 {
			t.Fatalf("EvDegrade count = %d, want 1", tr.Count(trace.EvDegrade))
		}
		reconcile(t, "decode-degraded", e.Stats(), tr.Summary())
	})
	t.Run("validate", func(t *testing.T) {
		// A record extracted from a diverging program version: the source
		// hash check fails on Run and the engine degrades mid-session.
		cache := NewCodeCache()
		initial := NewEngine(Options{Cache: cache})
		if err := initial.Run("demo.js", demoLib); err != nil {
			t.Fatal(err)
		}
		record := initial.ExtractRecord("demo")

		tr := NewTrace(0)
		e := NewEngine(Options{Record: record, Trace: tr})
		// Prepending a line shifts every access site, so the record's
		// dependent sites no longer exist in the compiled program.
		changed := "var v2 = true;\n" + demoLib
		if err := e.Run("demo.js", changed); err != nil {
			t.Fatal(err)
		}
		degraded, cause := e.Degraded()
		if !degraded {
			t.Fatal("engine did not degrade on a diverging record")
		}
		if tr.Count(trace.EvDegrade) != 1 {
			t.Fatalf("EvDegrade count = %d, want 1", tr.Count(trace.EvDegrade))
		}
		if ev := tr.Events(); len(ev) == 0 || ev[0].Type != trace.EvDegrade || ev[0].Name != cause.Phase {
			t.Fatalf("degradation must be the reset buffer's first event, carrying the phase; got %+v", ev[0])
		}
		reconcile(t, "validate-degraded", e.Stats(), tr.Summary())
	})
}

// TestSessionPoolTraceReconciliation serves concurrent sessions over
// shared keys with per-session tracing and checks (under -race in CI) that
// the pool's atomic counters equal the merged per-session event roll-up,
// and each session's engine counters equal its own buffer's. The backing
// store holds a corrupt record for one key, so the store and quarantine
// rows count real events.
func TestSessionPoolTraceReconciliation(t *testing.T) {
	libs := []string{"jQuery", "Underscore"}
	scripts := map[string][]SessionScript{}
	for _, name := range libs {
		p, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %s", name)
		}
		scripts[name] = []SessionScript{{Name: p.Script, Src: p.Source()}}
	}

	store, err := OpenRecordStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SaveBytes(libs[0], []byte("RICREC\xffgarbage")); err != nil {
		t.Fatal(err)
	}
	pool := NewSessionPool(PoolOptions{Store: store, TraceCapacity: -1})
	const perKey = 4
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		results []*SessionResult
	)
	for _, name := range libs {
		for i := 0; i < perKey; i++ {
			name := name
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := pool.Serve(SessionRequest{Key: name, Scripts: scripts[name]})
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				results = append(results, res)
				mu.Unlock()
			}()
		}
	}
	wg.Wait()

	if len(results) != perKey*len(libs) {
		t.Fatalf("served %d sessions, want %d", len(results), perKey*len(libs))
	}
	summaries := make([]*trace.Summary, 0, len(results))
	seenSessions := map[uint64]bool{}
	for i, res := range results {
		if res.Trace == nil {
			t.Fatalf("session %d has no trace buffer", i)
		}
		sum := res.Trace.Summary()
		reconcile(t, res.Mode.String(), res.Stats, sum)
		if id := res.Trace.Session(); id == 0 || seenSessions[id] {
			t.Errorf("session tag %d not pool-unique", id)
		} else {
			seenSessions[id] = true
		}
		summaries = append(summaries, sum)
	}

	merged := trace.MergeSummaries(summaries...)
	ps := pool.Stats()
	poolChecks := []struct {
		name    string
		counter uint64
		events  uint64
	}{
		{"Sessions", ps.Sessions, merged.Count(trace.EvPoolSession)},
		{"ReuseHits", ps.ReuseHits, merged.Count(trace.EvPoolAcquireHit)},
		{"Extractions", ps.Extractions, merged.Count(trace.EvPoolExtract)},
		{"StoreLoads", ps.StoreLoads, merged.Count(trace.EvPoolStoreLoad)},
		{"StoreErrors", ps.StoreErrors, merged.Count(trace.EvPoolStoreError)},
		{"DedupedExtractions", ps.DedupedExtractions, merged.Count(trace.EvPoolDedup)},
		{"ConventionalRuns", ps.ConventionalRuns, merged.Count(trace.EvPoolConventional)},
		{"DegradedSessions", ps.DegradedSessions, merged.Count(trace.EvPoolDegraded)},
		{"QuarantinedRecords", ps.QuarantinedRecords, merged.Count(trace.EvPoolQuarantine)},
		{"RecordEvictions", ps.RecordEvictions, merged.Count(trace.EvPoolEvict)},
	}
	for _, c := range poolChecks {
		if c.counter != c.events {
			t.Errorf("pool %s = %d but merged traces roll up to %d", c.name, c.counter, c.events)
		}
	}
	if merged.Count(trace.EvPoolExtract) != uint64(len(libs)) {
		t.Errorf("extractions = %d, want one per key (%d)", merged.Count(trace.EvPoolExtract), len(libs))
	}
	if ps.QuarantinedRecords != 1 {
		t.Errorf("QuarantinedRecords = %d, want 1 (the planted corrupt record)", ps.QuarantinedRecords)
	}
	if merged.Count(trace.EvPoolPublish) != uint64(len(libs)) {
		t.Errorf("publishes = %d, want one per key (%d)", merged.Count(trace.EvPoolPublish), len(libs))
	}
}
