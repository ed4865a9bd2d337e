package ricjs_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"ricjs"
	"ricjs/internal/bytecode"
	"ricjs/internal/faultinject"
	"ricjs/internal/parser"
	"ricjs/internal/ric"
	"ricjs/internal/trace"
	"ricjs/internal/vm"
	"ricjs/internal/workloads"
)

// poolLib renders a small library keyed by an index: distinct constructor
// names, field values, and printed output per key, with enough object
// traffic to produce real IC state to extract and reuse.
func poolLib(i int) (key, script, src string) {
	key = fmt.Sprintf("lib%d", i)
	script = fmt.Sprintf("lib%d.js", i)
	src = fmt.Sprintf(`
		function C%[1]d(v) { this.a = v; this.b = v + %[1]d; this.tag = %[1]d; }
		C%[1]d.prototype.sum = function () { return this.a + this.b; };
		var items%[1]d = [];
		for (var i = 0; i < 25; i++) items%[1]d.push(new C%[1]d(i));
		var total%[1]d = 0;
		for (var j = 0; j < items%[1]d.length; j++) total%[1]d += items%[1]d[j].sum();
		print('lib%[1]d total', total%[1]d);
	`, i)
	return key, script, src
}

// sequentialOutputs runs every workload once on a plain conventional
// engine, giving the byte-exact reference output per key.
func sequentialOutputs(t *testing.T, nkeys int) map[string]string {
	t.Helper()
	want := make(map[string]string, nkeys)
	for i := 0; i < nkeys; i++ {
		key, script, src := poolLib(i)
		eng := ricjs.NewEngine(ricjs.Options{})
		if err := eng.Run(script, src); err != nil {
			t.Fatal(err)
		}
		want[key] = eng.Output()
	}
	return want
}

// TestSessionPoolStress is the acceptance stress: >= 32 concurrent
// sessions over >= 4 shared record keys, exactly one extraction per cold
// key (single-flight, verified by pool stats), and byte-identical
// per-session output to a sequential conventional run. Run under -race it
// also proves the shared decoded records are data-race free. It runs over
// three key sets: four and six synthetic libraries, and the full workload
// set (libraries plus the regime zoo), whose keyed, dictionary-mode and
// prototype-dispatch records the synthetic set never extracts.
func TestSessionPoolStress(t *testing.T) {
	var synthetic, zoo []ricjs.SessionRequest
	for i := 0; i < 6; i++ {
		key, script, src := poolLib(i)
		synthetic = append(synthetic, ricjs.SessionRequest{
			Key:     key,
			Scripts: []ricjs.SessionScript{{Name: script, Src: src}},
		})
	}
	for _, p := range workloads.Profiles {
		zoo = append(zoo, ricjs.SessionRequest{
			Key:     p.Name,
			Scripts: []ricjs.SessionScript{{Name: p.Script, Src: p.Source()}},
		})
	}
	for _, tc := range []struct {
		name     string
		keys     []ricjs.SessionRequest
		sessions int
	}{
		{"fourkeys", synthetic[:4], 32},
		{"synthetic", synthetic, 48},
		{"workloads", zoo, 3 * len(zoo)},
	} {
		t.Run(tc.name, func(t *testing.T) { stressPool(t, tc.keys, tc.sessions) })
	}
}

// stressPool serves sessions concurrently, round-robin over keys, through
// one fresh pool and checks single-flight extraction and output identity.
// A session that finds its key's extraction in flight runs conventionally,
// so how the rest split between reuse and conventional runs depends on
// scheduling; every session must still be counted by exactly one mode.
func stressPool(t *testing.T, keys []ricjs.SessionRequest, sessions int) {
	nkeys := len(keys)
	want := make(map[string]string, nkeys)
	for _, req := range keys {
		eng := ricjs.NewEngine(ricjs.Options{})
		for _, sc := range req.Scripts {
			if err := eng.Run(sc.Name, sc.Src); err != nil {
				t.Fatal(err)
			}
		}
		want[req.Key] = eng.Output()
	}

	pool := ricjs.NewSessionPool(ricjs.PoolOptions{})
	results := make([]*ricjs.SessionResult, sessions)
	errs := make([]error, sessions)

	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			results[s], errs[s] = pool.Serve(keys[s%nkeys])
		}(s)
	}
	wg.Wait()

	initials := 0
	for s := 0; s < sessions; s++ {
		key := keys[s%nkeys].Key
		if errs[s] != nil {
			t.Fatalf("session %d: %v", s, errs[s])
		}
		res := results[s]
		if res.Output != want[key] {
			t.Fatalf("session %d (%s): output %q, sequential run produced %q",
				s, key, res.Output, want[key])
		}
		if res.Degraded {
			t.Fatalf("session %d (%s) degraded", s, key)
		}
		if res.Mode == ricjs.SessionInitial {
			initials++
		}
	}

	stats := pool.Stats()
	if stats.Sessions != uint64(sessions) {
		t.Fatalf("Sessions = %d, want %d", stats.Sessions, sessions)
	}
	if stats.Extractions != uint64(nkeys) {
		t.Fatalf("Extractions = %d, want exactly %d (single-flight)", stats.Extractions, nkeys)
	}
	if initials != nkeys {
		t.Fatalf("%d SessionInitial results, want %d", initials, nkeys)
	}
	if total := stats.Extractions + stats.ReuseHits + stats.ConventionalRuns; total != uint64(sessions) {
		t.Fatalf("extractions(%d) + reuse(%d) + conventional(%d) = %d, want %d",
			stats.Extractions, stats.ReuseHits, stats.ConventionalRuns, total, sessions)
	}
	if stats.ConventionalRuns != stats.DedupedExtractions {
		t.Fatalf("ConventionalRuns = %d, DedupedExtractions = %d: only contenders of an in-flight extraction may run conventionally",
			stats.ConventionalRuns, stats.DedupedExtractions)
	}
	if stats.RecordsDecoded() != uint64(nkeys) {
		t.Fatalf("RecordsDecoded = %d, want %d (one decode per key)", stats.RecordsDecoded(), nkeys)
	}
	if got := pool.CachedRecords(); got != nkeys {
		t.Fatalf("CachedRecords = %d, want %d", got, nkeys)
	}
	if stats.DegradedSessions != 0 {
		t.Fatalf("DegradedSessions = %d, want 0", stats.DegradedSessions)
	}
}

// TestSessionPoolStoreBacked proves the disk layer: pool A extracts and
// persists; a fresh pool B (new process, conceptually) serves the same
// key from one store decode and zero extractions.
func TestSessionPoolStoreBacked(t *testing.T) {
	store, err := ricjs.OpenRecordStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, script, src := poolLib(0)
	req := ricjs.SessionRequest{Key: key, Scripts: []ricjs.SessionScript{{Name: script, Src: src}}}

	poolA := ricjs.NewSessionPool(ricjs.PoolOptions{Store: store})
	resA, err := poolA.Serve(req)
	if err != nil {
		t.Fatal(err)
	}
	if resA.Mode != ricjs.SessionInitial {
		t.Fatalf("cold serve mode = %v, want initial", resA.Mode)
	}
	if saved, err := store.Load(key); err != nil || saved == nil {
		t.Fatalf("store Load(%q) after extraction = (%v, %v), want the record", key, saved, err)
	}

	poolB := ricjs.NewSessionPool(ricjs.PoolOptions{Store: store})
	resB, err := poolB.Serve(req)
	if err != nil {
		t.Fatal(err)
	}
	if resB.Mode != ricjs.SessionReuse {
		t.Fatalf("store-backed serve mode = %v, want reuse", resB.Mode)
	}
	if resB.Output != resA.Output {
		t.Fatalf("store-backed output %q != initial output %q", resB.Output, resA.Output)
	}
	if resB.Stats.MissesSaved == 0 {
		t.Fatal("store-backed reuse session averted no misses")
	}
	stats := poolB.Stats()
	if stats.StoreLoads != 1 || stats.Extractions != 0 {
		t.Fatalf("poolB StoreLoads=%d Extractions=%d, want 1/0", stats.StoreLoads, stats.Extractions)
	}
}

// TestSessionPoolFailedExtractionRetries proves a failed Initial run does
// not wedge the key: the entry is abandoned and the next session extracts.
func TestSessionPoolFailedExtractionRetries(t *testing.T) {
	pool := ricjs.NewSessionPool(ricjs.PoolOptions{})
	if _, err := pool.Serve(ricjs.SessionRequest{
		Key:     "k",
		Scripts: []ricjs.SessionScript{{Name: "bad.js", Src: "var ;"}},
	}); err == nil {
		t.Fatal("syntax error must fail the session")
	}
	_, script, src := poolLib(1)
	res, err := pool.Serve(ricjs.SessionRequest{
		Key:     "k",
		Scripts: []ricjs.SessionScript{{Name: script, Src: src}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ricjs.SessionInitial {
		t.Fatalf("retry mode = %v, want initial (key must stay retryable)", res.Mode)
	}
	if stats := pool.Stats(); stats.Extractions != 1 {
		t.Fatalf("Extractions = %d, want 1", stats.Extractions)
	}
}

// TestSessionPoolRejectsBadRequests covers the request validation.
func TestSessionPoolRejectsBadRequests(t *testing.T) {
	pool := ricjs.NewSessionPool(ricjs.PoolOptions{})
	if _, err := pool.Serve(ricjs.SessionRequest{Scripts: []ricjs.SessionScript{{Name: "a.js", Src: "1;"}}}); err == nil {
		t.Fatal("empty key must be rejected")
	}
	if _, err := pool.Serve(ricjs.SessionRequest{Key: "k"}); err == nil {
		t.Fatal("empty script list must be rejected")
	}
}

// TestSessionPoolDegradedSessionStillServes plants a stale record behind
// a key (extracted from a different version of the script) and shows a
// reuse session degrades gracefully inside the pool: correct output,
// degradation counted, later sessions unaffected.
func TestSessionPoolDegradedSessionStillServes(t *testing.T) {
	store, err := ricjs.OpenRecordStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Record from version 1 of the script...
	v1 := "function P(x){this.x=x;} var ps=[new P(1),new P(2)]; var s=ps[0].x+ps[1].x; print('v1', s);"
	init := ricjs.NewEngine(ricjs.Options{})
	if err := init.Run("app.js", v1); err != nil {
		t.Fatal(err)
	}
	if err := store.Save("app", init.ExtractRecord("app")); err != nil {
		t.Fatal(err)
	}
	// ...served to sessions running version 2.
	v2 := "var greeting = 'hello'; print(greeting, 'from v2');"
	pool := ricjs.NewSessionPool(ricjs.PoolOptions{Store: store})
	res, err := pool.Serve(ricjs.SessionRequest{
		Key:     "app",
		Scripts: []ricjs.SessionScript{{Name: "app.js", Src: v2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("stale record must degrade the session")
	}
	if !strings.Contains(res.Output, "hello from v2") {
		t.Fatalf("degraded session output = %q", res.Output)
	}
	if stats := pool.Stats(); stats.DegradedSessions != 1 {
		t.Fatalf("DegradedSessions = %d, want 1", stats.DegradedSessions)
	}
}

// TestSharedRecordImmutableUnderConcurrentReuse pins the contract the
// pool relies on: N engines reusing one decoded record concurrently leave
// its encoded bytes untouched (all per-session reuse state lives in the
// Reuser, not the Record).
func TestSharedRecordImmutableUnderConcurrentReuse(t *testing.T) {
	key, script, src := poolLib(2)
	cache := ricjs.NewCodeCache()
	init := ricjs.NewEngine(ricjs.Options{Cache: cache})
	if err := init.Run(script, src); err != nil {
		t.Fatal(err)
	}
	rec := init.ExtractRecord(key)
	before := string(rec.Encode())

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := ricjs.NewEngine(ricjs.Options{Cache: cache, Record: rec})
			if err := eng.Run(script, src); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	if after := string(rec.Encode()); after != before {
		t.Fatal("concurrent reuse mutated the shared record")
	}
}

// compileScript parses and compiles one script for the record tests.
func compileScript(t *testing.T, name, src string) *bytecode.Program {
	t.Helper()
	tree, err := parser.Parse(name, src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := bytecode.Compile(tree)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestSharedRecordValidateConcurrent validates one shared record from
// many goroutines at once against its own program, an edited (stale)
// version and a stream of fresh compilations, so the single-entry
// validation memo is replaced constantly. Every call must return the
// verdict an unshared record gives, and under -race the memo must be
// race-free.
func TestSharedRecordValidateConcurrent(t *testing.T) {
	_, script, src := poolLib(3)
	valid := compileScript(t, script, src)
	stale := compileScript(t, script, "var pad = 0;\n"+src)
	v := vm.New(vm.Options{AddressSeed: 1})
	if _, err := v.RunProgram(valid); err != nil {
		t.Fatal(err)
	}
	data := ric.Extract(v, script, ric.Config{}).Encode()
	decode := func() *ric.Record {
		rec, err := ric.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	wantStale := decode().Validate(stale)
	if wantStale == nil {
		t.Fatal("edited program validated; the test needs a stale record")
	}
	shared := decode()
	const goroutines, rounds = 8, 40
	fresh := make([][]*bytecode.Program, goroutines)
	for g := range fresh {
		for i := 0; i < rounds/4; i++ {
			fresh[g] = append(fresh[g], compileScript(t, script, src))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(progs []*bytecode.Program) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := shared.Validate(valid); err != nil {
					t.Errorf("valid program rejected: %v", err)
				}
				if err := shared.Validate(stale); err == nil || err.Error() != wantStale.Error() {
					t.Errorf("stale verdict %v, want %v", err, wantStale)
				}
				if i%4 == 0 {
					if err := shared.Validate(progs[i/4]); err != nil {
						t.Errorf("fresh compilation rejected: %v", err)
					}
				}
			}
		}(fresh[g])
	}
	wg.Wait()
}

// TestSessionPoolStoreFaultsUnderRace drives concurrent pooled sessions
// against a store whose reads and renames both fail: every session must
// complete with byte-identical output, each key must extract exactly once
// (the retryable-key discipline survives store failure), every session
// must be counted by exactly one serving mode, and the failures must be
// counted. Run under -race this also proves the fault paths are data-race
// free.
func TestSessionPoolStoreFaultsUnderRace(t *testing.T) {
	const (
		nkeys    = 4
		sessions = 16
	)
	want := sequentialOutputs(t, nkeys)
	ffs := &faultinject.FaultFS{
		Base:      ricjs.NewOSFS(),
		ReadErr:   faultinject.ErrIO,
		RenameErr: faultinject.ErrIO,
	}
	store, err := ricjs.OpenRecordStoreFS(t.TempDir(), ffs)
	if err != nil {
		t.Fatal(err)
	}
	pool := ricjs.NewSessionPool(ricjs.PoolOptions{Store: store})

	results := make([]*ricjs.SessionResult, sessions)
	errs := make([]error, sessions)
	keys := make([]string, sessions)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		key, script, src := poolLib(s % nkeys)
		keys[s] = key
		wg.Add(1)
		go func(s int, req ricjs.SessionRequest) {
			defer wg.Done()
			results[s], errs[s] = pool.Serve(req)
		}(s, ricjs.SessionRequest{
			Key:     key,
			Scripts: []ricjs.SessionScript{{Name: script, Src: src}},
		})
	}
	wg.Wait()

	initials := 0
	for s := 0; s < sessions; s++ {
		if errs[s] != nil {
			t.Fatalf("session %d: store faults must never fail a session: %v", s, errs[s])
		}
		if results[s].Output != want[keys[s]] {
			t.Fatalf("session %d (%s): output %q, want %q", s, keys[s], results[s].Output, want[keys[s]])
		}
		if results[s].Mode == ricjs.SessionInitial {
			initials++
		}
	}
	st := pool.Stats()
	if st.Extractions != nkeys || initials != nkeys {
		t.Fatalf("Extractions = %d with %d SessionInitial results, want exactly %d", st.Extractions, initials, nkeys)
	}
	if total := st.Extractions + st.StoreLoads + st.ReuseHits + st.ConventionalRuns; total != sessions {
		t.Fatalf("extractions(%d) + store loads(%d) + reuse(%d) + conventional(%d) = %d, want %d",
			st.Extractions, st.StoreLoads, st.ReuseHits, st.ConventionalRuns, total, sessions)
	}
	// Each cold key fails one load and one save: 2*nkeys store errors.
	if st.StoreErrors != 2*nkeys {
		t.Fatalf("StoreErrors = %d, want %d (one failed load + one failed save per key)", st.StoreErrors, 2*nkeys)
	}
	if st.StoreLoads != 0 {
		t.Fatalf("StoreLoads = %d, want 0 through a failing disk", st.StoreLoads)
	}
}

// TestPoolQuarantineVisible plants corrupt record bytes behind a key and
// proves the quarantine is observable end to end: the pool counter, the
// trace event, and a session that still completes by re-extracting.
func TestPoolQuarantineVisible(t *testing.T) {
	store, err := ricjs.OpenRecordStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, script, src := poolLib(5)
	if err := store.SaveBytes(key, []byte("RICREC\xffgarbage")); err != nil {
		t.Fatal(err)
	}
	want := sequentialOutputs(t, 6)[key]

	pool := ricjs.NewSessionPool(ricjs.PoolOptions{Store: store, TraceCapacity: -1})
	res, err := pool.Serve(ricjs.SessionRequest{
		Key:     key,
		Scripts: []ricjs.SessionScript{{Name: script, Src: src}},
	})
	if err != nil {
		t.Fatalf("corrupt stored record must never fail a session: %v", err)
	}
	if res.Mode != ricjs.SessionInitial || res.Output != want {
		t.Fatalf("mode %v output %q, want initial run with output %q", res.Mode, res.Output, want)
	}
	if st := pool.Stats(); st.QuarantinedRecords != 1 {
		t.Fatalf("QuarantinedRecords = %d, want 1 (stats %+v)", st.QuarantinedRecords, st)
	}
	if res.Trace == nil || res.Trace.Count(trace.EvPoolQuarantine) != 1 {
		t.Fatalf("trace quarantine events = %d, want 1", res.Trace.Count(trace.EvPoolQuarantine))
	}
	// The poison is gone: the next pool serves the re-extracted record from
	// the store without quarantining again.
	pool2 := ricjs.NewSessionPool(ricjs.PoolOptions{Store: store})
	res2, err := pool2.Serve(ricjs.SessionRequest{
		Key:     key,
		Scripts: []ricjs.SessionScript{{Name: script, Src: src}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Mode != ricjs.SessionReuse {
		t.Fatalf("post-quarantine mode = %v, want reuse of the repaired record", res2.Mode)
	}
	if st := pool2.Stats(); st.QuarantinedRecords != 0 {
		t.Fatalf("repaired store quarantined again: %+v", st)
	}
}

// TestSessionPoolLongestEventPath drives the longest path through Serve,
// a cold key whose store load and store save both fail, and checks that
// all six queued pool events reach the session's trace in order and
// agree with the pool's counters. The load fails either as an I/O error
// or as a corrupt record that is quarantined; LoadStatus reports one or
// the other, never both.
func TestSessionPoolLongestEventPath(t *testing.T) {
	key, script, src := poolLib(2)
	want := sequentialOutputs(t, 3)[key]
	cases := []struct {
		name    string
		corrupt bool // plant a corrupt record, so the load quarantines it
		ffs     faultinject.FaultFS
		load    trace.Type
	}{
		{"load-error", false, faultinject.FaultFS{ReadErr: faultinject.ErrIO, WriteErr: faultinject.ErrNoSpace}, trace.EvPoolStoreError},
		{"quarantine", true, faultinject.FaultFS{WriteErr: faultinject.ErrNoSpace}, trace.EvPoolQuarantine},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if tc.corrupt {
				healthy, err := ricjs.OpenRecordStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				if err := healthy.SaveBytes(key, []byte("RICREC\xffgarbage")); err != nil {
					t.Fatal(err)
				}
			}
			ffs := tc.ffs
			ffs.Base = ricjs.NewOSFS()
			store, err := ricjs.OpenRecordStoreFS(dir, &ffs)
			if err != nil {
				t.Fatal(err)
			}
			pool := ricjs.NewSessionPool(ricjs.PoolOptions{Store: store, TraceCapacity: -1})
			before := pool.Stats()
			res, err := pool.Serve(ricjs.SessionRequest{
				Key:     key,
				Scripts: []ricjs.SessionScript{{Name: script, Src: src}},
			})
			if err != nil {
				t.Fatalf("store faults must never fail a session: %v", err)
			}
			if res.Mode != ricjs.SessionInitial || res.Output != want {
				t.Fatalf("mode %v output %q, want initial run with output %q", res.Mode, res.Output, want)
			}

			wantEvents := []trace.Type{
				trace.EvPoolSession, trace.EvPoolAcquireOwn, tc.load,
				trace.EvPoolExtract, trace.EvPoolPublish, trace.EvPoolStoreError,
			}
			var got []trace.Type
			for _, e := range res.Trace.Events() {
				if strings.HasPrefix(e.Type.String(), "pool-") {
					got = append(got, e.Type)
					if e.Type == trace.EvPoolPublish && e.Name != "extract" {
						t.Errorf("publish source = %q, want extract", e.Name)
					}
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(wantEvents) {
				t.Fatalf("pool events = %v, want %v", got, wantEvents)
			}

			after := pool.Stats()
			deltas := []struct {
				name    string
				counter uint64
				ev      trace.Type
			}{
				{"Sessions", after.Sessions - before.Sessions, trace.EvPoolSession},
				{"Extractions", after.Extractions - before.Extractions, trace.EvPoolExtract},
				{"StoreErrors", after.StoreErrors - before.StoreErrors, trace.EvPoolStoreError},
				{"QuarantinedRecords", after.QuarantinedRecords - before.QuarantinedRecords, trace.EvPoolQuarantine},
				{"StoreLoads", after.StoreLoads - before.StoreLoads, trace.EvPoolStoreLoad},
				{"ReuseHits", after.ReuseHits - before.ReuseHits, trace.EvPoolAcquireHit},
				{"ConventionalRuns", after.ConventionalRuns - before.ConventionalRuns, trace.EvPoolConventional},
				{"DegradedSessions", after.DegradedSessions - before.DegradedSessions, trace.EvPoolDegraded},
			}
			for _, d := range deltas {
				if n := res.Trace.Count(d.ev); d.counter != n {
					t.Errorf("%s rose by %d but the session traced %d %v events", d.name, d.counter, n, d.ev)
				}
			}
		})
	}
}
