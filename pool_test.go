package ricjs_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"ricjs"
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
