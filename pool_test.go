package ricjs_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"ricjs"
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
// also proves the shared decoded records are data-race free.
func TestSessionPoolStress(t *testing.T) {
	const (
		nkeys    = 6
		sessions = 48
	)
	want := sequentialOutputs(t, nkeys)

	pool := ricjs.NewSessionPool(ricjs.PoolOptions{WaitForRecord: true})
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
			t.Fatalf("session %d: %v", s, errs[s])
		}
		res := results[s]
		if res.Output != want[keys[s]] {
			t.Fatalf("session %d (%s): output %q, sequential run produced %q",
				s, keys[s], res.Output, want[keys[s]])
		}
		if res.Degraded {
			t.Fatalf("session %d (%s) degraded", s, keys[s])
		}
		if res.Mode == ricjs.SessionInitial {
			initials++
		}
	}

	stats := pool.Stats()
	if stats.Sessions != sessions {
		t.Fatalf("Sessions = %d, want %d", stats.Sessions, sessions)
	}
	if stats.Extractions != nkeys {
		t.Fatalf("Extractions = %d, want exactly %d (single-flight)", stats.Extractions, nkeys)
	}
	if initials != nkeys {
		t.Fatalf("%d SessionInitial results, want %d", initials, nkeys)
	}
	if stats.ReuseHits != sessions-nkeys {
		t.Fatalf("ReuseHits = %d, want %d (every non-extractor reuses)", stats.ReuseHits, sessions-nkeys)
	}
	if stats.ConventionalRuns != 0 {
		t.Fatalf("ConventionalRuns = %d, want 0 with WaitForRecord", stats.ConventionalRuns)
	}
	if stats.RecordsDecoded() != nkeys {
		t.Fatalf("RecordsDecoded = %d, want %d (one decode per key)", stats.RecordsDecoded(), nkeys)
	}
	if got := pool.CachedRecords(); got != nkeys {
		t.Fatalf("CachedRecords = %d, want %d", got, nkeys)
	}
	if stats.DegradedSessions != 0 {
		t.Fatalf("DegradedSessions = %d, want 0", stats.DegradedSessions)
	}
}

// TestSessionPoolNoWaitRunsConventionally covers the other single-flight
// policy: contenders that find extraction in flight proceed record-free
// instead of blocking, and still never duplicate the extraction.
func TestSessionPoolNoWaitRunsConventionally(t *testing.T) {
	const (
		nkeys    = 4
		sessions = 32
	)
	want := sequentialOutputs(t, nkeys)

	pool := ricjs.NewSessionPool(ricjs.PoolOptions{})
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

	for s := 0; s < sessions; s++ {
		if errs[s] != nil {
			t.Fatalf("session %d: %v", s, errs[s])
		}
		if results[s].Output != want[keys[s]] {
			t.Fatalf("session %d (%s): output %q, want %q", s, keys[s], results[s].Output, want[keys[s]])
		}
	}
	stats := pool.Stats()
	if stats.Extractions != nkeys {
		t.Fatalf("Extractions = %d, want exactly %d (single-flight)", stats.Extractions, nkeys)
	}
	if stats.WaitedSessions != 0 {
		t.Fatalf("WaitedSessions = %d, want 0 without WaitForRecord", stats.WaitedSessions)
	}
	// Every session is accounted for by exactly one serving mode.
	if total := stats.Extractions + stats.ReuseHits + stats.ConventionalRuns; total != sessions {
		t.Fatalf("extractions(%d) + reuse(%d) + conventional(%d) = %d, want %d",
			stats.Extractions, stats.ReuseHits, stats.ConventionalRuns, total, sessions)
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
	if keys, _ := store.Keys(); len(keys) != 1 || keys[0] != key {
		t.Fatalf("store keys after extraction = %v, want [%s]", keys, key)
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
