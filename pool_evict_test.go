package ricjs

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"ricjs/internal/codecache"
	"ricjs/internal/progen"
	"ricjs/internal/workloads"
)

// evictKey is one workload of the eviction tests: a record key and its
// one script.
type evictKey struct{ key, name, src string }

func (k evictKey) request() SessionRequest {
	return SessionRequest{Key: k.key, Scripts: []SessionScript{{Name: k.name, Src: k.src}}}
}

// hotKeys are the 11 workload profiles, the hot set a pool serves.
func hotKeys() []evictKey {
	out := make([]evictKey, len(workloads.Profiles))
	for i, p := range workloads.Profiles {
		out[i] = evictKey{p.Name, p.Script, p.Source()}
	}
	return out
}

// progenKeys are n progen programs, a cold tail of one-off scripts.
func progenKeys(n int) []evictKey {
	out := make([]evictKey, n)
	for i := range out {
		key := fmt.Sprintf("progen-%03d", i)
		out[i] = evictKey{key, key + ".js", progen.New(0xE71C_0000 + uint64(i)).Program()}
	}
	return out
}

// extract runs k's Initial session on a fresh engine and returns its
// output and record.
func extract(t *testing.T, k evictKey) (string, *Record) {
	t.Helper()
	e := NewEngine(Options{})
	if err := e.Run(k.name, k.src); err != nil {
		t.Fatalf("%s: %v", k.key, err)
	}
	return e.Output(), e.ExtractRecord(k.key)
}

// cachedKey reports whether key has a published record in the pool's
// cache, without touching its reference bit.
func (p *SessionPool) cachedKey(key string) bool {
	ent, ok := p.records.Load(key)
	return ok && ent.(*recordEntry).rec.Load() != nil
}

// TestSessionPoolEvictChurn serves the 11 profiles and a cold tail of
// progen programs from four goroutines, over a record store, with a
// record budget that holds the profiles and about a dozen progen records.
// All four goroutines first ask for one shared cold key at once; then
// each serves its own cold keys, one at a time, and the whole hot set
// after each. The checks:
//   - every session prints what a plain run prints;
//   - evictions happen, and the ring never holds more than its budget;
//   - every key is extracted exactly once: an in-flight key is never on
//     the ring, so single-flight holds while the ring evicts;
//   - no hot key is evicted. A cold key is asked for once, so the ring
//     always holds a dozen unreferenced cold records for the hand to
//     stop at: it needs that many evictions, so at least six
//     admissions, to come round to a hot entry twice, and some goroutine
//     serves the whole hot set between two of them.
func TestSessionPoolEvictChurn(t *testing.T) {
	const goroutines, coldPerGoroutine = 4, 6
	hot, cold := hotKeys(), progenKeys(1+goroutines*coldPerGoroutine)
	shared, own := cold[0], cold[1:]
	want := map[string]string{}
	budget, maxCold := 0, 0
	for _, k := range hot {
		out, rec := extract(t, k)
		want[k.key] = out
		budget += rec.r.ResidentBytes()
	}
	for _, k := range cold {
		out, rec := extract(t, k)
		want[k.key] = out
		maxCold = max(maxCold, rec.r.ResidentBytes())
	}
	budget += 12 * maxCold

	store, err := OpenRecordStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pool := NewSessionPool(PoolOptions{Store: store})
	pool.ring.Budget = budget
	serve := func(k evictKey) {
		res, err := pool.Serve(k.request())
		if err != nil {
			t.Errorf("%s: %v", k.key, err)
			return
		}
		if res.Output != want[k.key] {
			t.Errorf("%s (%s): output differs from a plain run", k.key, res.Mode)
		}
	}
	hotEntries := map[string]any{}
	for _, k := range hot {
		serve(k)
		hotEntries[k.key], _ = pool.records.Load(k.key)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			serve(shared)
			for _, c := range own[g*coldPerGoroutine : (g+1)*coldPerGoroutine] {
				serve(c)
				for i := range hot {
					serve(hot[(g+i)%len(hot)])
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()

	st := pool.Stats()
	if st.RecordEvictions == 0 {
		t.Error("a cold tail twice the spare budget evicted nothing")
	}
	if used := pool.ring.Used(); used > budget {
		t.Errorf("%d bytes charged over a budget of %d", used, budget)
	}
	if n := len(hot) + len(cold); st.Extractions != uint64(n) {
		t.Errorf("%d extractions for %d keys; want exactly one each", st.Extractions, n)
	}
	if st.StoreErrors != 0 || st.DegradedSessions != 0 {
		t.Errorf("store errors %d, degraded sessions %d; want none", st.StoreErrors, st.DegradedSessions)
	}
	for _, k := range hot {
		// An evicted hot key would be back by now, reloaded from the
		// store into a new entry.
		if ent, _ := pool.records.Load(k.key); ent != hotEntries[k.key] {
			t.Errorf("hot key %s was evicted by the churn", k.key)
		}
	}
	if got := uint64(pool.CachedRecords()); got != st.Extractions+st.StoreLoads-st.RecordEvictions {
		t.Errorf("%d records cached; %d extracted + %d loaded - %d evicted",
			got, st.Extractions, st.StoreLoads, st.RecordEvictions)
	}
}

// TestSessionPoolEvictReloadIdentical evicts a key's record and serves
// the key again: the record comes back from the store, and the session's
// output and statistics are byte-identical to a Reuse session on a pool
// that never evicted it.
func TestSessionPoolEvictReloadIdentical(t *testing.T) {
	prof, ok := workloads.ByName("AngularJS")
	if !ok {
		t.Fatal("no AngularJS profile")
	}
	keys := append(progenKeys(2), evictKey{prof.Name, prof.Script, prof.Source()})
	for i, k := range keys[1:] {
		filler := keys[i]
		never := NewSessionPool(PoolOptions{})
		if _, err := never.Serve(k.request()); err != nil {
			t.Fatal(err)
		}
		want, err := never.Serve(k.request())
		if err != nil {
			t.Fatal(err)
		}

		store, err := OpenRecordStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		pool := NewSessionPool(PoolOptions{Store: store})
		_, rk := extract(t, k)
		_, rf := extract(t, filler)
		pool.ring.Budget = max(rk.r.ResidentBytes(), rf.r.ResidentBytes())
		for _, s := range []evictKey{k, filler} {
			if _, err := pool.Serve(s.request()); err != nil {
				t.Fatal(err)
			}
		}
		if pool.cachedKey(k.key) || pool.Stats().RecordEvictions != 1 {
			t.Fatalf("%s: still cached after its one-record budget took %s", k.key, filler.key)
		}
		got, err := pool.Serve(k.request())
		if err != nil {
			t.Fatal(err)
		}
		if got.Mode != SessionReuse || pool.Stats().StoreLoads != 1 {
			t.Fatalf("%s: reload ran %s with %d store loads; want a reuse session from the store",
				k.key, got.Mode, pool.Stats().StoreLoads)
		}
		if want.Mode != SessionReuse || got.Output != want.Output || !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Errorf("%s: reloaded session differs from a never-evicted one:\n got %s %+v\nwant %s %+v",
				k.key, got.Mode, got.Stats, want.Mode, want.Stats)
		}
	}
}

// TestSessionPoolEvictOversize serves a key whose record alone is charged
// more than the whole budget: every session is served, the record is
// never cached, and each publish counts as an eviction.
func TestSessionPoolEvictOversize(t *testing.T) {
	k := progenKeys(1)[0]
	out, rec := extract(t, k)
	store, err := OpenRecordStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pool := NewSessionPool(PoolOptions{Store: store})
	pool.ring.Budget = rec.r.ResidentBytes() - 1
	for i, mode := range []SessionMode{SessionInitial, SessionReuse} {
		res, err := pool.Serve(k.request())
		if err != nil {
			t.Fatal(err)
		}
		if res.Mode != mode || res.Output != out {
			t.Fatalf("session %d ran %s; want %s with the plain run's output", i, res.Mode, mode)
		}
		if pool.CachedRecords() != 0 || pool.ring.Len() != 0 {
			t.Fatalf("session %d: an oversize record was cached", i)
		}
		if ev := pool.Stats().RecordEvictions; ev != uint64(i+1) {
			t.Fatalf("session %d: %d evictions, want %d", i, ev, i+1)
		}
	}
	if st := pool.Stats(); st.Extractions != 1 || st.StoreLoads != 1 {
		t.Fatalf("%d extractions, %d store loads; want 1 and 1", st.Extractions, st.StoreLoads)
	}
}

// TestSessionPoolProfilesFitBudget serves the 11 profiles twice on a pool
// with the default budget: neither the record cache nor the code cache
// evicts, and each holds the hot set within three quarters of its budget.
func TestSessionPoolProfilesFitBudget(t *testing.T) {
	pool := NewSessionPool(PoolOptions{})
	for round := 0; round < 2; round++ {
		for _, k := range hotKeys() {
			if _, err := pool.Serve(k.request()); err != nil {
				t.Fatal(err)
			}
		}
	}
	cs := pool.cache.c.Stats()
	if ev := pool.Stats().RecordEvictions; ev != 0 || cs.Evictions != 0 {
		t.Fatalf("the hot set evicted %d records and %d programs; want none", ev, cs.Evictions)
	}
	if pool.CachedRecords() != len(workloads.Profiles) || pool.cache.c.Len() != len(workloads.Profiles) {
		t.Fatalf("%d records and %d programs cached; want %d each",
			pool.CachedRecords(), pool.cache.c.Len(), len(workloads.Profiles))
	}
	if used := pool.ring.Used(); used > residentBudget*3/4 {
		t.Errorf("the hot set's records are charged %d bytes, over 3/4 of the %d budget", used, residentBudget)
	}
	if used := pool.cache.c.Used(); used > residentBudget*3/4 {
		t.Errorf("the hot set's programs are charged %d bytes, over 3/4 of the %d budget", used, residentBudget)
	}
}

// liveHeap is the live heap after a full collection.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestResidentChargeMatchesLiveHeap compiles the benchmark's 400-program
// progen corpus into one code cache and decodes each program's record,
// then checks what the caches charge against the live heap the two sets
// add after a collection: each must lie within 25% of it. The charge for
// a program includes its name and source text, so the sources are
// generated inside the measurement.
func TestResidentChargeMatchesLiveHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs 400 programs")
	}
	const corpusSize, corpusSeed = 400, 0xC0DE_0000
	base := liveHeap()
	cache := &CodeCache{c: codecache.New(math.MaxInt)}
	keys := make([]evictKey, corpusSize)
	for i := range keys {
		key := fmt.Sprintf("progen-%03d", i)
		keys[i] = evictKey{key, key + ".js", progen.New(corpusSeed + uint64(i)).Program()}
		if _, err := cache.c.Load(keys[i].name, keys[i].src); err != nil {
			t.Fatal(err)
		}
	}
	codeLive := int(liveHeap() - base)
	codeCharge := cache.c.Used()

	encoded := make([][]byte, len(keys))
	for i, k := range keys {
		e := NewEngine(Options{Cache: cache})
		if err := e.Run(k.name, k.src); err != nil {
			t.Fatal(err)
		}
		encoded[i] = e.ExtractRecord(k.key).Encode()
	}
	base = liveHeap()
	recs := make([]*Record, len(encoded))
	recCharge := 0
	for i, b := range encoded {
		r, err := DecodeRecord(b)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = r
		recCharge += r.r.ResidentBytes()
	}
	recLive := int(liveHeap() - base)
	runtime.KeepAlive(recs)
	runtime.KeepAlive(encoded)

	t.Logf("programs: charged %d, live %d; records: charged %d, live %d", codeCharge, codeLive, recCharge, recLive)
	for _, c := range []struct {
		what           string
		charged, alive int
	}{{"programs", codeCharge, codeLive}, {"records", recCharge, recLive}} {
		if d := float64(c.charged-c.alive) / float64(c.alive); d < -0.25 || d > 0.25 {
			t.Errorf("%s: charged %d bytes for %d live (%+.1f%%); want within 25%%",
				c.what, c.charged, c.alive, 100*d)
		}
	}
}
