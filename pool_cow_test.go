package ricjs_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"ricjs"
)

// TestSessionPoolHotReadPathLockFree is the lock-freedom acceptance check
// of the record cache's read path: once every key's record is published,
// serving any number of warm sessions never enters the write path — the
// contention counter, which ticks only when acquire misses the lock-free
// Load, stays exactly where the cold phase left it.
func TestSessionPoolHotReadPathLockFree(t *testing.T) {
	const (
		nkeys    = 4
		sessions = 32
	)
	pool := ricjs.NewSessionPool(ricjs.PoolOptions{})

	// Cold phase: publish every key's record (one write-path entry per
	// cold install is expected and counted).
	for i := 0; i < nkeys; i++ {
		key, script, src := poolLib(i)
		if _, err := pool.Serve(ricjs.SessionRequest{
			Key:     key,
			Scripts: []ricjs.SessionScript{{Name: script, Src: src}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	cold := pool.Stats().ShardLockAcquires
	if cold == 0 || cold > nkeys {
		t.Fatalf("cold phase ShardLockAcquires = %d, want 1..%d (one per cold key)", cold, nkeys)
	}

	// Hot phase: every session resolves with a lock-free Load.
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for s := 0; s < sessions; s++ {
		key, script, src := poolLib(s % nkeys)
		wg.Add(1)
		go func(s int, req ricjs.SessionRequest) {
			defer wg.Done()
			_, errs[s] = pool.Serve(req)
		}(s, ricjs.SessionRequest{
			Key:     key,
			Scripts: []ricjs.SessionScript{{Name: script, Src: src}},
		})
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", s, err)
		}
	}

	stats := pool.Stats()
	if stats.ShardLockAcquires != cold {
		t.Fatalf("all-hot run entered the write path %d times (counter %d -> %d), want 0 — the read path is no longer lock-free",
			stats.ShardLockAcquires-cold, cold, stats.ShardLockAcquires)
	}
	if stats.ReuseHits != sessions {
		t.Fatalf("ReuseHits = %d, want %d", stats.ReuseHits, sessions)
	}
}

// TestSessionPoolCOWPublishStress drives the record cache's publish
// protocol hard under -race: concurrent writers churn the map (cold
// installs, failed extractions that abandon and delete their entries,
// retries of the same failed key) while readers resolve hot keys
// lock-free, and every successful session's output must stay
// byte-identical to a sequential conventional run — the differential
// proof that the lock-free path reads exactly what the write path wrote.
func TestSessionPoolCOWPublishStress(t *testing.T) {
	const (
		nkeys    = 6
		sessions = 96
	)
	want := sequentialOutputs(t, nkeys)

	// Every key shares the pool's one map, so writers and readers of all
	// keys contend on it: the worst case for the publish protocol.
	pool := ricjs.NewSessionPool(ricjs.PoolOptions{})
	var wg sync.WaitGroup
	outs := make([]string, sessions)
	keys := make([]string, sessions)
	errs := make([]error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		if s%8 == 7 {
			// A failing session: its Initial run errors, so the owned
			// entry is abandoned and deleted — map churn that must never
			// corrupt a concurrent reader's lookup. Distinct keys per
			// attempt keep these cold forever.
			key := fmt.Sprintf("bad%d", s)
			keys[s] = key
			go func(s int, key string) {
				defer wg.Done()
				_, err := pool.Serve(ricjs.SessionRequest{
					Key:     key,
					Scripts: []ricjs.SessionScript{{Name: key + ".js", Src: "syntax error ("}},
				})
				if err == nil {
					errs[s] = fmt.Errorf("bad key %s: expected an error", key)
				}
			}(s, key)
			continue
		}
		key, script, src := poolLib(s % nkeys)
		keys[s] = key
		go func(s int, req ricjs.SessionRequest) {
			defer wg.Done()
			res, err := pool.Serve(req)
			if err != nil {
				errs[s] = err
				return
			}
			outs[s] = res.Output
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
		if strings.HasPrefix(keys[s], "bad") {
			continue
		}
		if outs[s] != want[keys[s]] {
			t.Fatalf("session %d (%s): output %q, sequential run produced %q",
				s, keys[s], outs[s], want[keys[s]])
		}
	}
	stats := pool.Stats()
	if stats.Extractions != nkeys {
		t.Fatalf("Extractions = %d, want %d (single-flight survived the churn)", stats.Extractions, nkeys)
	}
	if pool.CachedRecords() != nkeys {
		t.Fatalf("CachedRecords = %d, want %d (abandoned keys must be removed)", pool.CachedRecords(), nkeys)
	}
}
