package ricjs_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"ricjs"
)

// TestSessionPoolHotReadPathLockFree is the lock-freedom acceptance check
// of the copy-on-write shard read path: once every key's record is
// published, serving any number of warm sessions takes no shard mutex —
// the contention counter, which ticks only when acquire falls to the
// locked write path, stays exactly where the cold phase left it.
func TestSessionPoolHotReadPathLockFree(t *testing.T) {
	const (
		nkeys    = 4
		sessions = 32
	)
	pool := ricjs.NewSessionPool(ricjs.PoolOptions{})

	// Cold phase: publish every key's record (one lock acquisition per
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

	// Hot phase: every session resolves against the published snapshot.
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
		t.Fatalf("all-hot run took %d shard locks (counter %d -> %d), want 0 — the read path is no longer lock-free",
			stats.ShardLockAcquires-cold, cold, stats.ShardLockAcquires)
	}
	if stats.ReuseHits != sessions {
		t.Fatalf("ReuseHits = %d, want %d", stats.ReuseHits, sessions)
	}
}

// TestSessionPoolCOWPublishStress drives the copy-on-write publish
// protocol hard under -race: concurrent writers churn the shard maps
// (cold installs, failed extractions that abandon and remove their
// entries, retries of the same failed key) while readers resolve hot keys
// lock-free, and every successful session's output must stay
// byte-identical to a sequential conventional run — the differential
// proof that the lock-free path reads exactly what the locked path wrote.
func TestSessionPoolCOWPublishStress(t *testing.T) {
	const (
		nkeys    = 6
		sessions = 96
	)
	want := sequentialOutputs(t, nkeys)

	// One shard, so every key contends on the same copy-on-write map:
	// the worst case for the publish protocol.
	pool := ricjs.NewSessionPool(ricjs.PoolOptions{Shards: 1})
	var wg sync.WaitGroup
	outs := make([]string, sessions)
	keys := make([]string, sessions)
	errs := make([]error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		if s%8 == 7 {
			// A failing session: its Initial run errors, so the owned
			// entry is abandoned and removed — map churn that must never
			// corrupt a concurrent reader's snapshot. Distinct keys per
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
