package ricjs_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"ricjs"
	"ricjs/internal/workloads"
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
	pool := ricjs.NewSessionPool(ricjs.PoolOptions{WaitForRecord: true})

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
	pool := ricjs.NewSessionPool(ricjs.PoolOptions{WaitForRecord: true, Shards: 1})
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

// TestSessionPoolSnapshotWarmStart covers the snapshot warm-start tier:
// the extraction owner captures a heap snapshot, an opted-in warm session
// is served by restore (no execution, no output), concurrent warm sessions
// all restore from the one shared snapshot, an opted-out session still
// runs byte-identically, and a warm request whose scripts differ from the
// captured ones falls back to execution. It runs over a synthetic library
// and a real workload library.
func TestSessionPoolSnapshotWarmStart(t *testing.T) {
	key, script, src := poolLib(1)
	lib := workloads.Profiles[0]
	for _, in := range []struct{ key, script, src string }{
		{key, script, src},
		{lib.Name, lib.Script, lib.Source()},
	} {
		t.Run(in.key, func(t *testing.T) { warmStartPool(t, in.key, in.script, in.src) })
	}
}

func warmStartPool(t *testing.T, key, script, src string) {
	req := ricjs.SessionRequest{
		Key:     key,
		Scripts: []ricjs.SessionScript{{Name: script, Src: src}},
	}
	pool := ricjs.NewSessionPool(ricjs.PoolOptions{WaitForRecord: true, SnapshotWarmStart: true})

	first, err := pool.Serve(req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Mode != ricjs.SessionInitial {
		t.Fatalf("first session mode = %v, want initial", first.Mode)
	}
	if got := pool.Stats().SnapshotCaptures; got != 1 {
		t.Fatalf("SnapshotCaptures = %d, want 1", got)
	}

	warmReq := req
	warmReq.WarmStart = true
	warm, err := pool.Serve(warmReq)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Mode != ricjs.SessionSnapshot {
		t.Fatalf("warm session mode = %v, want snapshot", warm.Mode)
	}
	if warm.Output != "" {
		t.Fatalf("snapshot-served session has output %q, want none (nothing executed)", warm.Output)
	}
	if got := pool.Stats().SnapshotRestores; got != 1 {
		t.Fatalf("SnapshotRestores = %d, want 1", got)
	}

	// Concurrent warm sessions share the one captured snapshot; under
	// -race this proves restore never writes to it.
	const concurrent = 8
	var wg sync.WaitGroup
	modes := make([]ricjs.SessionMode, concurrent)
	errs := make([]error, concurrent)
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := pool.Serve(warmReq)
			if errs[i] = err; err == nil {
				modes[i] = res.Mode
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < concurrent; i++ {
		if errs[i] != nil || modes[i] != ricjs.SessionSnapshot {
			t.Fatalf("concurrent warm session %d: mode %v, err %v; want snapshot", i, modes[i], errs[i])
		}
	}
	if st := pool.Stats(); st.SnapshotRestores != 1+concurrent || st.SnapshotErrors != 0 {
		t.Fatalf("SnapshotRestores = %d, SnapshotErrors = %d; want %d and 0",
			st.SnapshotRestores, st.SnapshotErrors, 1+concurrent)
	}

	// Opting out still executes, byte-identically to the Initial run.
	cold, err := pool.Serve(req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Mode != ricjs.SessionReuse {
		t.Fatalf("opted-out session mode = %v, want reuse", cold.Mode)
	}
	if cold.Output != first.Output {
		t.Fatalf("opted-out session output %q != initial output %q", cold.Output, first.Output)
	}

	// A warm request with different scripts must not be served someone
	// else's heap: the snapshot doesn't fit, so it executes.
	otherReq := ricjs.SessionRequest{
		Key:       key,
		WarmStart: true,
		Scripts:   []ricjs.SessionScript{{Name: script, Src: src + "\nprint('extra');\n"}},
	}
	other, err := pool.Serve(otherReq)
	if err != nil {
		t.Fatal(err)
	}
	if other.Mode != ricjs.SessionReuse {
		t.Fatalf("mismatched warm session mode = %v, want reuse (fallback to execution)", other.Mode)
	}
	if !strings.Contains(other.Output, "extra") {
		t.Fatalf("mismatched warm session did not execute its own scripts: %q", other.Output)
	}
	if got := pool.Stats().SnapshotRestores; got != 1+concurrent {
		t.Fatalf("SnapshotRestores = %d after mismatch, want still %d", got, 1+concurrent)
	}
}
