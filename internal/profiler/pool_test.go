package profiler

import (
	"sync"
	"testing"

	"ricjs/internal/trace"
)

func TestPoolCountersConcurrent(t *testing.T) {
	var p PoolCounters
	const goroutines = 16
	const perG = 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				p.Note(trace.EvPoolSession)
				p.Note(trace.EvPoolAcquireHit)
				if i%10 == 0 {
					p.Note(trace.EvPoolExtract)
					p.Note(trace.EvPoolStoreLoad)
					p.Note(trace.EvPoolDedup)
					p.Note(trace.EvPoolConventional)
					p.Note(trace.EvPoolDegraded)
					p.Note(trace.EvPoolStoreError)
					p.ShardLock()
				}
			}
		}()
	}
	wg.Wait()

	s := p.Snapshot()
	if s.Sessions != goroutines*perG {
		t.Fatalf("Sessions = %d, want %d", s.Sessions, goroutines*perG)
	}
	if s.ReuseHits != goroutines*perG {
		t.Fatalf("ReuseHits = %d, want %d", s.ReuseHits, goroutines*perG)
	}
	const sparse = goroutines * (perG / 10)
	for name, got := range map[string]uint64{
		"Extractions":        s.Extractions,
		"StoreLoads":         s.StoreLoads,
		"StoreErrors":        s.StoreErrors,
		"DedupedExtractions": s.DedupedExtractions,
		"ConventionalRuns":   s.ConventionalRuns,
		"DegradedSessions":   s.DegradedSessions,
		"ShardLockAcquires":  s.ShardLockAcquires,
	} {
		if got != sparse {
			t.Fatalf("%s = %d, want %d", name, got, sparse)
		}
	}
	if s.RecordsDecoded() != s.StoreLoads+s.Extractions {
		t.Fatalf("RecordsDecoded = %d, want %d", s.RecordsDecoded(), s.StoreLoads+s.Extractions)
	}
}

func TestPoolSnapshotZeroValue(t *testing.T) {
	var p PoolCounters
	if s := p.Snapshot(); s != (PoolSnapshot{}) {
		t.Fatalf("zero counters snapshot = %+v", s)
	}
}
