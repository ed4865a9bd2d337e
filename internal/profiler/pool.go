package profiler

import (
	"sync/atomic"

	"ricjs/internal/trace"
)

// PoolCounters aggregates statistics across the many concurrent sessions a
// ricjs.SessionPool serves. Unlike Counters — which is per-engine and
// single-threaded like a JavaScript isolate — PoolCounters is updated from
// many goroutines at once, so every field is atomic.
//
// Every pool outcome is a trace event type, and the counters are indexed
// by it: the pool records an outcome with one Note call, the same call
// that queues the event for the session's trace, so the two can never
// drift apart. ShardLockAcquires is the one counter with no event.
type PoolCounters struct {
	events     [trace.NumTypes]atomic.Uint64
	shardLocks atomic.Uint64
}

// Note records one pool outcome of event type t.
func (p *PoolCounters) Note(t trace.Type) { p.events[t].Add(1) }

// ShardLock records a record-cache acquire that missed the lock-free read
// and entered the write path — only cold keys (entry installation) do; a
// warm read resolves with one lock-free sync.Map Load. An all-hot run must
// keep this counter at 0; that is the lock-freedom acceptance check of the
// load harness, which reports it under this name.
func (p *PoolCounters) ShardLock() { p.shardLocks.Add(1) }

// PoolSnapshot is an immutable copy of a pool's aggregate statistics. Each
// field but ShardLockAcquires counts the pool trace event named in its
// comment.
type PoolSnapshot struct {
	// Sessions is the number of sessions served (EvPoolSession).
	Sessions uint64
	// ReuseHits counts sessions served a record from the shared cache
	// (EvPoolAcquireHit).
	ReuseHits uint64
	// Extractions counts Initial runs that produced a record, exactly one
	// per cold key under single-flight (EvPoolExtract).
	Extractions uint64
	// StoreLoads counts records decoded from the backing store
	// (EvPoolStoreLoad).
	StoreLoads uint64
	// StoreErrors counts failed best-effort backing-store operations
	// (EvPoolStoreError).
	StoreErrors uint64
	// DedupedExtractions counts sessions that skipped extraction because
	// one was already in flight for their key (EvPoolDedup).
	DedupedExtractions uint64
	// ConventionalRuns counts sessions that ran record-free
	// (EvPoolConventional).
	ConventionalRuns uint64
	// DegradedSessions counts sessions whose engine degraded mid-run
	// (EvPoolDegraded).
	DegradedSessions uint64
	// ShardLockAcquires counts record-cache acquires that missed the
	// lock-free read and entered the write path (cold-key entry
	// installation only). The warm read path is lock-free — an all-hot run
	// keeps this at 0.
	ShardLockAcquires uint64
	// QuarantinedRecords counts corrupt stored records quarantined during
	// pool store loads, renamed to .ric.bad with the key treated as cold
	// (EvPoolQuarantine).
	QuarantinedRecords uint64
}

// RecordsDecoded returns how many times a record was materialized in
// memory — store decodes plus extractions. Under single-flight sharing it
// is at most one per distinct key, however many sessions ran.
func (s PoolSnapshot) RecordsDecoded() uint64 { return s.StoreLoads + s.Extractions }

// Snapshot captures the current aggregate statistics. It may be called
// while sessions are still running; each field is individually coherent.
func (p *PoolCounters) Snapshot() PoolSnapshot {
	n := func(t trace.Type) uint64 { return p.events[t].Load() }
	return PoolSnapshot{
		Sessions:           n(trace.EvPoolSession),
		ReuseHits:          n(trace.EvPoolAcquireHit),
		Extractions:        n(trace.EvPoolExtract),
		StoreLoads:         n(trace.EvPoolStoreLoad),
		StoreErrors:        n(trace.EvPoolStoreError),
		DedupedExtractions: n(trace.EvPoolDedup),
		ConventionalRuns:   n(trace.EvPoolConventional),
		DegradedSessions:   n(trace.EvPoolDegraded),

		ShardLockAcquires:  p.shardLocks.Load(),
		QuarantinedRecords: n(trace.EvPoolQuarantine),
	}
}
