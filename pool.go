package ricjs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"ricjs/internal/clockring"
	"ricjs/internal/profiler"
	"ricjs/internal/source"
	"ricjs/internal/trace"
)

// PoolStats is the aggregate statistics snapshot of a SessionPool:
// sessions served, shared-cache hits, extractions and their single-flight
// dedup, store traffic, and degradations.
type PoolStats = profiler.PoolSnapshot

// PoolOptions configures a SessionPool.
type PoolOptions struct {
	// Cache supplies compiled bytecode to every session; nil creates a
	// pool-private cache. The code cache is already concurrency-safe and
	// is shared as-is.
	Cache *CodeCache
	// Store optionally backs the in-memory record cache with persistence:
	// cold keys try a store load before extracting, and freshly extracted
	// records are saved back. Both are best-effort: store I/O failure
	// never fails a session, it only pushes the session down the ladder
	// (store → extract → conventional) and shows up in Stats().StoreErrors.
	Store *RecordStore
	// IncludeGlobals extends extraction to global-object state (paper §6).
	IncludeGlobals bool
	// MaxSteps bounds every session's scripts (0 = unlimited).
	MaxSteps uint64
	// TraceCapacity, when nonzero, gives every session a private trace
	// buffer (negative values pick the default ring capacity), tagged with
	// a pool-unique session ID and returned in SessionResult.Trace. Zero
	// disables tracing.
	TraceCapacity int
}

// SessionScript is one script of a session's workload.
type SessionScript struct {
	Name string
	Src  string
}

// SessionRequest describes one session: the record key it shares with
// other sessions of the same workload, the scripts to execute, the output
// sink and the engine seeds.
type SessionRequest struct {
	// Key identifies the workload's record in the shared cache (and the
	// backing store). Sessions with equal keys share one decoded record.
	Key string
	// Scripts is the workload, executed in order on one engine.
	Scripts []SessionScript
	// Stdout receives print output; nil collects it into Result.Output.
	Stdout io.Writer
	// AddressSeed and RandSeed are forwarded to the engine (see Options).
	AddressSeed uint64
	RandSeed    uint64
}

// SessionMode reports how a session was served.
type SessionMode int

const (
	// SessionReuse means the session ran with a record from the shared
	// cache or its backing store.
	SessionReuse SessionMode = iota
	// SessionInitial means the session found its key cold, performed the
	// Initial run, and published the extracted record for everyone else.
	SessionInitial
	// SessionConventional means the session ran record-free: its key's
	// extraction was in flight in this process.
	SessionConventional
)

// String returns the mode name.
func (m SessionMode) String() string {
	switch m {
	case SessionReuse:
		return "reuse"
	case SessionInitial:
		return "initial"
	case SessionConventional:
		return "conventional"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// SessionResult is the outcome of one served session.
type SessionResult struct {
	// Mode is how the session ran.
	Mode SessionMode
	// Stats is the session engine's statistics snapshot.
	Stats Stats
	// Output is the collected print output when no Stdout was configured.
	Output string
	// Degraded reports that the engine abandoned reuse mid-session and
	// completed conventionally.
	Degraded bool
	// Trace is the session's trace buffer when the pool was created with
	// TraceCapacity set (nil otherwise). Pool lifecycle events are emitted
	// into it after the session settles, so a mid-run degradation — which
	// resets the buffer alongside the engine's fresh profiler — cannot wipe
	// them. Sessions that return an error drop their buffer.
	Trace *trace.Buffer
}

// recordEntry is one key's slot in the shared record cache. rec is nil
// while the key's extraction is in flight; the owner stores it exactly
// once, and the record is immutable afterwards. A published entry sits on
// the pool's CLOCK ring until it is evicted; an in-flight one never does.
type recordEntry struct {
	rec atomic.Pointer[Record]
	ref clockring.Ref
	key string
}

// SessionPool serves many independent engine sessions concurrently
// against one shared in-memory record cache layered over an optional
// RecordStore. This is the serving shape the paper motivates in
// §9: one library's ICRecord, decoded once, serves every application
// (session) that loads the library.
//
// Extraction is single-flight: the first session to run a cold key
// performs the Initial run and publishes the record; sessions for the
// same key that arrive while it is in flight run conventionally, so
// extraction is never duplicated in a process and no session blocks on
// another. Published records are immutable and shared by reference; all
// per-session reuse state (hidden class validation, preload progress)
// lives in each engine's private Reuser, so N sessions can safely share
// one decoded *Record.
//
// The record cache is bounded in bytes, like the code cache: a published
// record is charged what it keeps alive (Record.ResidentBytes), and
// publishing evicts records no session has used since the ring's hand
// last passed them until the new one fits. An evicted key is cold again:
// its next session loads the record from the store, or extracts it when
// there is none. A hit only sets the entry's reference bit, so the warm
// read path takes no lock.
//
// A SessionPool is safe for concurrent use; call Serve from as many
// goroutines as desired.
type SessionPool struct {
	cache          *CodeCache
	store          *RecordStore
	includeGlobals bool
	maxSteps       uint64
	traceCap       int
	sessionSeq     atomic.Uint64
	// records maps each key to its *recordEntry. It is written once per
	// key (and again after the key's eviction) and read by every later
	// session, the case sync.Map is built for: a warm lookup takes no
	// lock.
	records sync.Map
	// ring orders the published entries for eviction; ringMu serializes
	// admissions.
	ringMu sync.Mutex
	ring   clockring.Ring[*recordEntry]
	stats  profiler.PoolCounters
}

// NewSessionPool creates a pool.
func NewSessionPool(opts PoolOptions) *SessionPool {
	cache := opts.Cache
	if cache == nil {
		cache = NewCodeCache()
	}
	p := &SessionPool{
		cache:          cache,
		store:          opts.Store,
		includeGlobals: opts.IncludeGlobals,
		maxSteps:       opts.MaxSteps,
		traceCap:       opts.TraceCapacity,
	}
	p.ring.Budget = residentBudget
	return p
}

// Stats snapshots the pool's aggregate statistics.
func (p *SessionPool) Stats() PoolStats { return p.stats.Snapshot() }

// CachedRecords returns the number of keys with a published record in the
// shared cache.
func (p *SessionPool) CachedRecords() int {
	n := 0
	p.records.Range(func(_, v any) bool {
		if v.(*recordEntry).rec.Load() != nil {
			n++
		}
		return true
	})
	return n
}

// maxPoolEvents bounds the outcomes one session can queue. The longest
// path through Serve queues 6: Session and AcquireOwn; a Quarantine or a
// StoreError from the store load (LoadStatus reports at most one);
// Extract and Publish; and a StoreError from the save. An Initial run has
// no record, so it cannot also degrade. The evictions a publish causes
// are not bounded and are kept apart (poolEvents.evicted).
const maxPoolEvents = 6

// poolEvents is what happened to one session on its way through the pool.
// note is the only way the pool records an outcome: it bumps the pool
// counter for the event type and queues the event, which settleTrace
// emits after the session settles (see SessionResult.Trace). It is a
// fixed-size value on the serving goroutine's stack.
type poolEvents struct {
	stats   *profiler.PoolCounters
	n       int
	queue   [maxPoolEvents]trace.Type
	publish string   // record source carried by the EvPoolPublish event
	evicted []string // keys this session's publish evicted, in order
}

// note records one outcome of the session.
func (ev *poolEvents) note(t trace.Type) {
	ev.stats.Note(t)
	ev.queue[ev.n] = t
	ev.n++
}

// evict records that the session's publish evicted key's record.
func (ev *poolEvents) evict(key string) {
	ev.stats.Note(trace.EvPoolEvict)
	ev.evicted = append(ev.evicted, key)
}

// settleTrace emits a session's queued pool events, then one EvPoolEvict
// per evicted key, and hands its buffer to the result. It runs after the
// session's engine work is done: an engine degradation resets the buffer
// mid-run, so emitting any earlier could lose the events.
func (ev *poolEvents) settleTrace(tr *trace.Buffer, res *SessionResult, key string) {
	if tr == nil || res == nil {
		return
	}
	for _, t := range ev.queue[:ev.n] {
		name := key
		if t == trace.EvPoolPublish {
			name = ev.publish
		}
		tr.Emit(t, source.Site{}, name, 0)
	}
	for _, k := range ev.evicted {
		tr.Emit(trace.EvPoolEvict, source.Site{}, k, 0)
	}
	res.Trace = tr
}

// acquire resolves a key against the shared cache. It returns the shared
// record when one is published (rec != nil), or the entry this caller now
// owns and must settle (owned != nil), or (nil, nil) when the session
// should run conventionally because the key's extraction is in flight.
func (p *SessionPool) acquire(key string, ev *poolEvents) (rec *Record, owned *recordEntry) {
	if ent, ok := p.records.Load(key); ok {
		// Warm-cache fast path: sync.Map serves a key it has already
		// promoted to its read-only map without a lock.
		return p.resolve(ent.(*recordEntry), ev), nil
	}
	// Cold key: fall to the write path. Entering it is counted so an
	// all-hot run can prove the read path stayed lock-free.
	p.stats.ShardLock()
	ent, loaded := p.records.LoadOrStore(key, &recordEntry{key: key})
	if !loaded {
		ev.note(trace.EvPoolAcquireOwn)
		return nil, ent.(*recordEntry)
	}
	// A competing session stored the entry between our Load and
	// LoadOrStore; treat it exactly like a fast-path find.
	return p.resolve(ent.(*recordEntry), ev), nil
}

// resolve classifies an existing cache entry for a session: a published
// record is reused; an entry without one is an extraction in flight (or
// one just abandoned), which the session does not pile onto. Returns the
// record to reuse, or nil for a conventional run.
func (p *SessionPool) resolve(ent *recordEntry, ev *poolEvents) *Record {
	if rec := ent.rec.Load(); rec != nil {
		ent.ref.Touch()
		ev.note(trace.EvPoolAcquireHit)
		return rec
	}
	ev.note(trace.EvPoolDedup)
	return nil
}

// publish settles an owned entry with a record that came from the named
// source ("store" or "extract"). The entry is not yet on the ring, so
// nothing can evict it before admit.
func (p *SessionPool) publish(ent *recordEntry, rec *Record, from string, ev *poolEvents) {
	ent.rec.Store(rec)
	ev.publish = from
	ev.note(trace.EvPoolPublish)
}

// admit puts a published entry on the ring. Records evicted to make room
// leave the cache; a record larger than the whole budget serves its own
// session and leaves at once, and counts as an eviction too.
func (p *SessionPool) admit(ent *recordEntry, ev *poolEvents) {
	p.ringMu.Lock()
	defer p.ringMu.Unlock()
	if !p.ring.Admit(ent, &ent.ref, ent.rec.Load().r.ResidentBytes(), func(victim *recordEntry) {
		p.records.CompareAndDelete(victim.key, victim)
		ev.evict(victim.key)
	}) {
		p.records.CompareAndDelete(ent.key, ent)
		ev.evict(ent.key)
	}
}

// abandon removes an owned entry that will get no record from the cache,
// so a future session can retry the extraction.
func (p *SessionPool) abandon(key string, ent *recordEntry, ev *poolEvents) {
	p.records.CompareAndDelete(key, ent)
	ev.note(trace.EvPoolAbandon)
}

// Serve runs one session to completion and returns its result. Safe to
// call concurrently; see SessionPool for the single-flight discipline.
func (p *SessionPool) Serve(req SessionRequest) (*SessionResult, error) {
	if req.Key == "" {
		return nil, fmt.Errorf("ricjs: pool session needs a record key")
	}
	if len(req.Scripts) == 0 {
		return nil, fmt.Errorf("ricjs: pool session %q has no scripts", req.Key)
	}
	var tr *trace.Buffer
	if p.traceCap != 0 {
		tr = trace.NewBuffer(p.traceCap).Tag(p.sessionSeq.Add(1))
	}

	ev := poolEvents{stats: &p.stats}
	ev.note(trace.EvPoolSession)
	rec, owned := p.acquire(req.Key, &ev)
	if owned == nil {
		mode := SessionReuse
		if rec == nil {
			mode = SessionConventional
		}
		return p.finish(req, rec, mode, tr, &ev)
	}

	// Cold key, this session owns the in-process extraction slot. The
	// ladder runs backing store → extraction, every rung best-effort: a
	// failed rung pushes the session down, never out. A store load beats
	// re-extracting: the record was produced by a previous process on this
	// host.
	if p.store != nil {
		stored, quarantined, err := p.store.LoadStatus(req.Key)
		if quarantined {
			ev.note(trace.EvPoolQuarantine)
		}
		if err != nil {
			ev.note(trace.EvPoolStoreError)
		} else if stored != nil {
			ev.note(trace.EvPoolStoreLoad)
			p.publish(owned, stored, "store", &ev)
			p.admit(owned, &ev)
			return p.finish(req, stored, SessionReuse, tr, &ev)
		}
	}

	// Initial run: conventional execution that builds the IC state the
	// extraction reads. A failure abandons the entry so the key stays
	// retryable.
	res, eng, err := p.runSession(req, nil, SessionInitial, tr, &ev)
	if err != nil {
		p.abandon(req.Key, owned, &ev)
		return nil, err
	}
	record := eng.ExtractRecord(req.Key)
	ev.note(trace.EvPoolExtract)
	p.publish(owned, record, "extract", &ev)
	if p.store != nil && p.store.Save(req.Key, record) != nil {
		ev.note(trace.EvPoolStoreError)
	}
	// Admitted only once saved: a record evicted before it reached the
	// store would send its key's next session to extract it again.
	p.admit(owned, &ev)
	ev.settleTrace(tr, res, req.Key)
	return res, nil
}

// finish runs a session that owns no extraction and settles its trace.
func (p *SessionPool) finish(req SessionRequest, rec *Record, mode SessionMode, tr *trace.Buffer, ev *poolEvents) (*SessionResult, error) {
	res, _, err := p.runSession(req, rec, mode, tr, ev)
	ev.settleTrace(tr, res, req.Key)
	return res, err
}

// runSession executes one session on a fresh engine. rec, when non-nil,
// is the shared decoded record — handed to the engine by reference; the
// engine's Reuser keeps all mutable reuse state per-session.
func (p *SessionPool) runSession(req SessionRequest, rec *Record, mode SessionMode, tr *trace.Buffer, ev *poolEvents) (*SessionResult, *Engine, error) {
	if mode == SessionConventional {
		ev.note(trace.EvPoolConventional)
	}
	eng := NewEngine(Options{
		Cache:          p.cache,
		Record:         rec,
		IncludeGlobals: p.includeGlobals,
		Stdout:         req.Stdout,
		AddressSeed:    req.AddressSeed,
		RandSeed:       req.RandSeed,
		MaxSteps:       p.maxSteps,
		Trace:          tr,
	})
	for _, s := range req.Scripts {
		if err := eng.Run(s.Name, s.Src); err != nil {
			return nil, eng, err
		}
	}
	degraded, _ := eng.Degraded()
	if degraded {
		ev.note(trace.EvPoolDegraded)
	}
	return &SessionResult{
		Mode:     mode,
		Stats:    eng.Stats(),
		Output:   eng.Output(),
		Degraded: degraded,
	}, eng, nil
}
