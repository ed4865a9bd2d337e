package ricjs

import (
	"fmt"
	"hash/fnv"
	"io"
	"sync"
	"sync/atomic"

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
	// records are saved back (both best-effort — store I/O failure never
	// fails a session, it only shows up in Stats().StoreErrors).
	Store *RecordStore
	// Remote optionally layers the distributed record service above the
	// local store: cold keys try a remote fetch first, and extracted
	// records are published for other nodes. Nodes do not coordinate
	// extraction; nodes that race on a cold key each extract it once, as
	// the records are identical. Strictly best-effort — a dead, slow,
	// partitioned, or corrupt-serving server never fails a session, it
	// only pushes the session down the tier ladder (remote → store →
	// extract → conventional), visibly in Stats() and the trace.
	Remote *RemoteTier
	// Shards is the number of record-cache shards (default 16). More
	// shards reduce lock contention between sessions of distinct keys.
	Shards int
	// IncludeGlobals extends extraction to global-object state (paper §6).
	IncludeGlobals bool
	// MaxSteps bounds every session's scripts (0 = unlimited).
	MaxSteps uint64
	// TraceCapacity, when nonzero, gives every session a private trace
	// buffer (negative values pick the default ring capacity), tagged with
	// a pool-unique session ID and the record key's cache-shard index, and
	// returned in SessionResult.Trace. Zero disables tracing.
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
	// cache or one of its backing tiers.
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
// once, and the record is immutable afterwards.
type recordEntry struct {
	rec atomic.Pointer[Record]
}

// recordShard is one lock domain of the shared record cache. Lookups are
// lock-free: readers load the published map snapshot through an atomic
// pointer and never touch the mutex. Writers (entry installation on a cold
// key, abandonment after a failed extraction) serialize on the mutex,
// build a fresh map copy, and publish it with a release store — the
// copy-on-write protocol, so a warm-cache session never contends with
// anyone. The atomic.Pointer Load carries acquire semantics, so a reader
// that observes the new map also observes every entry it references fully
// constructed; per-entry publication is ordered by the entry's own atomic
// record pointer.
type recordShard struct {
	mu      sync.Mutex // writers only; the read path never takes it
	entries atomic.Pointer[map[string]*recordEntry]
}

// lookup resolves a key against the published snapshot without locking.
func (sh *recordShard) lookup(key string) (*recordEntry, bool) {
	ent, ok := (*sh.entries.Load())[key]
	return ent, ok
}

// install adds an entry for key under the shard mutex, unless a competing
// writer installed one first — then that entry is returned instead. The
// new map is published atomically; readers see either the old or the new
// snapshot, never a partial one.
func (sh *recordShard) install(key string, ent *recordEntry) (*recordEntry, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	old := *sh.entries.Load()
	if existing, ok := old[key]; ok {
		return existing, false
	}
	next := make(map[string]*recordEntry, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[key] = ent
	sh.entries.Store(&next)
	return ent, true
}

// remove deletes key's entry if it is still ent (abandonment), publishing
// a map without it so a future session can retry the extraction.
func (sh *recordShard) remove(key string, ent *recordEntry) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	old := *sh.entries.Load()
	if old[key] != ent {
		return
	}
	next := make(map[string]*recordEntry, len(old)-1)
	for k, v := range old {
		if k != key {
			next[k] = v
		}
	}
	sh.entries.Store(&next)
}

// SessionPool serves many independent engine sessions concurrently
// against one shared, sharded in-memory record cache layered over an
// optional RecordStore. This is the serving shape the paper motivates in
// §9: one library's ICRecord, decoded once, serves every application
// (session) that loads the library.
//
// Extraction is single-flight: the first session to run a cold key
// performs the Initial run and publishes the record; sessions for the
// same key that arrive while it is in flight run conventionally, so
// extraction is never duplicated in a process and no session blocks on
// another. The remote tier shares records across processes without
// coordinating extraction: nodes that race on a cold key each extract it
// once and publish identical bytes. Published records are
// immutable and shared by reference; all per-session reuse state (hidden
// class validation, preload progress) lives in each engine's private
// Reuser, so N sessions can safely share one decoded *Record.
//
// A SessionPool is safe for concurrent use; call Serve from as many
// goroutines as desired.
type SessionPool struct {
	cache          *CodeCache
	store          *RecordStore
	remote         *RemoteTier
	includeGlobals bool
	maxSteps       uint64
	traceCap       int
	sessionSeq     atomic.Uint64
	shards         []recordShard
	stats          profiler.PoolCounters
}

// NewSessionPool creates a pool.
func NewSessionPool(opts PoolOptions) *SessionPool {
	cache := opts.Cache
	if cache == nil {
		cache = NewCodeCache()
	}
	n := opts.Shards
	if n <= 0 {
		n = 16
	}
	p := &SessionPool{
		cache:          cache,
		store:          opts.Store,
		remote:         opts.Remote,
		includeGlobals: opts.IncludeGlobals,
		maxSteps:       opts.MaxSteps,
		traceCap:       opts.TraceCapacity,
		shards:         make([]recordShard, n),
	}
	for i := range p.shards {
		empty := make(map[string]*recordEntry)
		p.shards[i].entries.Store(&empty)
	}
	return p
}

// Stats snapshots the pool's aggregate statistics.
func (p *SessionPool) Stats() PoolStats { return p.stats.Snapshot() }

// CachedRecords returns the number of keys with a published record in the
// shared cache.
func (p *SessionPool) CachedRecords() int {
	n := 0
	for i := range p.shards {
		for _, ent := range *p.shards[i].entries.Load() {
			if ent.rec.Load() != nil {
				n++
			}
		}
	}
	return n
}

// shardIndex maps a key to its lock-domain index (also the trace shard tag).
func (p *SessionPool) shardIndex(key string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(key)) //nolint:errcheck
	return h.Sum32() % uint32(len(p.shards))
}

// shard maps a key to its lock domain.
func (p *SessionPool) shard(key string) *recordShard {
	return &p.shards[p.shardIndex(key)]
}

// maxPoolEvents bounds the outcomes one session can queue. The longest
// path through Serve — a failed remote fetch and store load before an
// extraction whose store save and remote publish fail too — queues 9
// (an Initial run has no record, so it cannot also degrade).
const maxPoolEvents = 16

// poolEvents is what happened to one session on its way through the pool.
// note is the only way the pool records an outcome: it bumps the pool
// counter for the event type and queues the event, which settleTrace
// emits after the session settles (see SessionResult.Trace). It is a
// fixed-size value on the serving goroutine's stack.
type poolEvents struct {
	stats   *profiler.PoolCounters
	n       int
	queue   [maxPoolEvents]trace.Type
	publish string // record source carried by the EvPoolPublish event
}

// note records one outcome of the session.
func (ev *poolEvents) note(t trace.Type) {
	ev.stats.Note(t)
	ev.queue[ev.n] = t
	ev.n++
}

// has reports whether the session already recorded an outcome of type t.
func (ev *poolEvents) has(t trace.Type) bool {
	for _, q := range ev.queue[:ev.n] {
		if q == t {
			return true
		}
	}
	return false
}

// remoteFailed records a failed remote-tier operation and marks the
// session as having fallen off the remote tier, at most once per session.
func (ev *poolEvents) remoteFailed() {
	ev.note(trace.EvPoolRemoteError)
	if !ev.has(trace.EvPoolRemoteDegraded) {
		ev.note(trace.EvPoolRemoteDegraded)
	}
}

// settleTrace emits a session's queued pool events and hands its buffer
// to the result. It runs after the session's engine work is done: an
// engine degradation resets the buffer mid-run, so emitting any earlier
// could lose the events.
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
	res.Trace = tr
}

// acquire resolves a key against the shared cache. It returns the shared
// record when one is published (rec != nil), or the entry this caller now
// owns and must settle (owned != nil), or (nil, nil) when the session
// should run conventionally because the key's extraction is in flight.
func (p *SessionPool) acquire(key string, ev *poolEvents) (rec *Record, owned *recordEntry) {
	sh := p.shard(key)
	if ent, ok := sh.lookup(key); ok {
		// Warm-cache fast path: resolved entirely against the published
		// snapshot, no shard mutex — sessions of hot keys never contend.
		return p.resolve(ent, ev), nil
	}
	// Cold key: fall to the write path. The mutex acquisition is counted
	// so an all-hot run can prove the read path stayed lock-free.
	p.stats.ShardLock()
	ent, installed := sh.install(key, &recordEntry{})
	if installed {
		ev.note(trace.EvPoolAcquireOwn)
		return nil, ent
	}
	// A competing writer installed the entry between our snapshot read and
	// the lock; treat it exactly like a fast-path find.
	return p.resolve(ent, ev), nil
}

// resolve classifies an existing cache entry for a session: a published
// record is reused; an entry without one is an extraction in flight (or
// one just abandoned), which the session does not pile onto. Returns the
// record to reuse, or nil for a conventional run.
func (p *SessionPool) resolve(ent *recordEntry, ev *poolEvents) *Record {
	if rec := ent.rec.Load(); rec != nil {
		ev.note(trace.EvPoolAcquireHit)
		return rec
	}
	ev.note(trace.EvPoolDedup)
	return nil
}

// publish settles an owned entry with a record that came from the named
// tier.
func (p *SessionPool) publish(ent *recordEntry, rec *Record, from string, ev *poolEvents) {
	ent.rec.Store(rec)
	ev.publish = from
	ev.note(trace.EvPoolPublish)
}

// abandon removes an owned entry that will get no record from the cache,
// so a future session can retry the extraction.
func (p *SessionPool) abandon(key string, ent *recordEntry, ev *poolEvents) {
	p.shard(key).remove(key, ent)
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
		tr = trace.NewBuffer(p.traceCap).Tag(p.sessionSeq.Add(1), p.shardIndex(req.Key))
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

	// Cold key, this session owns the in-process extraction slot. The tier
	// ladder runs remote service → backing store → extraction, every rung
	// best-effort: a failed tier pushes the session down, never out.
	if p.remote != nil {
		if rec := p.remoteAcquire(req.Key, &ev); rec != nil {
			p.publish(owned, rec, "remote", &ev)
			// Warm the local tier so the next process on this host skips
			// the network.
			p.storeSave(req.Key, rec, &ev)
			return p.finish(req, rec, SessionReuse, tr, &ev)
		}
	}

	// A backing-store load beats re-extracting: the record was produced by
	// a previous process on this host.
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
			// The fleet cache missed but this host has the record: warm the
			// remote tier for every other node.
			if p.remote != nil && ev.has(trace.EvPoolRemoteMiss) {
				p.remotePublish(req.Key, stored, &ev)
			}
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
	p.storeSave(req.Key, record, &ev)
	if p.remote != nil {
		p.remotePublish(req.Key, record, &ev)
	}
	ev.settleTrace(tr, res, req.Key)
	return res, nil
}

// remoteAcquire resolves a cold key against the remote tier, recording the
// outcome. Only a decoded record comes back; every failure mode returns
// nil and pushes the session down the ladder.
func (p *SessionPool) remoteAcquire(key string, ev *poolEvents) *Record {
	rec, outcome := p.remote.fetch(key)
	switch outcome {
	case remoteHit:
		ev.note(trace.EvPoolRemoteHit)
		return rec
	case remoteMiss:
		ev.note(trace.EvPoolRemoteMiss)
	default:
		ev.remoteFailed()
	}
	return nil
}

// remotePublish uploads a record to the service best-effort, recording
// the outcome; a failure marks the session remote-degraded.
func (p *SessionPool) remotePublish(key string, rec *Record, ev *poolEvents) {
	if p.remote.publishRecord(key, rec) {
		ev.note(trace.EvPoolRemotePublish)
		return
	}
	ev.remoteFailed()
}

// storeSave persists a record to the backing store best-effort.
func (p *SessionPool) storeSave(key string, rec *Record, ev *poolEvents) {
	if p.store == nil {
		return
	}
	if serr := p.store.Save(key, rec); serr != nil {
		ev.note(trace.EvPoolStoreError)
	}
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
