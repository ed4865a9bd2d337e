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
	// local store: cold keys try a remote fetch first, extraction is
	// coordinated fleet-wide through claims, and extracted records are
	// published for other nodes. Strictly best-effort — a dead, slow,
	// partitioned, or corrupt-serving server never fails a session, it
	// only pushes the session down the tier ladder (remote → store →
	// extract → conventional), visibly in Stats() and the trace.
	Remote *RemoteTier
	// Shards is the number of record-cache shards (default 16). More
	// shards reduce lock contention between sessions of distinct keys.
	Shards int
	// WaitForRecord makes sessions that find an extraction in flight for
	// their key block until it settles and then reuse its record. The
	// default (false) runs such sessions conventionally instead: lower
	// latency, no reuse benefit for that session. Either way extraction
	// happens exactly once per cold key.
	WaitForRecord bool
	// SnapshotWarmStart makes each extraction owner also capture a heap
	// snapshot of its finished Initial run (best-effort — unrepresentable
	// state just skips the capture), so later sessions of the same
	// workload that opt in (SessionRequest.WarmStart) can be served by
	// restoring the snapshot instead of re-executing the scripts. A
	// restored session clones the warm engine state in microseconds and
	// produces no print output (nothing executes); it is only served when
	// the request's scripts are byte-identical to the ones the snapshot
	// was captured from.
	SnapshotWarmStart bool
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
// other sessions of the same workload, the scripts to execute, and the
// per-session knobs.
type SessionRequest struct {
	// Key identifies the workload's record in the shared cache (and the
	// backing store). Sessions with equal keys share one decoded record.
	Key string
	// Scripts is the workload, executed in order on one engine.
	Scripts []SessionScript
	// Stdout receives print output; nil collects it into Result.Output.
	Stdout io.Writer
	// WarmStart asks for snapshot-restore serving when the pool holds a
	// snapshot for this key and the scripts match what it was captured
	// from (see PoolOptions.SnapshotWarmStart). When no snapshot fits,
	// the session runs normally; the flag never changes correctness, only
	// whether initialization is cloned or re-executed.
	WarmStart bool
	// AddressSeed and RandSeed are forwarded to the engine (see Options).
	AddressSeed uint64
	RandSeed    uint64
}

// SessionMode reports how a session was served.
type SessionMode int

const (
	// SessionReuse means the session ran with a record from the shared
	// cache (or one it waited for).
	SessionReuse SessionMode = iota
	// SessionInitial means the session found its key cold, performed the
	// Initial run, and published the extracted record for everyone else.
	SessionInitial
	// SessionConventional means the session ran record-free: extraction
	// was already in flight elsewhere (and WaitForRecord was off, or the
	// awaited extraction failed).
	SessionConventional
	// SessionSnapshot means the session was served by restoring a captured
	// heap snapshot of a finished Initial run instead of executing its
	// scripts (see PoolOptions.SnapshotWarmStart). Nothing executed, so
	// the session has no print output.
	SessionSnapshot
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
	case SessionSnapshot:
		return "snapshot"
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

// recordEntry is one key's slot in the shared record cache. ready is
// closed when the entry settles; rec is written exactly once, before the
// close, and is immutable afterwards (the channel close publishes it).
type recordEntry struct {
	ready chan struct{}
	rec   *Record
}

// settled reports whether the entry's extraction has finished.
func (ent *recordEntry) settled() bool {
	select {
	case <-ent.ready:
		return true
	default:
		return false
	}
}

// recordShard is one lock domain of the shared record cache. Lookups are
// lock-free: readers load the published map snapshot through an atomic
// pointer and never touch the mutex. Writers (entry installation on a cold
// key, abandonment after a failed extraction) serialize on the mutex,
// build a fresh map copy, and publish it with a release store — the
// copy-on-write protocol, so a warm-cache session never contends with
// anyone. The atomic.Pointer Load carries acquire semantics, so a reader
// that observes the new map also observes every entry it references fully
// constructed; per-entry publication (rec then close(ready)) is ordered by
// the channel close as before.
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
// performs the Initial run and publishes the record; concurrent sessions
// for the same key either wait for it (WaitForRecord) or proceed
// conventionally — extraction is never duplicated. Published records are
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
	wait           bool
	snapWarm       bool
	includeGlobals bool
	maxSteps       uint64
	traceCap       int
	sessionSeq     atomic.Uint64
	shards         []recordShard
	snapshots      sync.Map // key → *poolSnapshot, written once per key
	stats          profiler.PoolCounters
}

// poolSnapshot is a captured warm-start artifact: the heap snapshot of one
// finished Initial run plus the exact scripts it was captured from, so a
// restore is only ever applied to the workload it belongs to.
type poolSnapshot struct {
	snap    *Snapshot
	scripts []SessionScript
	sources map[string]string
}

// fits reports whether a request's scripts are byte-identical to the ones
// the snapshot was captured from.
func (ps *poolSnapshot) fits(scripts []SessionScript) bool {
	if len(scripts) != len(ps.scripts) {
		return false
	}
	for i, s := range scripts {
		if s.Name != ps.scripts[i].Name || s.Src != ps.scripts[i].Src {
			return false
		}
	}
	return true
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
		wait:           opts.WaitForRecord,
		snapWarm:       opts.SnapshotWarmStart,
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
			if ent.settled() && ent.rec != nil {
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

// poolEvents records what happened to one session on its way through the
// pool, so the matching trace events can be emitted after the session
// settles (see SessionResult.Trace). Counts mirror the PoolCounters the
// trace reconciles against.
type poolEvents struct {
	hit          bool // shared-cache record served (stats.ReuseHit)
	own          bool // cold key, this session owned the extraction
	dedup        bool // extraction already in flight (stats.Deduped)
	waited       bool // blocked for the in-flight record (stats.Waited)
	conventional bool // ran record-free (stats.Conventional)
	storeLoad    bool // record decoded from the backing store
	storeErrs    int  // failed best-effort store operations
	extract      bool // Initial-run record extraction
	publish      string

	quarantine     bool // store load quarantined a corrupt record
	remoteHit      bool // record served by the remote service
	remoteMiss     bool // remote service had no record for the key
	remoteErrs     int  // failed remote-tier operations
	remotePublish  bool // extracted record published to the service
	remoteWait     bool // waited on a peer node's extraction
	remoteDegraded bool // fell off the remote tier (at most once)
	abandon        bool // owned entry settled without a record

	snapshotCapture bool // Initial run's heap snapshot captured for warm starts
	snapshotRestore bool // session served by snapshot restore, not execution
	snapshotErrs    int  // failed best-effort snapshot operations
}

// acquire resolves a key against the shared cache. It returns the shared
// record when one is published (rec != nil), or the entry this caller now
// owns and must settle (owned != nil), or (nil, nil) when the session
// should run conventionally: extraction is in flight elsewhere and the
// pool does not wait, or the awaited extraction failed. ev is updated with
// the acquisition outcome for the session's trace.
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
	ent, installed := sh.install(key, &recordEntry{ready: make(chan struct{})})
	if installed {
		ev.own = true
		return nil, ent
	}
	// A competing writer installed the entry between our snapshot read and
	// the lock; treat it exactly like a fast-path find.
	return p.resolve(ent, ev), nil
}

// resolve classifies an existing cache entry for a session: a published
// record (reuse), a retired failed extraction (conventional, don't pile
// onto the retry), or an extraction in flight (wait for it, or go
// conventional when the pool doesn't wait or the awaited extraction
// failed). Returns the record to reuse, or nil for a conventional run.
func (p *SessionPool) resolve(ent *recordEntry, ev *poolEvents) *Record {
	if !ent.settled() {
		p.stats.Deduped()
		ev.dedup = true
		if p.wait {
			p.stats.Waited()
			ev.waited = true
			<-ent.ready
		}
	}
	if ent.settled() && ent.rec != nil {
		p.stats.ReuseHit()
		ev.hit = true
		return ent.rec
	}
	p.stats.Conventional()
	ev.conventional = true
	return nil
}

// publish settles an owned entry with a record; the channel close is the
// publication barrier for waiters.
func (p *SessionPool) publish(ent *recordEntry, rec *Record) {
	ent.rec = rec
	close(ent.ready)
}

// abandon settles an owned entry without a record and removes it from the
// cache so a future session can retry the extraction. Current waiters
// proceed conventionally.
func (p *SessionPool) abandon(key string, ent *recordEntry) {
	p.shard(key).remove(key, ent)
	close(ent.ready)
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
	p.stats.Session()
	var tr *trace.Buffer
	if p.traceCap != 0 {
		tr = trace.NewBuffer(p.traceCap).Tag(p.sessionSeq.Add(1), p.shardIndex(req.Key))
	}

	var ev poolEvents
	rec, owned := p.acquire(req.Key, &ev)
	if rec != nil {
		if res, ok := p.serveSnapshot(req, &ev, tr); ok {
			p.settleTrace(tr, res, req.Key, &ev)
			return res, nil
		}
		res, _, err := p.runSession(req, rec, SessionReuse, tr)
		p.settleTrace(tr, res, req.Key, &ev)
		return res, err
	}
	if owned == nil {
		res, _, err := p.runSession(req, nil, SessionConventional, tr)
		p.settleTrace(tr, res, req.Key, &ev)
		return res, err
	}

	// Cold key, this session owns the in-process extraction slot. The tier
	// ladder runs remote service → backing store → extraction, every rung
	// best-effort: a failed tier pushes the session down, never out.
	if p.remote != nil {
		if rec := p.remoteAcquire(req.Key, &ev); rec != nil {
			p.publish(owned, rec)
			ev.publish = "remote"
			// Warm the local tier so the next process on this host skips
			// the network.
			p.storeSave(req.Key, rec, &ev)
			res, _, rerr := p.runSession(req, rec, SessionReuse, tr)
			p.settleTrace(tr, res, req.Key, &ev)
			return res, rerr
		}
	}

	// A backing-store load beats re-extracting: the record was produced by
	// a previous process on this host.
	if p.store != nil {
		stored, quarantined, err := p.store.LoadStatus(req.Key)
		if quarantined {
			p.stats.Quarantined()
			ev.quarantine = true
		}
		if err != nil {
			p.stats.StoreError()
			ev.storeErrs++
		} else if stored != nil {
			p.stats.StoreLoad()
			ev.storeLoad = true
			p.publish(owned, stored)
			ev.publish = "store"
			// The fleet cache missed but this host has the record: warm the
			// remote tier for every other node.
			if p.remote != nil && ev.remoteMiss {
				p.remotePublish(req.Key, stored, &ev)
			}
			res, _, rerr := p.runSession(req, stored, SessionReuse, tr)
			p.settleTrace(tr, res, req.Key, &ev)
			return res, rerr
		}
	}

	// Cluster-level single-flight: before extracting, claim the key
	// fleet-wide. Losing the claim means another node is extracting right
	// now — wait for its publication (bounded) or run conventionally, the
	// same discipline the in-process cache applies, lifted to the cluster.
	claimed := false
	if p.remote != nil && p.remote.available() {
		granted, ok := p.remote.claim(req.Key)
		switch {
		case !ok:
			// Coordination is down; extract locally, the worst case being a
			// duplicated extraction somewhere else in the fleet.
			p.stats.RemoteError()
			ev.remoteErrs++
			p.remoteDegrade(&ev)
		case !granted:
			if p.wait {
				p.stats.RemoteWait()
				ev.remoteWait = true
				rec, outcome := p.remote.awaitPublication(req.Key)
				if rec != nil {
					p.stats.RemoteHit()
					ev.remoteHit = true
					p.publish(owned, rec)
					ev.publish = "remote"
					p.storeSave(req.Key, rec, &ev)
					res, _, rerr := p.runSession(req, rec, SessionReuse, tr)
					p.settleTrace(tr, res, req.Key, &ev)
					return res, rerr
				}
				if outcome == remoteError {
					p.stats.RemoteError()
					ev.remoteErrs++
				}
				p.remoteDegrade(&ev)
			}
			// Don't pile onto the peer's extraction: run conventionally and
			// leave the key retryable in-process.
			p.abandon(req.Key, owned)
			ev.abandon = true
			p.stats.Conventional()
			ev.conventional = true
			res, _, rerr := p.runSession(req, nil, SessionConventional, tr)
			p.settleTrace(tr, res, req.Key, &ev)
			return res, rerr
		default:
			claimed = true
		}
	}

	// Initial run: conventional execution that builds the IC state the
	// extraction reads. A failure abandons the entry so the key stays
	// retryable; waiters fall back to conventional runs.
	res, eng, err := p.runSession(req, nil, SessionInitial, tr)
	if err != nil {
		p.abandon(req.Key, owned)
		if claimed {
			p.remote.release(req.Key)
		}
		tr.Emit(trace.EvPoolAbandon, source.Site{}, req.Key, 0)
		return nil, err
	}
	record := eng.ExtractRecord(req.Key)
	p.stats.Extraction()
	ev.extract = true
	p.publish(owned, record)
	ev.publish = "extract"
	p.captureSnapshot(req, eng, &ev)
	p.storeSave(req.Key, record, &ev)
	if p.remote != nil {
		if !p.remotePublish(req.Key, record, &ev) && claimed {
			// The lease cannot be settled by publication; free it so the
			// fleet's key does not stay locked until TTL expiry.
			p.remote.release(req.Key)
		}
	}
	p.settleTrace(tr, res, req.Key, &ev)
	return res, nil
}

// remoteAcquire resolves a cold key against the remote tier, counting the
// outcome. Only a decoded record comes back; every failure mode returns
// nil and pushes the session down the ladder.
func (p *SessionPool) remoteAcquire(key string, ev *poolEvents) *Record {
	rec, outcome := p.remote.fetch(key)
	switch outcome {
	case remoteHit:
		p.stats.RemoteHit()
		ev.remoteHit = true
		return rec
	case remoteMiss:
		p.stats.RemoteMiss()
		ev.remoteMiss = true
		return nil
	default:
		p.stats.RemoteError()
		ev.remoteErrs++
		p.remoteDegrade(ev)
		return nil
	}
}

// remotePublish uploads a record to the service best-effort, counting the
// outcome; a failure marks the session remote-degraded.
func (p *SessionPool) remotePublish(key string, rec *Record, ev *poolEvents) bool {
	if !p.remote.available() {
		p.stats.RemoteError()
		ev.remoteErrs++
		p.remoteDegrade(ev)
		return false
	}
	if p.remote.publishRecord(key, rec) {
		p.stats.RemotePublish()
		ev.remotePublish = true
		return true
	}
	p.stats.RemoteError()
	ev.remoteErrs++
	p.remoteDegrade(ev)
	return false
}

// remoteDegrade marks the session as having fallen off the remote tier,
// at most once per session.
func (p *SessionPool) remoteDegrade(ev *poolEvents) {
	if !ev.remoteDegraded {
		p.stats.RemoteDegraded()
		ev.remoteDegraded = true
	}
}

// serveSnapshot tries to serve a warm-cache session by restoring the
// key's captured heap snapshot instead of executing its scripts. It only
// applies when both sides opted in, a snapshot exists, and the request's
// scripts are byte-identical to what the snapshot was captured from; any
// mismatch or restore failure falls back to the normal reuse run, so the
// flag can never change a session's correctness.
func (p *SessionPool) serveSnapshot(req SessionRequest, ev *poolEvents, tr *trace.Buffer) (*SessionResult, bool) {
	if !p.snapWarm || !req.WarmStart {
		return nil, false
	}
	v, ok := p.snapshots.Load(req.Key)
	if !ok {
		return nil, false
	}
	ps := v.(*poolSnapshot)
	if !ps.fits(req.Scripts) {
		return nil, false
	}
	eng := NewEngine(Options{
		Cache:       p.cache,
		Stdout:      req.Stdout,
		AddressSeed: req.AddressSeed,
		RandSeed:    req.RandSeed,
		MaxSteps:    p.maxSteps,
		Trace:       tr,
	})
	if err := eng.RestoreSnapshot(ps.snap, ps.sources); err != nil {
		p.stats.SnapshotError()
		ev.snapshotErrs++
		return nil, false
	}
	p.stats.SnapshotRestore()
	ev.snapshotRestore = true
	return &SessionResult{Mode: SessionSnapshot, Stats: eng.Stats(), Output: eng.Output()}, true
}

// captureSnapshot records the warm engine state of a finished Initial run
// for snapshot warm starts, best-effort: workloads with unrepresentable
// state (e.g. bound functions) simply skip the capture and are always
// served by execution.
func (p *SessionPool) captureSnapshot(req SessionRequest, eng *Engine, ev *poolEvents) {
	if !p.snapWarm {
		return
	}
	snap, err := eng.CaptureSnapshot(req.Key)
	if err != nil {
		p.stats.SnapshotError()
		ev.snapshotErrs++
		return
	}
	scripts := append([]SessionScript(nil), req.Scripts...)
	sources := make(map[string]string, len(scripts))
	for _, s := range scripts {
		sources[s.Name] = s.Src
	}
	p.snapshots.Store(req.Key, &poolSnapshot{snap: snap, scripts: scripts, sources: sources})
	p.stats.SnapshotCapture()
	ev.snapshotCapture = true
}

// storeSave persists a record to the backing store best-effort.
func (p *SessionPool) storeSave(key string, rec *Record, ev *poolEvents) {
	if p.store == nil {
		return
	}
	if serr := p.store.Save(key, rec); serr != nil {
		p.stats.StoreError()
		ev.storeErrs++
	}
}

// settleTrace emits a session's pool lifecycle events and hands its buffer
// to the result. It runs after the session's engine work is done: an
// engine degradation resets the buffer mid-run, so emitting any earlier
// could lose the events.
func (p *SessionPool) settleTrace(tr *trace.Buffer, res *SessionResult, key string, ev *poolEvents) {
	if tr == nil || res == nil {
		return
	}
	none := source.Site{}
	tr.Emit(trace.EvPoolSession, none, key, 0)
	if ev.hit {
		tr.Emit(trace.EvPoolAcquireHit, none, key, 0)
	}
	if ev.own {
		tr.Emit(trace.EvPoolAcquireOwn, none, key, 0)
	}
	if ev.dedup {
		tr.Emit(trace.EvPoolDedup, none, key, 0)
	}
	if ev.waited {
		tr.Emit(trace.EvPoolWait, none, key, 0)
	}
	if ev.conventional {
		tr.Emit(trace.EvPoolConventional, none, key, 0)
	}
	if ev.storeLoad {
		tr.Emit(trace.EvPoolStoreLoad, none, key, 0)
	}
	for i := 0; i < ev.storeErrs; i++ {
		tr.Emit(trace.EvPoolStoreError, none, key, 0)
	}
	if ev.extract {
		tr.Emit(trace.EvPoolExtract, none, key, 0)
	}
	if ev.publish != "" {
		tr.Emit(trace.EvPoolPublish, none, ev.publish, 0)
	}
	if ev.abandon {
		tr.Emit(trace.EvPoolAbandon, none, key, 0)
	}
	if ev.quarantine {
		tr.Emit(trace.EvPoolQuarantine, none, key, 0)
	}
	if ev.remoteHit {
		tr.Emit(trace.EvPoolRemoteHit, none, key, 0)
	}
	if ev.remoteMiss {
		tr.Emit(trace.EvPoolRemoteMiss, none, key, 0)
	}
	for i := 0; i < ev.remoteErrs; i++ {
		tr.Emit(trace.EvPoolRemoteError, none, key, 0)
	}
	if ev.remotePublish {
		tr.Emit(trace.EvPoolRemotePublish, none, key, 0)
	}
	if ev.remoteWait {
		tr.Emit(trace.EvPoolRemoteWait, none, key, 0)
	}
	if ev.remoteDegraded {
		tr.Emit(trace.EvPoolRemoteDegraded, none, key, 0)
	}
	if ev.snapshotCapture {
		tr.Emit(trace.EvPoolSnapshotCapture, none, key, 0)
	}
	if ev.snapshotRestore {
		tr.Emit(trace.EvPoolSnapshotRestore, none, key, 0)
	}
	for i := 0; i < ev.snapshotErrs; i++ {
		tr.Emit(trace.EvPoolSnapshotError, none, key, 0)
	}
	if res.Degraded {
		tr.Emit(trace.EvPoolDegraded, none, key, 0)
	}
	res.Trace = tr
}

// runSession executes one session on a fresh engine. rec, when non-nil,
// is the shared decoded record — handed to the engine by reference; the
// engine's Reuser keeps all mutable reuse state per-session.
func (p *SessionPool) runSession(req SessionRequest, rec *Record, mode SessionMode, tr *trace.Buffer) (*SessionResult, *Engine, error) {
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
		p.stats.Degraded()
	}
	return &SessionResult{
		Mode:     mode,
		Stats:    eng.Stats(),
		Output:   eng.Output(),
		Degraded: degraded,
	}, eng, nil
}
