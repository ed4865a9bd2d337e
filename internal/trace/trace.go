// Package trace is the engine's structured IC-event tracing subsystem.
//
// The profiler (internal/profiler) reports end-of-run aggregates; this
// package records the individual events those aggregates are made of, so
// every paper claim — misses per hidden class (Table 1), averted misses in
// the Reuse run (Table 4), preload activity (§5.2.2) — is auditable per
// access site. A Buffer carries two views of the same event stream:
//
//   - a bounded ring of the most recent events, for the JSONL and Chrome
//     trace_event exporters (a flight recorder, may drop old events);
//   - a complete per-site Registry of counts by event type, which never
//     drops anything and is what golden-trace tests and the trace/profiler
//     reconciliation read.
//
// A Buffer is single-writer by construction: one buffer belongs to one
// engine session, mirroring the engine's single-threaded isolate model, so
// emission needs no locks or atomics. A SessionPool gives every session
// its own buffer, tagged with the session ID. A nil *Buffer is
// a valid disabled sink: Emit on nil returns immediately, and the VM
// additionally nil-checks before calling so that tracing compiled out of a
// run costs one predictable branch per event site (bounded at ≤2% of
// ricbench wall-clock; see BenchmarkTraceOverhead).
package trace

import (
	"sort"

	"ricjs/internal/source"
)

// Type identifies one kind of IC event. The set is closed and small on
// purpose: every profiler counter the trace must reconcile against maps to
// a distinct type, so roll-ups are pure counting.
type Type uint8

const (
	// EvICHit is a successful IC fast-path access (including megamorphic
	// generic-stub accesses, which the profiler also counts as hits). N is
	// the number of extra polymorphic entries examined.
	EvICHit Type = iota
	// EvICHitPreloaded is a hit served by a RIC-preloaded entry's first
	// use — exactly one IC miss averted (profiler MissesSaved).
	EvICHitPreloaded
	// EvICMissHandler is an IC miss at a site whose Initial-run handler
	// was context-dependent (Table 4 "Handler").
	EvICMissHandler
	// EvICMissGlobal is an IC miss on a global-object access (Table 4
	// "Global"; RIC is off for globals by default).
	EvICMissGlobal
	// EvICMissOther is every other IC miss: triggering sites, validation
	// failures, sites absent from the record (Table 4 "Other").
	EvICMissOther
	// EvMegamorphic is a feedback slot tipping into the megamorphic state,
	// either by polymorphic overflow or by a keyed site seeing varying
	// names over one hidden class.
	EvMegamorphic
	// EvHandlerInstall is the runtime generating and caching a
	// context-dependent handler after a miss.
	EvHandlerInstall
	// EvHandlerInstallCI is the runtime generating and caching a
	// context-independent handler (the reusable kind, Table 1).
	EvHandlerInstallCI
	// EvHCCreated is a hidden-class creation (a triggering event).
	EvHCCreated
	// EvValidatePass is a Reuse-run hidden class certified against the
	// record's HCVT.
	EvValidatePass
	// EvValidateFail is a validation attempt that found divergence from
	// the Initial run.
	EvValidateFail
	// EvPreloadApplied is one dependent-site ICVector slot filled from the
	// record.
	EvPreloadApplied
	// EvPreloadRejected is one dependent-site preload the reuser refused:
	// kind/name mismatch, handler rebuild or semantic-fit failure, or a
	// slot already populated/megamorphic.
	EvPreloadRejected
	// EvDegrade is the engine abandoning reuse for a conventional retry;
	// the event's Name carries the failing phase (decode, validate,
	// preload, execute).
	EvDegrade

	// EvPoolSession is one session entering a SessionPool.
	EvPoolSession
	// EvPoolAcquireHit is a session served a published record from the
	// pool's shared cache.
	EvPoolAcquireHit
	// EvPoolAcquireOwn is a session that found its key cold and took
	// ownership of the extraction.
	EvPoolAcquireOwn
	// EvPoolDedup is a session that found extraction for its key already
	// in flight and did not start its own.
	EvPoolDedup
	// EvPoolConventional is a session that ran record-free.
	EvPoolConventional
	// EvPoolExtract is an Initial run's record extraction on a cold key.
	EvPoolExtract
	// EvPoolPublish is a record publication into the shared cache; Name
	// says where the record came from ("extract" or "store").
	EvPoolPublish
	// EvPoolAbandon is an owned cache entry settled without a record
	// (failed extraction; the key stays retryable).
	EvPoolAbandon
	// EvPoolStoreLoad is a record decoded from the backing RecordStore.
	EvPoolStoreLoad
	// EvPoolStoreError is a failed best-effort backing-store operation.
	EvPoolStoreError
	// EvPoolDegraded is a pool session whose engine abandoned reuse
	// mid-run.
	EvPoolDegraded

	// EvPoolQuarantine is a corrupt stored record set aside (renamed to
	// .ric.bad) during a pool session's store load; the session proceeds
	// to extraction as if the key were cold.
	EvPoolQuarantine

	// NumTypes is the number of event types (array sizing).
	NumTypes
)

var typeNames = [NumTypes]string{
	EvICHit:            "ic-hit",
	EvICHitPreloaded:   "ic-hit-preloaded",
	EvICMissHandler:    "ic-miss-handler",
	EvICMissGlobal:     "ic-miss-global",
	EvICMissOther:      "ic-miss-other",
	EvMegamorphic:      "megamorphic",
	EvHandlerInstall:   "handler-install",
	EvHandlerInstallCI: "handler-install-ci",
	EvHCCreated:        "hc-created",
	EvValidatePass:     "validate-pass",
	EvValidateFail:     "validate-fail",
	EvPreloadApplied:   "preload-applied",
	EvPreloadRejected:  "preload-rejected",
	EvDegrade:          "degrade",
	EvPoolSession:      "pool-session",
	EvPoolAcquireHit:   "pool-acquire-hit",
	EvPoolAcquireOwn:   "pool-acquire-own",
	EvPoolDedup:        "pool-dedup",
	EvPoolConventional: "pool-conventional",
	EvPoolExtract:      "pool-extract",
	EvPoolPublish:      "pool-publish",
	EvPoolAbandon:      "pool-abandon",
	EvPoolStoreLoad:    "pool-store-load",
	EvPoolStoreError:   "pool-store-error",
	EvPoolDegraded:     "pool-degraded",

	EvPoolQuarantine: "pool-quarantine",
}

// String returns the stable wire name of the event type. These names are
// the contract of the exporters and the golden-trace files; do not reuse
// or rename them. The numeric values never leave the process.
func (t Type) String() string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return "unknown"
}

// Event is one traced IC event. Events are small fixed-size values; the
// ring stores them inline with no per-event allocation.
type Event struct {
	// Seq is the buffer-local emission index (0-based, monotonic).
	Seq uint64
	// Type classifies the event.
	Type Type
	// Site is the access site the event concerns; the zero Site marks
	// events with no site identity (builtin validations, pool events).
	Site source.Site
	// Name is the event's string payload: the accessed property for IC
	// events, the builtin name for builtin validations, the failing phase
	// for degradations, the record source for pool publishes.
	Name string
	// N is the event's numeric payload: extra polymorphic entries
	// examined for hits, the HCVT id for validations, 0 otherwise.
	N int64
	// Session tags the emitting pool session; it is zero for standalone
	// engines.
	Session uint64
}

// DefaultCapacity is the ring size NewBuffer uses for capacity <= 0:
// enough to hold the complete event stream of every workload in this
// repository, so exporters see full traces by default.
const DefaultCapacity = 1 << 16

// Buffer collects the events of one engine session. It is single-writer:
// the owning session emits, and readers (exporters, summaries) must only
// run after the session's work has settled. The zero Buffer is not usable;
// call NewBuffer. A nil *Buffer is the disabled sink.
type Buffer struct {
	ring    []Event
	seq     uint64 // total events emitted (ring may hold fewer)
	session uint64
	reg     registry
}

// NewBuffer creates a buffer whose ring keeps the most recent capacity
// events (DefaultCapacity when capacity <= 0). The per-site registry is
// unbounded and never drops events regardless of the ring size.
func NewBuffer(capacity int) *Buffer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Buffer{ring: make([]Event, 0, capacity)}
}

// Tag sets the session ID stamped on every subsequent event. The
// SessionPool tags each session's buffer before the session runs.
func (b *Buffer) Tag(session uint64) *Buffer {
	b.session = session
	return b
}

// Session returns the buffer's session tag.
func (b *Buffer) Session() uint64 { return b.session }

// Emit appends one event. Emit on a nil buffer is a no-op, so callers may
// hold a nil *Buffer as "tracing disabled"; hot paths additionally guard
// the call behind their own nil check to keep the disabled cost to one
// branch.
func (b *Buffer) Emit(t Type, site source.Site, name string, n int64) {
	if b == nil {
		return
	}
	b.reg.add(t, site)
	e := Event{Seq: b.seq, Type: t, Site: site, Name: name, N: n, Session: b.session}
	if len(b.ring) < cap(b.ring) {
		b.ring = append(b.ring, e)
	} else {
		b.ring[int(b.seq)%cap(b.ring)] = e
	}
	b.seq++
}

// Len returns the total number of events emitted (including any the ring
// has since dropped).
func (b *Buffer) Len() uint64 {
	if b == nil {
		return 0
	}
	return b.seq
}

// Dropped returns how many events the ring has overwritten. The registry
// still counts them.
func (b *Buffer) Dropped() uint64 {
	if b == nil {
		return 0
	}
	return b.seq - uint64(len(b.ring))
}

// Events returns the retained events in emission order (oldest first).
func (b *Buffer) Events() []Event {
	if b == nil || len(b.ring) == 0 {
		return nil
	}
	out := make([]Event, 0, len(b.ring))
	if b.seq <= uint64(cap(b.ring)) {
		return append(out, b.ring...)
	}
	start := int(b.seq) % cap(b.ring)
	out = append(out, b.ring[start:]...)
	out = append(out, b.ring[:start]...)
	return out
}

// Reset discards all events and counts, keeping the session tag and
// the ring capacity. The engine resets its buffer when it degrades, so the
// trace mirrors the profiler's lifetime (a degraded engine's counters
// restart on the fresh conventional VM).
func (b *Buffer) Reset() {
	if b == nil {
		return
	}
	b.ring = b.ring[:0]
	b.seq = 0
	b.reg = registry{}
}

// Count returns how many events of one type were emitted over the
// buffer's lifetime (ring drops do not affect it).
func (b *Buffer) Count(t Type) uint64 {
	if b == nil {
		return 0
	}
	return b.reg.total[t]
}

// registry is the complete per-site metrics store: counts by event type,
// overall and per access site. It is the roll-up the profiler aggregates
// reconcile against.
type registry struct {
	total  [NumTypes]uint64
	bySite map[source.Site]*[NumTypes]uint64
}

func (r *registry) add(t Type, site source.Site) {
	r.total[t]++
	if r.bySite == nil {
		r.bySite = make(map[source.Site]*[NumTypes]uint64)
	}
	counts := r.bySite[site]
	if counts == nil {
		counts = new([NumTypes]uint64)
		r.bySite[site] = counts
	}
	counts[t]++
}

// SiteCounts is the event-type histogram of one access site.
type SiteCounts struct {
	Site   source.Site
	Counts [NumTypes]uint64
}

// Summary is an immutable, deterministic roll-up of a buffer's complete
// event stream: total counts by type, and per-site counts sorted by site.
// Equal executions produce equal summaries; golden-trace tests compare its
// String form.
type Summary struct {
	// Events is the total number of events summarized.
	Events uint64
	// Total holds event counts by type.
	Total [NumTypes]uint64
	// Sites holds per-site histograms, sorted by (script, line, col).
	Sites []SiteCounts
}

// Summary rolls the buffer's registry into an immutable snapshot.
func (b *Buffer) Summary() *Summary {
	s := &Summary{}
	if b == nil {
		return s
	}
	s.Events = b.seq
	s.Total = b.reg.total
	s.Sites = make([]SiteCounts, 0, len(b.reg.bySite))
	for site, counts := range b.reg.bySite {
		s.Sites = append(s.Sites, SiteCounts{Site: site, Counts: *counts})
	}
	sort.Slice(s.Sites, func(i, j int) bool { return siteLess(s.Sites[i].Site, s.Sites[j].Site) })
	return s
}

// MergeSummaries folds many per-session summaries into one (the pool-wide
// view). Per-site counts accumulate across sessions.
func MergeSummaries(parts ...*Summary) *Summary {
	merged := &Summary{}
	acc := make(map[source.Site]*[NumTypes]uint64)
	for _, p := range parts {
		if p == nil {
			continue
		}
		merged.Events += p.Events
		for t := Type(0); t < NumTypes; t++ {
			merged.Total[t] += p.Total[t]
		}
		for _, sc := range p.Sites {
			counts := acc[sc.Site]
			if counts == nil {
				counts = new([NumTypes]uint64)
				acc[sc.Site] = counts
			}
			for t := Type(0); t < NumTypes; t++ {
				counts[t] += sc.Counts[t]
			}
		}
	}
	merged.Sites = make([]SiteCounts, 0, len(acc))
	for site, counts := range acc {
		merged.Sites = append(merged.Sites, SiteCounts{Site: site, Counts: *counts})
	}
	sort.Slice(merged.Sites, func(i, j int) bool { return siteLess(merged.Sites[i].Site, merged.Sites[j].Site) })
	return merged
}

// Count returns the summary's total for one event type.
func (s *Summary) Count(t Type) uint64 { return s.Total[t] }

func siteLess(a, b source.Site) bool {
	if a.Script != b.Script {
		return a.Script < b.Script
	}
	if a.Pos.Line != b.Pos.Line {
		return a.Pos.Line < b.Pos.Line
	}
	return a.Pos.Col < b.Pos.Col
}
