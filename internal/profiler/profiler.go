// Package profiler provides deterministic abstract instruction accounting
// for the engine, standing in for the Pin-based instruction counting used
// in the paper's evaluation (§6).
//
// Every bytecode operation and every unit of runtime work charges a cost to
// the profiler. Costs are attributed to a Category; the paper's Figure 5
// splits initialization instructions into "IC miss handling" and "rest of
// the work", and the profiler mirrors that split. Counts are deterministic:
// the same program against the same engine configuration always produces
// the same numbers.
package profiler

import (
	"fmt"
	"time"
)

// Category classifies where abstract instructions are charged.
type Category uint8

const (
	// CatRest covers JavaScript code execution and all runtime work that
	// is not IC miss handling (parsing and compilation are charged here
	// too when they happen inside a profiled run).
	CatRest Category = iota
	// CatICMiss covers the runtime's IC miss path: looking up the incoming
	// object's layout, generating a handler, creating hidden classes on
	// transitions, and updating the ICVector (paper §3.1).
	CatICMiss

	numCategories
)

// String returns the human-readable category name.
func (c Category) String() string {
	switch c {
	case CatRest:
		return "rest"
	case CatICMiss:
		return "ic-miss"
	default:
		return fmt.Sprintf("category(%d)", uint8(c))
	}
}

// MissKind classifies IC misses observed during a Reuse run for the
// breakdown in the paper's Table 4.
type MissKind uint8

const (
	// MissHandler marks misses at sites whose Initial-run handler was
	// context-dependent, so RIC could not preload them.
	MissHandler MissKind = iota
	// MissGlobal marks misses on global-object ICs, for which RIC is
	// disabled by default (paper §6).
	MissGlobal
	// MissOther covers everything else: triggering sites (not addressed by
	// RIC by construction), validation failures, and sites absent from the
	// record.
	MissOther

	numMissKinds
)

// String returns the human-readable miss-kind name.
func (k MissKind) String() string {
	switch k {
	case MissHandler:
		return "handler"
	case MissGlobal:
		return "global"
	case MissOther:
		return "other"
	default:
		return fmt.Sprintf("misskind(%d)", uint8(k))
	}
}

// Cost constants for the abstract instruction model. The absolute values
// are arbitrary; their ratios are chosen so that IC miss handling dominates
// library initialization roughly the way the paper reports (Figure 5:
// ~36% of initialization instructions on average).
const (
	// CostOp is the base cost of dispatching one bytecode operation
	// (fetch, decode, dispatch, and the typical operand work).
	CostOp = 8
	// CostICHit is the extra cost of a successful IC fast path: one hidden
	// class compare plus executing a handler.
	CostICHit = 26
	// CostICPolySearch is charged per additional slot entry examined in a
	// polymorphic IC before a hit or miss is declared.
	CostICPolySearch = 6
	// CostMissEntry is the fixed cost of entering the runtime on an IC
	// miss (spilling state, locating the feedback slot).
	CostMissEntry = 60
	// CostLookupStep is charged per property examined while the runtime
	// searches an object layout, and per prototype-chain hop.
	CostLookupStep = 12
	// CostHandlerGen is the cost of generating (compiling) a new handler
	// routine in the runtime.
	CostHandlerGen = 90
	// CostHCTransition is the cost of creating a new hidden class and
	// linking the transition tables.
	CostHCTransition = 130
	// CostVectorUpdate is the cost of appending a slot entry to the
	// ICVector.
	CostVectorUpdate = 25
	// CostGenericAccess is the cost of a fully generic (megamorphic or
	// dictionary-mode) property access performed outside the miss path.
	CostGenericAccess = 120
	// CostRICPreload is charged (to CatRest) per dependent-site ICVector
	// slot preloaded by RIC during a Reuse run; the paper reports this
	// overhead as negligible, and the constant keeps it honest.
	CostRICPreload = 16
	// CostAlloc is the cost of allocating a heap object.
	CostAlloc = 30
	// CostCall is the extra cost of setting up a function call frame.
	CostCall = 20
)

// Counters accumulates all statistics for one engine execution. The zero
// value is ready to use. Counters is not safe for concurrent use; an engine
// is single-threaded like a JavaScript isolate.
type Counters struct {
	instr [numCategories]uint64

	// current attribution category; misses push CatICMiss.
	cat   Category
	depth int // nesting depth of BeginICMiss sections

	// IC access statistics.
	icHits       uint64
	icMisses     uint64
	missByKind   [numMissKinds]uint64
	missesSaved  uint64 // hits served from RIC-preloaded slots
	preloads     uint64 // dependent-site slots preloaded by RIC
	validations  uint64 // hidden classes validated in a Reuse run
	valFailures  uint64 // validation attempts that failed (divergence)
	hcCreated    uint64
	handlersMade uint64
	handlersCI   uint64 // of handlersMade, how many are context-independent
	allocations  uint64
	degradedRuns uint64 // reuse runs abandoned in favour of conventional retries

	// Static-analysis feed (Reuse runs with a prefilter attached).
	staticFiltered uint64 // record preloads skipped on static evidence
	staticDead     uint64 // gauge: sites the analysis proved unreachable
	staticRisk     uint64 // gauge: sites the analysis flags as megamorphic risk
}

// Charge adds n abstract instructions to the current category.
func (c *Counters) Charge(n uint64) { c.instr[c.cat] += n }

// ChargeTo adds n abstract instructions to an explicit category regardless
// of the current attribution.
func (c *Counters) ChargeTo(cat Category, n uint64) { c.instr[cat] += n }

// BeginICMiss switches attribution to the IC-miss category. Sections nest.
func (c *Counters) BeginICMiss() {
	c.depth++
	c.cat = CatICMiss
}

// EndICMiss closes the innermost IC-miss section.
func (c *Counters) EndICMiss() {
	if c.depth > 0 {
		c.depth--
	}
	if c.depth == 0 {
		c.cat = CatRest
	}
}

// InMiss reports whether attribution is currently inside an IC-miss section.
func (c *Counters) InMiss() bool { return c.depth > 0 }

// ICMissInstrCount returns the abstract instructions charged to IC miss
// handling so far; the VM reads it around a miss to size the simulated
// runtime work.
func (c *Counters) ICMissInstrCount() uint64 { return c.instr[CatICMiss] }

// Hit records a successful IC fast-path access. extraEntries is the number
// of additional polymorphic entries examined before the match.
func (c *Counters) Hit(extraEntries int, preloaded bool) {
	c.icHits++
	if preloaded {
		c.missesSaved++
	}
	c.Charge(CostICHit + uint64(extraEntries)*CostICPolySearch)
}

// Miss records an IC miss of the given kind. The caller brackets the actual
// runtime work with BeginICMiss/EndICMiss.
func (c *Counters) Miss(kind MissKind) {
	c.icMisses++
	c.missByKind[kind]++
}

// Preload records n dependent-site slots preloaded by RIC.
func (c *Counters) Preload(n int) {
	c.preloads += uint64(n)
	c.ChargeTo(CatRest, uint64(n)*CostRICPreload)
}

// Validate records a successful hidden-class validation.
func (c *Counters) Validate() { c.validations++ }

// ValidateFail records a failed validation (Reuse run diverged from the
// Initial run at this point).
func (c *Counters) ValidateFail() { c.valFailures++ }

// HCCreated records the creation of a hidden class.
func (c *Counters) HCCreated() { c.hcCreated++ }

// HandlerMade records generation of a handler routine;
// contextIndependent tags it for the Table 1 characterization.
func (c *Counters) HandlerMade(contextIndependent bool) {
	c.handlersMade++
	if contextIndependent {
		c.handlersCI++
	}
}

// StaticFiltered records one dependent-site preload the reuser skipped
// because the static shape analysis proved it useless: the site is
// unreachable, vanished from the analyzed program, or can never observe
// the validated hidden class.
func (c *Counters) StaticFiltered() { c.staticFiltered++ }

// StaticSiteFlags records the static analysis verdict over the analyzed
// program: how many access sites are provably unreachable and how many
// carry megamorphic risk. These are gauges, not accumulators — re-analysis
// after a later script load replaces the previous totals.
func (c *Counters) StaticSiteFlags(dead, risk uint64) {
	c.staticDead = dead
	c.staticRisk = risk
}

// Degrade records that the engine abandoned a reuse run because of a
// record-attributable failure and retried conventionally (record-free).
func (c *Counters) Degrade() { c.degradedRuns++ }

// Alloc records a heap allocation and charges its cost.
func (c *Counters) Alloc() {
	c.allocations++
	c.Charge(CostAlloc)
}

// Reset returns the counters to their zero state.
func (c *Counters) Reset() { *c = Counters{} }

// Snapshot is an immutable copy of the statistics of one execution.
type Snapshot struct {
	// Instr holds abstract instruction counts by category.
	InstrRest   uint64
	InstrICMiss uint64

	ICHits   uint64
	ICMisses uint64
	// MissHandler/MissGlobal/MissOther break ICMisses down by cause
	// (meaningful in Reuse runs; all zeros except Other in Initial runs).
	MissHandler uint64
	MissGlobal  uint64
	MissOther   uint64

	MissesSaved uint64
	Preloads    uint64
	Validations uint64
	ValFailures uint64

	HCCreated            uint64
	HandlersMade         uint64
	HandlersContextIndep uint64
	Allocations          uint64

	// DegradedRuns counts reuse runs this engine abandoned because of a
	// record-attributable failure (decode, validation, or preload panic),
	// completing conventionally instead. 0 or 1: an engine degrades at
	// most once and then stays conventional.
	DegradedRuns uint64

	// StaticFilteredPreloads counts record preloads skipped on static
	// evidence; StaticDeadSites and StaticMegamorphicRisk report the
	// analysis verdict over the analyzed program (zero when no static
	// prefilter is attached).
	StaticFilteredPreloads uint64
	StaticDeadSites        uint64
	StaticMegamorphicRisk  uint64
}

// Snapshot captures the current statistics.
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		InstrRest:            c.instr[CatRest],
		InstrICMiss:          c.instr[CatICMiss],
		ICHits:               c.icHits,
		ICMisses:             c.icMisses,
		MissHandler:          c.missByKind[MissHandler],
		MissGlobal:           c.missByKind[MissGlobal],
		MissOther:            c.missByKind[MissOther],
		MissesSaved:          c.missesSaved,
		Preloads:             c.preloads,
		Validations:          c.validations,
		ValFailures:          c.valFailures,
		HCCreated:            c.hcCreated,
		HandlersMade:         c.handlersMade,
		HandlersContextIndep: c.handlersCI,
		Allocations:          c.allocations,
		DegradedRuns:         c.degradedRuns,

		StaticFilteredPreloads: c.staticFiltered,
		StaticDeadSites:        c.staticDead,
		StaticMegamorphicRisk:  c.staticRisk,
	}
}

// TotalInstr returns the total abstract instruction count.
func (s Snapshot) TotalInstr() uint64 { return s.InstrRest + s.InstrICMiss }

// ICAccesses returns the total number of IC fast-path consultations.
func (s Snapshot) ICAccesses() uint64 { return s.ICHits + s.ICMisses }

// MissRate returns the IC miss rate in percent, or 0 when no IC accesses
// were observed.
func (s Snapshot) MissRate() float64 {
	total := s.ICAccesses()
	if total == 0 {
		return 0
	}
	return 100 * float64(s.ICMisses) / float64(total)
}

// MissRateOf returns the contribution of one miss kind to the overall miss
// rate, in percent of IC accesses (the unit used by Table 4's breakdown).
func (s Snapshot) MissRateOf(kind MissKind) float64 {
	total := s.ICAccesses()
	if total == 0 {
		return 0
	}
	var n uint64
	switch kind {
	case MissHandler:
		n = s.MissHandler
	case MissGlobal:
		n = s.MissGlobal
	default:
		n = s.MissOther
	}
	return 100 * float64(n) / float64(total)
}

// ICMissShare returns the fraction (0..1) of abstract instructions spent in
// IC miss handling — the quantity plotted in the paper's Figure 5.
func (s Snapshot) ICMissShare() float64 {
	total := s.TotalInstr()
	if total == 0 {
		return 0
	}
	return float64(s.InstrICMiss) / float64(total)
}

// ContextIndependentShare returns the percentage of generated handlers that
// are context-independent (last column of the paper's Table 1).
func (s Snapshot) ContextIndependentShare() float64 {
	if s.HandlersMade == 0 {
		return 0
	}
	return 100 * float64(s.HandlersContextIndep) / float64(s.HandlersMade)
}

// MissesPerHC returns IC misses per distinct hidden class (third column of
// the paper's Table 1).
func (s Snapshot) MissesPerHC() float64 {
	if s.HCCreated == 0 {
		return 0
	}
	return float64(s.ICMisses) / float64(s.HCCreated)
}

// Timer measures wall-clock phases around whole runs. The engine itself
// never reads the clock; only the harness does, through this type.
type Timer struct {
	start time.Time
}

// StartTimer begins a wall-clock measurement.
func StartTimer() Timer { return Timer{start: time.Now()} }

// Elapsed returns the time since the timer started.
func (t Timer) Elapsed() time.Duration { return time.Since(t.start) }
