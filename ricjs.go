// Package ricjs is a JavaScript engine with Reusable Inline Caching (RIC),
// a from-scratch Go reproduction of Choi, Shull and Torrellas, "Reusable
// Inline Caching for JavaScript Performance" (PLDI 2019).
//
// The engine executes a JavaScript subset through a bytecode interpreter
// with V8-style hidden classes and out-of-line inline caches. RIC extracts
// the context-independent portion of the IC state after an Initial run
// into a persistent Record, and uses it in later Reuse runs to avert IC
// misses, cutting startup time.
//
// Typical use:
//
//	cache := ricjs.NewCodeCache()
//
//	// Initial run: build IC state, then extract the record.
//	initial := ricjs.NewEngine(ricjs.Options{Cache: cache})
//	initial.Run("lib.js", src)
//	record := initial.ExtractRecord("lib.js")
//
//	// Reuse run: the record preloads ICVector slots as hidden classes
//	// validate, averting misses.
//	reuse := ricjs.NewEngine(ricjs.Options{Cache: cache, Record: record})
//	reuse.Run("lib.js", src)
//	fmt.Println(reuse.Stats().MissRate())
package ricjs

import (
	"bytes"
	"fmt"
	"io"

	"ricjs/internal/bytecode"
	"ricjs/internal/codecache"
	"ricjs/internal/profiler"
	"ricjs/internal/ric"
	"ricjs/internal/source"
	"ricjs/internal/trace"
	"ricjs/internal/vm"
)

// Stats is the statistics snapshot of one engine run: abstract instruction
// counts by category, IC hits and misses with the Table 4 miss breakdown,
// hidden-class and handler counts, and RIC validation/preload activity.
type Stats = profiler.Snapshot

// CodeCache shares compiled bytecode across engines, modelling V8's code
// cache: Reuse runs skip parsing and compilation (paper §6, §8.1).
type CodeCache struct {
	c *codecache.Cache
}

// residentBudget bounds, in bytes, what a CodeCache charges its compiled
// programs and what a SessionPool charges its cached records: each cache
// has a budget of this size, and CLOCK eviction keeps it there. The 11
// workload profiles charge about 1.0 MB of programs and 0.55 MB of
// records, so the hot set fits either cache with room to spare and is
// never evicted; a cold tail of one-off scripts is (DESIGN.md, "Bounded
// resident state").
const residentBudget = 2 << 20

// NewCodeCache creates an empty code cache. It is safe to share across
// engines and goroutines.
func NewCodeCache() *CodeCache {
	return &CodeCache{c: codecache.New(residentBudget)}
}

// Record is the persistent ICRecord extracted from an Initial run: the
// Hidden Class Validation Table, the Triggering Object Access Site Table,
// and the saved context-independent handlers (paper §5.1).
type Record struct {
	r *ric.Record
}

// Encode serializes the record. The returned length is the record's
// memory overhead, the quantity §7.3 reports.
func (r *Record) Encode() []byte { return r.r.Encode() }

// Stats returns the extraction statistics.
func (r *Record) Stats() ric.Stats { return r.r.Stats }

// Label returns the workload label the record was extracted under.
func (r *Record) Label() string { return r.r.Script }

// DecodeRecord parses a serialized record, rejecting corrupt input.
func DecodeRecord(data []byte) (*Record, error) {
	rec, err := ric.Decode(data)
	if err != nil {
		return nil, err
	}
	return &Record{r: rec}, nil
}

// EngineError is the typed error Engine.Run produces when a run is
// interrupted by something other than ordinary script behaviour: an
// internal invariant violation (a panic inside the interpreter) or a
// failure in the record pipeline (decode, validation, preload).
//
// When RecordAttributable is true the failure was caused by the reuse
// record, and the engine degrades: it discards the record and retries the
// run conventionally. Run then only returns the error if the conventional
// retry itself failed; a successful retry reports the degradation through
// Stats().DegradedRuns and Degraded() instead.
type EngineError struct {
	// Script names the script whose run failed.
	Script string
	// Phase is where the failure happened: "decode", "validate",
	// "preload", or "execute".
	Phase string
	// RecordAttributable reports whether the reuse record caused the
	// failure (and a conventional retry is therefore meaningful).
	RecordAttributable bool
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *EngineError) Error() string {
	return fmt.Sprintf("ricjs: %s %s: %v", e.Phase, e.Script, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *EngineError) Unwrap() error { return e.Err }

// Options configures an engine.
type Options struct {
	// Cache supplies compiled bytecode; nil creates a private cache.
	Cache *CodeCache
	// Record enables RIC reuse: hidden classes validate against it and
	// dependent sites preload from it. Nil runs conventionally.
	Record *Record
	// RecordBytes supplies an encoded record instead of a decoded one;
	// the engine decodes (and checksum-verifies) it itself. Bytes that
	// fail to decode do not fail construction: the engine starts
	// conventionally, counts the degradation in Stats().DegradedRuns, and
	// reports the cause via Degraded. Ignored when Record is set.
	RecordBytes []byte
	// IncludeGlobals extends RIC to the global object (off by default,
	// paper §6; used by the ablation benches). It affects ExtractRecord.
	IncludeGlobals bool
	// AddressSeed pins the simulated heap base address for reproducible
	// tests; 0 draws a fresh process-unique base (the realistic default:
	// every run sees different addresses).
	AddressSeed uint64
	// Stdout receives print/console.log output; nil collects it
	// internally, readable via Output.
	Stdout io.Writer
	// MaxSteps aborts any Run after this many bytecode operations
	// (0 = unlimited). The abort is not catchable by script code, so a
	// runaway script cannot swallow its own termination.
	MaxSteps uint64
	// RandSeed seeds Math.random. The default (0) uses a fixed seed, so
	// runs are reproducible; pass distinct seeds to model real-world
	// nondeterminism across sessions (e.g. the §9 snapshot hazard).
	RandSeed uint64
	// Trace receives structured IC events (hits, misses, handler installs,
	// validations, preloads, degradations) when non-nil; see NewTrace. A nil
	// Trace disables tracing at near-zero cost. The buffer's event stream
	// covers exactly the profiler's lifetime: engine-startup events are
	// excluded, and a degradation resets the buffer alongside the fresh
	// profiler so the two stay reconcilable.
	Trace *trace.Buffer
}

// NewTrace allocates a trace buffer to pass as Options.Trace. capacity
// bounds the retained event ring (<= 0 picks a default); aggregate per-site
// counts are kept for every event regardless of ring capacity.
func NewTrace(capacity int) *trace.Buffer { return trace.NewBuffer(capacity) }

// The trace subsystem lives in internal/trace; these aliases and wrappers
// make its consumer surface — buffers, events, summaries, and the two
// exporters — reachable from outside the module, where internal packages
// cannot be imported.
type (
	// TraceBuffer is one session's event stream; see NewTrace.
	TraceBuffer = trace.Buffer
	// TraceEvent is one structured IC event.
	TraceEvent = trace.Event
	// TraceEventType identifies one kind of IC event; its String form is
	// the stable wire name used by the exporters and golden files.
	TraceEventType = trace.Type
	// TraceSummary is a deterministic roll-up of an event stream; equal
	// executions produce equal summaries.
	TraceSummary = trace.Summary
)

// The event types, re-exported so external code can filter events and
// query summaries by type. See the internal/trace documentation for what
// each one means.
const (
	EvICHit            = trace.EvICHit
	EvICHitPreloaded   = trace.EvICHitPreloaded
	EvICMissHandler    = trace.EvICMissHandler
	EvICMissGlobal     = trace.EvICMissGlobal
	EvICMissOther      = trace.EvICMissOther
	EvMegamorphic      = trace.EvMegamorphic
	EvHandlerInstall   = trace.EvHandlerInstall
	EvHandlerInstallCI = trace.EvHandlerInstallCI
	EvHCCreated        = trace.EvHCCreated
	EvValidatePass     = trace.EvValidatePass
	EvValidateFail     = trace.EvValidateFail
	EvPreloadApplied   = trace.EvPreloadApplied
	EvPreloadRejected  = trace.EvPreloadRejected
	EvDegrade          = trace.EvDegrade
	EvPoolSession      = trace.EvPoolSession
	EvPoolAcquireHit   = trace.EvPoolAcquireHit
	EvPoolAcquireOwn   = trace.EvPoolAcquireOwn
	EvPoolDedup        = trace.EvPoolDedup
	EvPoolConventional = trace.EvPoolConventional
	EvPoolExtract      = trace.EvPoolExtract
	EvPoolPublish      = trace.EvPoolPublish
	EvPoolAbandon      = trace.EvPoolAbandon
	EvPoolStoreLoad    = trace.EvPoolStoreLoad
	EvPoolStoreError   = trace.EvPoolStoreError
	EvPoolDegraded     = trace.EvPoolDegraded
	// NumTraceEventTypes bounds iteration over all event types.
	NumTraceEventTypes = trace.NumTypes
)

// MergeTraceSummaries folds many per-session summaries into one (e.g. the
// pool-wide view across SessionResult.Trace buffers).
func MergeTraceSummaries(parts ...*trace.Summary) *trace.Summary {
	return trace.MergeSummaries(parts...)
}

// WriteTraceJSONL writes events one JSON object per line.
func WriteTraceJSONL(w io.Writer, events []trace.Event) error {
	return trace.WriteJSONL(w, events)
}

// WriteChromeTrace writes events in the Chrome trace_event JSON format,
// viewable in Perfetto (ui.perfetto.dev) or chrome://tracing.
func WriteChromeTrace(w io.Writer, events []trace.Event) error {
	return trace.WriteChromeTrace(w, events)
}

// scriptRun remembers one executed script so a degraded engine can replay
// the session on a fresh conventional VM.
type scriptRun struct{ name, src string }

// Engine is one execution context — one "run" in the paper's terminology.
// Create a fresh Engine per run; heap state, IC state, and statistics are
// per-engine. An Engine is not safe for concurrent use.
//
// A reuse-mode engine never lets its record take the run down: decode,
// validation, and preload failures (including interpreter panics caused by
// a corrupt record) degrade the engine to a conventional execution that
// replays the session record-free. Degradation happens at most once; after
// it the engine is permanently conventional.
type Engine struct {
	vm     *vm.VM
	cache  *CodeCache
	reuser *ric.Reuser
	rec    *Record
	opts   Options

	// history lists every script executed so far (including ones that
	// ended in a JavaScript error — their side effects persist), so
	// degrade can reproduce the session state on a fresh VM.
	history     []scriptRun
	degraded    bool
	degradedErr *EngineError

	// staged buffers print output while an external Stdout is configured
	// and degradation is still possible, so a degraded retry can replay
	// without duplicating output the user already saw. Flushed to the real
	// Stdout after each script settles.
	staged *bytes.Buffer
	// router is the stable writer handed to every VM the engine builds; it
	// forwards to staged while degradation is still possible and to the
	// external Stdout once it no longer is, so a degraded engine stops
	// paying the staging detour.
	router *outputRouter
}

// outputRouter is an io.Writer indirection that lets the engine repoint a
// VM's output mid-life (a VM's writer is fixed at construction).
type outputRouter struct{ w io.Writer }

func (o *outputRouter) Write(p []byte) (int, error) { return o.w.Write(p) }

// NewEngine creates an engine. If opts.Record (or opts.RecordBytes) is
// set, the engine runs in Reuse mode: builtin hidden classes validate
// immediately and triggering sites preload their dependents as execution
// proceeds.
func NewEngine(opts Options) *Engine {
	e := &Engine{opts: opts, cache: opts.Cache}
	if e.cache == nil {
		e.cache = NewCodeCache()
	}
	e.rec = opts.Record
	var decodeErr error
	if e.rec == nil && len(opts.RecordBytes) > 0 {
		r, err := ric.Decode(opts.RecordBytes)
		if err != nil {
			decodeErr = err
		} else {
			e.rec = &Record{r: r}
		}
	}
	var hooks vm.Hooks
	if e.rec != nil {
		e.reuser = ric.NewReuser(e.rec.r)
		hooks = e.reuser
	}
	e.vm = vm.New(vm.Options{
		AddressSeed: opts.AddressSeed,
		Hooks:       hooks,
		Stdout:      e.runWriter(),
		MaxSteps:    opts.MaxSteps,
		RandSeed:    opts.RandSeed,
		Trace:       opts.Trace,
	})
	if e.reuser != nil {
		// The VM announced builtin hidden classes during construction;
		// the Reuser validated them with no profiler and no loaded
		// scripts. Attach completes the wiring; preloads into each
		// script's ICVector replay when the script is loaded.
		e.reuser.Attach(e.vm)
	}
	if decodeErr != nil {
		e.degraded = true
		e.degradedErr = &EngineError{
			Phase:              "decode",
			RecordAttributable: true,
			Err:                decodeErr,
		}
		e.vm.Prof.Degrade()
		opts.Trace.Emit(trace.EvDegrade, source.Site{}, "decode", 0)
	}
	return e
}

// runWriter returns the writer the VM should print to. While the engine
// can still degrade (reuse mode with an external Stdout), output is staged
// so a conventional retry never duplicates delivered bytes; otherwise the
// external writer (or the VM's internal buffer, when nil) is used directly.
func (e *Engine) runWriter() io.Writer {
	if e.opts.Stdout == nil {
		return nil
	}
	if e.router == nil {
		e.router = &outputRouter{}
	}
	if e.rec == nil {
		e.router.w = e.opts.Stdout
	} else {
		if e.staged == nil {
			e.staged = &bytes.Buffer{}
		}
		e.router.w = e.staged
	}
	return e.router
}

// Run loads (or fetches from the code cache) and executes a script.
//
// In reuse mode the record is validated against the script's compiled
// bytecode first, and the execution runs inside a recovery boundary; any
// record-attributable failure degrades the engine (see Engine) and the
// script is retried conventionally. Ordinary JavaScript errors are
// returned as-is — they are program behaviour, identical with or without
// the record.
func (e *Engine) Run(name, src string) error {
	prog, err := e.cache.c.Load(name, src)
	if err != nil {
		return fmt.Errorf("ricjs: load %s: %w", name, err)
	}
	if e.reuser != nil {
		if verr := e.rec.r.Validate(prog); verr != nil {
			e.degrade(&EngineError{
				Script:             name,
				Phase:              "validate",
				RecordAttributable: true,
				Err:                verr,
			})
		}
	}
	err = e.runScript(name, prog)
	if ee, ok := err.(*EngineError); ok && ee.RecordAttributable && !e.degraded {
		e.degrade(ee)
		err = e.runScript(name, prog)
	}
	// The script has settled (successfully or with a JavaScript error):
	// its side effects persist, so it must be part of any future replay,
	// and its staged output is final.
	e.history = append(e.history, scriptRun{name: name, src: src})
	e.flushStaged()
	if err != nil {
		return err
	}
	return nil
}

// runScript executes one registered script under the recovery boundary.
// Interpreter panics become *EngineError; while a reuser is attached they
// are attributed to the record (a semantically-verified conventional run
// cannot be poisoned by one).
func (e *Engine) runScript(name string, prog *bytecode.Program) (err error) {
	phase := "execute"
	defer func() {
		if r := recover(); r != nil {
			err = &EngineError{
				Script:             name,
				Phase:              phase,
				RecordAttributable: e.reuser != nil,
				Err:                fmt.Errorf("internal invariant violated: %v", r),
			}
		}
	}()
	e.vm.RegisterProgram(prog)
	if e.reuser != nil {
		// Hidden classes validated before this script was registered
		// (builtins at startup, classes created by earlier scripts) may
		// have dependent sites in this script.
		phase = "preload"
		e.reuser.ReplayPreloads()
		phase = "execute"
	}
	if _, rerr := e.vm.RunProgram(prog); rerr != nil {
		return fmt.Errorf("ricjs: run %s: %w", name, rerr)
	}
	return nil
}

// degrade abandons reuse permanently: the record and reuser are dropped, a
// fresh conventional VM is built, and the session's script history is
// replayed on it so heap and global state catch up. Output replayed for
// already-delivered scripts is discarded; the caller re-runs the current
// script afterwards.
func (e *Engine) degrade(cause *EngineError) {
	e.degraded = true
	e.degradedErr = cause
	e.reuser = nil
	// Degradation happens at most once: with the record gone, no future
	// run can degrade again, so output no longer needs staging. The record
	// is cleared before rebuilding the VM so runWriter routes replay output
	// through the staged buffer one last time (discarded below) and
	// everything after that straight to the external Stdout.
	e.rec = nil
	var replayWriter io.Writer
	if e.opts.Stdout != nil {
		if e.router == nil {
			e.router = &outputRouter{}
		}
		if e.staged == nil {
			e.staged = &bytes.Buffer{}
		}
		e.router.w = e.staged
		replayWriter = e.router
	}
	// The fresh VM starts with a fresh profiler; reset the trace buffer
	// alongside it so the event stream keeps covering exactly the profiler
	// lifetime (the replay below re-emits the session's events).
	e.opts.Trace.Reset()
	e.vm = vm.New(vm.Options{
		AddressSeed: e.opts.AddressSeed,
		Stdout:      replayWriter,
		MaxSteps:    e.opts.MaxSteps,
		RandSeed:    e.opts.RandSeed,
		Trace:       e.opts.Trace,
	})
	e.vm.Prof.Degrade()
	e.opts.Trace.Emit(trace.EvDegrade, source.Site{}, cause.Phase, 0)
	for _, h := range e.history {
		prog, err := e.cache.c.Load(h.name, h.src)
		if err != nil {
			continue
		}
		// Replay errors are the same JavaScript errors the original run
		// produced (execution is deterministic); state up to the error is
		// what persists, exactly as before.
		e.vm.RunProgram(prog) //nolint:errcheck
	}
	if e.staged != nil {
		// Replayed output was already delivered to the external Stdout in
		// the original runs.
		e.staged.Reset()
	}
	if e.router != nil {
		// Post-degradation output goes straight to the external writer.
		e.router.w = e.opts.Stdout
	}
}

// flushStaged delivers staged output to the external Stdout writer.
func (e *Engine) flushStaged() {
	if e.staged == nil || e.opts.Stdout == nil {
		return
	}
	if e.staged.Len() > 0 {
		e.opts.Stdout.Write(e.staged.Bytes()) //nolint:errcheck
		e.staged.Reset()
	}
}

// Degraded reports whether the engine abandoned reuse for a conventional
// execution, and why (nil cause when it never degraded).
func (e *Engine) Degraded() (bool, *EngineError) {
	return e.degraded, e.degradedErr
}

// ExtractRecord runs the extraction phase (paper §5.2.1) over the engine's
// accumulated IC state and returns the record §5 defines: the Hidden Class
// Validation Table, the Triggering Object Access Site Table and the
// context-independent handlers. It runs no static analysis, so the record
// carries no typed-shape claims. Call it after the Initial run completes;
// the engine is not modified.
func (e *Engine) ExtractRecord(label string) *Record {
	return &Record{r: ric.Extract(e.vm, label, ric.Config{IncludeGlobals: e.opts.IncludeGlobals})}
}

// Stats snapshots the run's statistics.
func (e *Engine) Stats() Stats { return e.vm.Prof.Snapshot() }

// Trace returns the trace buffer configured at construction (nil when
// tracing is disabled).
func (e *Engine) Trace() *trace.Buffer { return e.opts.Trace }

// Output returns accumulated print/console output when no Stdout writer
// was configured.
func (e *Engine) Output() string { return e.vm.Output() }

// ValidatedHCs reports how many hidden classes RIC validated in this run
// (0 in conventional mode).
func (e *Engine) ValidatedHCs() int {
	if e.reuser == nil {
		return 0
	}
	return e.reuser.ValidatedCount()
}

// ICState renders the engine's inline-cache state: every populated
// ICVector slot with its site, feedback state (monomorphic, polymorphic,
// megamorphic) and cached (hidden class, handler) entries. Intended for
// debugging and for studying what RIC preloaded.
func (e *Engine) ICState() string { return e.vm.DumpICState() }

// VM exposes the underlying virtual machine for advanced inspection
// (extraction internals, tests, tooling).
func (e *Engine) VM() *vm.VM { return e.vm }
