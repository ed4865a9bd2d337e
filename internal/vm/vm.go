// Package vm implements the bytecode interpreter, the IC fast path, the
// runtime slow path that handles IC misses (generic lookup, handler
// generation, ICVector update — the work the paper's Figure 5 measures),
// and the builtin environment.
package vm

import (
	"bytes"
	"io"
	"math"

	"ricjs/internal/bytecode"
	"ricjs/internal/ic"
	"ricjs/internal/objects"
	"ricjs/internal/profiler"
	"ricjs/internal/source"
	"ricjs/internal/symtab"
	"ricjs/internal/trace"
)

// maxCallDepth bounds recursion, standing in for a JavaScript stack limit.
const maxCallDepth = 800

// Options configures a VM.
type Options struct {
	// AddressSeed seeds the simulated heap address space; 0 draws a fresh
	// process-unique base so every VM sees different addresses.
	AddressSeed uint64
	// Hooks receives RIC events; nil disables reuse behaviour.
	Hooks Hooks
	// Stdout receives print/console.log output; nil collects into an
	// internal buffer readable via Output.
	Stdout io.Writer
	// RandSeed seeds Math.random deterministically.
	RandSeed uint64
	// MaxSteps aborts execution after this many bytecode operations
	// (0 = unlimited). The abort is a LimitError, not catchable by
	// JavaScript code.
	MaxSteps uint64
	// Trace receives structured IC events (hits, misses, megamorphic
	// transitions, handler installs, hidden-class creations) as the run
	// executes; nil disables tracing at the cost of one branch per event
	// site. Startup events are not traced, mirroring the profiler reset at
	// the end of construction.
	Trace *trace.Buffer
	// SiteObserver, when set, is invoked for every IC-mediated object
	// access with the site identity, access kind, and the receiver's
	// hidden class at that moment — exactly the (site, hidden class)
	// stream a feedback slot could cache. The static-analysis soundness
	// harness uses it to compare runtime shapes against predictions.
	// Dictionary-mode and primitive receivers bypass the IC and are not
	// reported.
	SiteObserver func(site source.Site, kind ic.AccessKind, hc *objects.HiddenClass)
	// StoreObserver, when set, is invoked after every named-property
	// store or layout transition script execution performs, with the
	// receiver in its post-store state. The typed-shape soundness
	// gate uses it to assert that no concrete store ever places a value
	// violating a claimed slot type. Setting it routes stores through
	// the runtime helper (like SiteObserver does for all IC accesses),
	// which performs identical accounting to the inline paths.
	StoreObserver func(o *objects.Object)
}

// VM is one engine execution context: heap, globals, feedback vectors,
// and profiling counters. It corresponds to one "run" in the paper's
// terminology and is single-threaded, like a JavaScript isolate.
type VM struct {
	Space *objects.Space
	Prof  *profiler.Counters

	global   *objects.Object
	hooks    Hooks
	tr       *trace.Buffer
	siteObs  func(site source.Site, kind ic.AccessKind, hc *objects.HiddenClass)
	storeObs func(o *objects.Object)

	// Shared root hidden classes (paper §2.2's HC0s for each object kind).
	emptyObjectHC *objects.HiddenClass
	arrayHC       *objects.HiddenClass
	functionHC    *objects.HiddenClass
	fnProtoRootHC *objects.HiddenClass

	objectProto   *objects.Object
	functionProto *objects.Object
	arrayProto    *objects.Object

	// feedback maps each compiled function to its ICVector (out-of-line
	// IC, paper Figure 3). Per-VM so code can be shared across VMs.
	feedback map[*bytecode.FuncProto]*ic.Vector
	// programs lists every registered program with its slot slab, in
	// registration order; RIC preloads through the slabs.
	programs []Registration

	// roots lists every root hidden class in creation order, for the
	// extraction phase's deterministic walk.
	roots []*objects.HiddenClass
	// builtinFinal maps builtin names to the hidden class each builtin
	// object has once startup completes; these validate unconditionally
	// at the start of a Reuse run (paper §4: "Built-in objects are
	// immediately marked as validated at the startup").
	builtinFinal []BuiltinHC

	vectorOrder []*ic.Vector
	// extraBuiltins and stringMethods are filled while setupBuiltins
	// builds the realm; a VM reads the realm's.
	extraBuiltins []namedBuiltin
	stringMethods map[string]*objects.Object
	createHCs     map[*objects.Object]*objects.HiddenClass
	createSeq     int

	out      io.Writer
	buf      bytes.Buffer
	depth    int
	rng      uint64
	burnSink uint64

	// framePool recycles activation records (frame structs plus their
	// locals/stack backing arrays). Call-heavy hot loops otherwise spend
	// their time allocating frames: with the pool warm, invoking a compiled
	// function is allocation-free. LIFO order matches call nesting, so the
	// pool depth tracks the maximum live call depth.
	framePool []*frame

	maxSteps  uint64
	steps     uint64
	callStack []string

	// realm is the process's builtin template and heap this VM's copy of
	// it; the VM's builtin pointers above point into heap.
	realm *realm
	heap  objects.Heap
	// builtinRegs collects startup's (qualified name, object)
	// registrations while setupBuiltins builds the realm. Only the static
	// analysis reads builtin identities, so a VM builds the two-way index
	// over the realm's registrations (builtinIDs) on first read.
	builtinRegs []namedBuiltin
	builtinIDs  *builtinIdentity
}

// BuiltinHC pairs a builtin object name with its post-startup hidden class.
type BuiltinHC struct {
	Name string
	HC   *objects.HiddenClass
}

// New creates a VM with a fresh heap and the builtin environment
// installed: a copy of the process's builtin template, addressed by the
// VM's own space. Profiling counters are reset after startup so
// measurements cover script execution only, matching the paper's focus
// on library initialization.
func New(opts Options) *VM {
	vm := &VM{
		Space:    objects.NewSpace(opts.AddressSeed),
		Prof:     &profiler.Counters{},
		hooks:    opts.Hooks,
		siteObs:  opts.SiteObserver,
		storeObs: opts.StoreObserver,
		feedback: make(map[*bytecode.FuncProto]*ic.Vector),
		out:      opts.Stdout,
		rng:      opts.RandSeed,
		maxSteps: opts.MaxSteps,
	}
	if vm.out == nil {
		vm.out = &vm.buf
	}
	if vm.rng == 0 {
		vm.rng = 0x9E3779B97F4A7C15
	}
	vm.instantiate(builtinRealm())
	vm.finishStartup()
	vm.Prof.Reset()
	// Tracing attaches only after startup, so the event stream covers
	// script execution exactly like the (just reset) profiler counters do;
	// the trace/profiler reconciliation tests rely on this alignment.
	vm.tr = opts.Trace
	return vm
}

// Trace returns the VM's trace buffer (nil when tracing is disabled).
func (vm *VM) Trace() *trace.Buffer { return vm.tr }

// emit records one trace event at an access site. The nil check keeps the
// disabled-tracing cost on the IC fast path to a single predictable
// branch, inlined at each caller; the site is built from si only past it,
// in emitAt.
func (vm *VM) emit(t trace.Type, si *ic.SiteInfo, name string, n int64) {
	if vm.tr != nil {
		vm.emitAt(t, si, name, n)
	}
}

// emitAt is emit past its nil check. The dispatch loop's inline hit paths
// call it inside their own check, so the site is built out of line there
// too.
func (vm *VM) emitAt(t trace.Type, si *ic.SiteInfo, name string, n int64) {
	vm.tr.Emit(t, si.Site(), name, n)
}

// missEvent maps the profiler's miss classification to its event type.
func missEvent(kind profiler.MissKind) trace.Type {
	switch kind {
	case profiler.MissHandler:
		return trace.EvICMissHandler
	case profiler.MissGlobal:
		return trace.EvICMissGlobal
	default:
		return trace.EvICMissOther
	}
}

// handlerEvent maps a handler's context-independence to its event type.
func handlerEvent(contextIndependent bool) trace.Type {
	if contextIndependent {
		return trace.EvHandlerInstallCI
	}
	return trace.EvHandlerInstall
}

// hitEvent maps a fast-path hit to its event type; a hit on a preloaded
// entry is one miss RIC averted.
func hitEvent(preloaded bool) trace.Type {
	if preloaded {
		return trace.EvICHitPreloaded
	}
	return trace.EvICHit
}

// builtinIdentity is the two-way builtin identity index: every object
// registered during startup under its stable qualified name. Order
// remembers registration order, so the static analysis can rebuild the
// startup object graph deterministically.
type builtinIdentity struct {
	byName map[string]*objects.Object
	byObj  map[*objects.Object]string
	order  []string
}

// registerBuiltinObject records a builtin object under a stable qualified
// name while setupBuiltins builds the realm.
func (vm *VM) registerBuiltinObject(name string, o *objects.Object) {
	if o != nil {
		vm.builtinRegs = append(vm.builtinRegs, namedBuiltin{Name: name, Obj: o})
	}
}

// builtinIdentities returns the identity index, building it on first use
// by replaying the realm's registrations in order against this VM's
// copies. The first registration of a name, and the first of an object,
// wins: a later registration that reuses either is dropped in both
// directions.
func (vm *VM) builtinIdentities() *builtinIdentity {
	if vm.builtinIDs != nil {
		return vm.builtinIDs
	}
	regs := vm.realm.b.builtinRegs
	ids := &builtinIdentity{
		byName: make(map[string]*objects.Object, len(regs)),
		byObj:  make(map[*objects.Object]string, len(regs)),
	}
	for _, r := range regs {
		o := vm.heap.Object(r.Obj)
		if _, taken := ids.byName[r.Name]; taken {
			continue
		}
		if _, known := ids.byObj[o]; known {
			continue
		}
		ids.byName[r.Name] = o
		ids.byObj[o] = r.Name
		ids.order = append(ids.order, r.Name)
	}
	vm.builtinIDs = ids
	return ids
}

// BuiltinObjectNames returns the qualified names of every registered
// builtin object in registration order. Startup is deterministic, so the
// order (and the objects behind the names) is identical in every VM.
func (vm *VM) BuiltinObjectNames() []string { return vm.builtinIdentities().order }

// BuiltinObjectName returns the qualified name of a builtin object, if o
// is one ("" otherwise). Startup is deterministic, so names resolve to
// equivalent objects across engine instances.
func (vm *VM) BuiltinObjectName(o *objects.Object) string {
	return vm.builtinIdentities().byObj[o]
}

// BuiltinObjectByName resolves a qualified builtin name in this engine.
func (vm *VM) BuiltinObjectByName(name string) *objects.Object {
	return vm.builtinIdentities().byName[name]
}

// Output returns everything printed so far when no Stdout was provided.
func (vm *VM) Output() string { return vm.buf.String() }

// Global returns the global object.
func (vm *VM) Global() *objects.Object { return vm.global }

// SetHooks replaces the VM's hooks mid-run. Fault-injection harnesses use
// it to install hooks that violate internal invariants on purpose, to
// exercise the engine's recovery boundary.
func (vm *VM) SetHooks(h Hooks) { vm.hooks = h }

// Roots returns every root hidden class in creation order.
func (vm *VM) Roots() []*objects.HiddenClass { return vm.roots }

// Builtins returns the builtin-name → post-startup hidden class table.
func (vm *VM) Builtins() []BuiltinHC { return vm.builtinFinal }

// Vectors returns the ICVectors of all registered functions, in
// registration order (deterministic given deterministic execution).
func (vm *VM) Vectors() []*ic.Vector {
	out := make([]*ic.Vector, 0, len(vm.vectorOrder))
	out = append(out, vm.vectorOrder...)
	return out
}

// DumpICState renders every registered ICVector's current state — slot
// sites, access kinds, feedback states, and cached (hidden class, handler)
// entries — for debugging and tooling. Vectors with no populated slots are
// skipped.
func (vm *VM) DumpICState() string {
	var b bytes.Buffer
	for _, v := range vm.vectorOrder {
		populated := false
		for i := range v.Slots {
			if v.Slots[i].State != 0 {
				populated = true
				break
			}
		}
		if !populated {
			continue
		}
		b.WriteString(v.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// newRootHC creates a root hidden class and records it for extraction.
func (vm *VM) newRootHC(proto *objects.Object, creator objects.Creator) *objects.HiddenClass {
	hc := vm.Space.NewRootHC(proto, creator)
	vm.roots = append(vm.roots, hc)
	return hc
}

// finishStartup announces the post-startup hidden classes of the builtin
// objects to the hooks, which validates them in a Reuse run.
func (vm *VM) finishStartup() {
	if vm.hooks != nil {
		for _, b := range vm.builtinFinal {
			vm.hooks.OnHCCreated(objects.Creator{Builtin: b.Name}, nil, b.HC)
		}
	}
}

// namedBuiltin pairs a builtin object with its qualified name: the
// namespace objects (Math, console, ...) kept for post-startup
// registration, and every entry of the builtin identity registrations.
type namedBuiltin struct {
	Name string
	Obj  *objects.Object
}

// Registration is one registered program and the slot slab the
// ICVectors of its functions share. The slab holds a slot for every site
// of the program in WalkProtos order, so a site's ordinal in that walk
// indexes its slot; RIC resolves preloads through those ordinals.
type Registration struct {
	Prog *bytecode.Program
	Slab []ic.Slot
}

// RegisterProgram materializes ICVectors for every function in a compiled
// program. The slots of all its functions share one slab and the vectors
// one array, so registration allocates the same few blocks whatever the
// program's size. Each slot points at its site's entry in the proto's
// site table, which registration only reads. Loading a program that is
// already registered returns at once; functions registered earlier on
// their own keep their vectors, and their part of the slab goes unused.
func (vm *VM) RegisterProgram(prog *bytecode.Program) {
	if _, ok := vm.feedback[prog.Toplevel]; ok {
		// Registration covers a whole function tree, so every function
		// under a registered toplevel is registered too.
		return
	}
	nfuncs, nsites := 0, 0
	prog.Toplevel.WalkProtos(func(p *bytecode.FuncProto) {
		if _, ok := vm.feedback[p]; !ok {
			nfuncs++
		}
		nsites += len(p.Sites)
	})
	slab := make([]ic.Slot, nsites)
	vecs := make([]ic.Vector, nfuncs)
	vm.programs = append(vm.programs, Registration{Prog: prog, Slab: slab})
	prog.Toplevel.WalkProtos(func(p *bytecode.FuncProto) {
		n := len(p.Sites)
		slots := slab[:n:n]
		slab = slab[n:]
		for i := range slots {
			slots[i].SiteInfo = &p.Sites[i]
		}
		if _, ok := vm.feedback[p]; ok {
			return
		}
		v := &vecs[0]
		vecs = vecs[1:]
		*v = ic.Vector{FuncName: p.FunctionName(), Slots: slots}
		vm.feedback[p] = v
		vm.vectorOrder = append(vm.vectorOrder, v)
	})
}

// Registrations returns every registered program with its slot slab, in
// registration order.
func (vm *VM) Registrations() []Registration { return vm.programs }

// RunProgram executes a compiled script's toplevel with the global object
// as `this`.
func (vm *VM) RunProgram(prog *bytecode.Program) (objects.Value, error) {
	vm.RegisterProgram(prog)
	return vm.runFunction(prog.Toplevel, nil, objects.Obj(vm.global), nil)
}

// CallFunction invokes a callable value with an explicit receiver, for
// builtins like call/apply/forEach and for embedders.
func (vm *VM) CallFunction(fn objects.Value, this objects.Value, args []objects.Value) (objects.Value, error) {
	if !fn.IsCallable() {
		return objects.Undefined(), throwf("%s is not a function", fn.ToString())
	}
	fd := fn.Obj().Func()
	vm.Prof.Charge(profiler.CostCall)
	if fd.Native != nil {
		return fd.Native(vm, this, args)
	}
	proto := fd.Code.(*bytecode.FuncProto)
	return vm.runFunction(proto, fd.Ctx, this, args)
}

// frame is one activation record.
type frame struct {
	proto  *bytecode.FuncProto
	vec    *ic.Vector
	locals []objects.Value
	stack  []objects.Value
	ctx    *objects.Context
	this   objects.Value
	tries  []tryEntry
}

type tryEntry struct {
	catchPC    int
	catchSlot  int
	stackDepth int
}

// runFunction sets up a frame and interprets the function's bytecode.
func (vm *VM) runFunction(proto *bytecode.FuncProto, closure *objects.Context, this objects.Value, args []objects.Value) (objects.Value, error) {
	if vm.depth >= maxCallDepth {
		return objects.Undefined(), throwf("maximum call depth exceeded")
	}
	vm.depth++
	vm.callStack = append(vm.callStack, proto.CallLabel)
	defer func() {
		vm.depth--
		vm.callStack = vm.callStack[:len(vm.callStack)-1]
	}()

	vec := vm.feedback[proto]
	if vec == nil {
		// Function compiled outside a registered program (tests); build
		// its vector on demand.
		vm.RegisterProgram(&bytecode.Program{Script: proto.Script, Toplevel: proto})
		vec = vm.feedback[proto]
	}
	f := vm.acquireFrame(proto.NumLocals)
	f.proto = proto
	f.vec = vec
	f.this = this
	f.ctx = closure
	for i := 0; i < proto.NumParams && i < len(args); i++ {
		f.locals[i] = args[i]
	}
	if proto.NumCtxSlots > 0 {
		f.ctx = objects.NewContext(closure, proto.NumCtxSlots)
	}
	v, err := vm.exec(f)
	// Released only on the normal return path: a frame unwound by a panic
	// (recovered at the engine boundary) is dropped, never pooled.
	vm.releaseFrame(f)
	return v, err
}

// acquireFrame returns a zeroed frame with numLocals undefined locals,
// reusing pooled backing arrays when they are large enough.
func (vm *VM) acquireFrame(numLocals int) *frame {
	var f *frame
	if n := len(vm.framePool); n > 0 {
		f = vm.framePool[n-1]
		vm.framePool = vm.framePool[:n-1]
	} else {
		f = &frame{}
	}
	if cap(f.locals) >= numLocals {
		f.locals = f.locals[:numLocals]
		for i := range f.locals {
			f.locals[i] = objects.Value{}
		}
	} else {
		f.locals = make([]objects.Value, numLocals)
	}
	return f
}

// releaseFrame returns a frame to the pool. Value slices keep their
// capacity but drop object references so the pool never pins dead heap;
// the full capacity is cleared because popped entries beyond the final
// length are stale copies too.
func (vm *VM) releaseFrame(f *frame) {
	full := f.stack[:cap(f.stack)]
	for i := range full {
		full[i] = objects.Value{}
	}
	f.stack = f.stack[:0]
	f.tries = f.tries[:0]
	f.proto = nil
	f.vec = nil
	f.ctx = nil
	f.this = objects.Value{}
	vm.framePool = append(vm.framePool, f)
}

func (f *frame) push(v objects.Value) { f.stack = append(f.stack, v) }

func (f *frame) pop() objects.Value {
	v := f.stack[len(f.stack)-1]
	f.stack = f.stack[:len(f.stack)-1]
	return v
}

func (f *frame) peek() objects.Value { return f.stack[len(f.stack)-1] }

// exec is the interpreter loop. Every dispatched instruction charges
// CostOp; runtime helpers charge their own costs.
//
// The operand stack and locals live in function-local slice headers for
// the duration of the loop: pushes and pops then adjust a register-
// resident length instead of writing the frame's slice header back to the
// heap on every instruction (the dominant interpreter cost before this
// layout). The local header is synced back to f.stack at every exit so the
// frame pool retains the (possibly regrown) backing array; nothing reads
// f.stack while exec runs.
func (vm *VM) exec(f *frame) (objects.Value, error) {
	code := f.proto.Code
	consts := f.proto.Consts
	names := f.proto.Names
	locals := f.locals
	stack := f.stack
	prof := vm.Prof
	maxSteps := vm.maxSteps
	pc := 0
	// ops counts dispatched instructions; the CostOp charge is flushed in
	// one Charge call at every exec exit instead of per instruction. The
	// profiler category cannot change between dispatch points (IC-miss
	// sections open and close inside a single helper call), so the batched
	// total attributes identically to per-op charging.
	var ops uint64
	for pc < len(code) {
		op := bytecode.Op(code[pc])
		ops++
		if maxSteps > 0 {
			vm.steps++
			if vm.steps > maxSteps {
				f.stack = stack
				prof.Charge(ops * profiler.CostOp)
				return objects.Undefined(), &LimitError{Limit: "step budget"}
			}
		}
		var err error
		switch op {
		case bytecode.OpLoadConst:
			c := &consts[code[pc+1]]
			if c.Kind == bytecode.ConstString {
				stack = append(stack, objects.Str(c.Str))
			} else {
				stack = append(stack, objects.Num(c.Num))
			}
		case bytecode.OpLoadUndef:
			stack = append(stack, objects.Undefined())
		case bytecode.OpLoadNull:
			stack = append(stack, objects.Null())
		case bytecode.OpLoadTrue:
			stack = append(stack, objects.Bool(true))
		case bytecode.OpLoadFalse:
			stack = append(stack, objects.Bool(false))
		case bytecode.OpLoadThis:
			stack = append(stack, f.this)

		case bytecode.OpLoadLocal:
			stack = append(stack, locals[code[pc+1]])
		case bytecode.OpStoreLocal:
			locals[code[pc+1]] = stack[len(stack)-1]
		case bytecode.OpLoadCtx:
			stack = append(stack, f.ctx.At(int(code[pc+1])).Slots[code[pc+2]])
		case bytecode.OpStoreCtx:
			f.ctx.At(int(code[pc+1])).Slots[code[pc+2]] = stack[len(stack)-1]

		// The four named-access ops open-code the denormalized monomorphic
		// hit (hidden-class compare, direct field access, hit accounting)
		// in the dispatch loop itself, V8-style: the IC fast path runs
		// inline and only misses, polymorphic shapes, dictionaries, traced
		// handlers, and site observers call into the runtime helper. The
		// inline path performs exactly the accounting the helper's
		// equivalent branch would (Prof.Hit + EvICHit), so instruction
		// counts and traces are identical either way.
		case bytecode.OpLoadGlobal:
			slot := f.vec.Slot(int(code[pc+2]))
			if o := vm.global; vm.siteObs == nil && slot.State != ic.Megamorphic && !o.IsDictionary() {
				if e, idx := slot.Find(o.HC()); e != nil && e.Fast == ic.FastLoadField && !e.Preloaded {
					prof.Hit(idx, false)
					if vm.tr != nil {
						vm.emitAt(trace.EvICHit, slot.SiteInfo, slot.Name, int64(idx))
					}
					stack = append(stack, o.Slot(int(e.FastOffset)))
					pc += 3
					continue
				}
			}
			var v objects.Value
			v, err = vm.loadNamed(objects.Obj(vm.global), slot)
			if err == nil {
				stack = append(stack, v)
			}
		case bytecode.OpStoreGlobal:
			slot := f.vec.Slot(int(code[pc+2]))
			v := stack[len(stack)-1]
			if o := vm.global; vm.siteObs == nil && vm.storeObs == nil && slot.State != ic.Megamorphic && !o.IsDictionary() {
				if e, idx := slot.Find(o.HC()); e != nil && e.Fast == ic.FastStoreField && !e.Preloaded {
					prof.Hit(idx, false)
					if vm.tr != nil {
						vm.emitAt(trace.EvICHit, slot.SiteInfo, slot.Name, int64(idx))
					}
					o.SetSlot(int(e.FastOffset), v)
					vm.maybeInvalidateCtorHCID(o, slot.NameID)
					pc += 3
					continue
				}
			}
			err = vm.storeNamed(objects.Obj(vm.global), v, slot)
		case bytecode.OpDeclGlobal:
			vm.declGlobal(f.proto.NameIDs[code[pc+1]], names[code[pc+1]])

		case bytecode.OpLoadNamed:
			slot := f.vec.Slot(int(code[pc+2]))
			obj := stack[len(stack)-1]
			if o := obj.Obj(); o != nil && vm.siteObs == nil && slot.State != ic.Megamorphic && !o.IsDictionary() {
				if e, idx := slot.Find(o.HC()); e != nil && e.Fast == ic.FastLoadField && !e.Preloaded {
					prof.Hit(idx, false)
					if vm.tr != nil {
						vm.emitAt(trace.EvICHit, slot.SiteInfo, slot.Name, int64(idx))
					}
					stack[len(stack)-1] = o.Slot(int(e.FastOffset))
					pc += 3
					continue
				}
			}
			var v objects.Value
			v, err = vm.loadNamed(obj, slot)
			if err == nil {
				stack[len(stack)-1] = v
			} else {
				stack = stack[:len(stack)-1]
			}
		case bytecode.OpStoreNamed:
			slot := f.vec.Slot(int(code[pc+2]))
			v := stack[len(stack)-1]
			obj := stack[len(stack)-2]
			// The array `length` store bypasses the IC before the slot is
			// consulted, so it must bypass the inline path too.
			if o := obj.Obj(); o != nil && vm.siteObs == nil && vm.storeObs == nil && slot.State != ic.Megamorphic &&
				!o.IsDictionary() && !(o.IsArray() && slot.NameID == symtab.SymLength) {
				if e, idx := slot.Find(o.HC()); e != nil && e.Fast == ic.FastStoreField && !e.Preloaded {
					prof.Hit(idx, false)
					if vm.tr != nil {
						vm.emitAt(trace.EvICHit, slot.SiteInfo, slot.Name, int64(idx))
					}
					o.SetSlot(int(e.FastOffset), v)
					vm.maybeInvalidateCtorHCID(o, slot.NameID)
					stack[len(stack)-2] = v
					stack = stack[:len(stack)-1]
					pc += 3
					continue
				}
			}
			stack = stack[:len(stack)-2]
			err = vm.storeNamed(obj, v, slot)
			if err == nil {
				stack = append(stack, v)
			}
		case bytecode.OpLoadKeyed:
			// Inline monomorphic element hit, mirroring the helper's
			// LoadElement branch (same guards, same accounting) for the
			// non-preloaded case; everything else falls through to it.
			slot := f.vec.Slot(int(code[pc+1]))
			key := stack[len(stack)-1]
			obj := stack[len(stack)-2]
			if o := obj.Obj(); o != nil && vm.siteObs == nil && slot.State == ic.Monomorphic && !o.IsDictionary() {
				if idx, isIndex := arrayIndex(key); isIndex && o.IsArray() {
					if e := &slot.Entries[0]; e.HC == o.HC() && e.Fast == ic.FastLoadElement && !e.Preloaded {
						prof.Hit(0, false)
						if vm.tr != nil {
							vm.emitAt(trace.EvICHit, slot.SiteInfo, slot.Name, 0)
						}
						stack = stack[:len(stack)-2]
						stack = append(stack, o.Elem(idx))
						pc += 2
						continue
					}
				}
			}
			stack = stack[:len(stack)-2]
			var v objects.Value
			v, err = vm.loadKeyed(obj, key, slot)
			if err == nil {
				stack = append(stack, v)
			}
		case bytecode.OpStoreKeyed:
			v := stack[len(stack)-1]
			key := stack[len(stack)-2]
			obj := stack[len(stack)-3]
			stack = stack[:len(stack)-3]
			err = vm.storeKeyed(obj, key, v, f.vec.Slot(int(code[pc+1])))
			if err == nil {
				stack = append(stack, v)
			}
		case bytecode.OpDeleteNamed:
			obj := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			var ok bool
			ok, err = vm.deleteNamed(obj, names[code[pc+1]])
			if err == nil {
				stack = append(stack, objects.Bool(ok))
			}
		case bytecode.OpDeleteKeyed:
			key := stack[len(stack)-1]
			obj := stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			var ok bool
			ok, err = vm.deleteNamed(obj, key.ToString())
			if err == nil {
				stack = append(stack, objects.Bool(ok))
			}

		case bytecode.OpNewObject:
			prof.Alloc()
			stack = append(stack, objects.Obj(vm.Space.NewObject(vm.emptyObjectHC)))
		case bytecode.OpNewArray:
			n := int(code[pc+1])
			elems := make([]objects.Value, n)
			copy(elems, stack[len(stack)-n:])
			stack = stack[:len(stack)-n]
			prof.Alloc()
			stack = append(stack, objects.Obj(vm.Space.NewArray(vm.arrayHC, elems)))
		case bytecode.OpMakeClosure:
			nested := f.proto.Protos[code[pc+1]]
			prof.Alloc()
			fd := &objects.FunctionData{Name: nested.Name, Code: nested, Ctx: f.ctx}
			stack = append(stack, objects.Obj(vm.Space.NewFunction(vm.functionHC, fd)))

		case bytecode.OpAdd:
			b, a := stack[len(stack)-1], stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			// Objects convert through ToString (our ToPrimitive), so any
			// string or object operand makes + a concatenation.
			if a.IsNumber() && b.IsNumber() {
				stack = append(stack, objects.Num(a.Num()+b.Num()))
			} else if a.IsString() || b.IsString() || a.IsObject() || b.IsObject() {
				stack = append(stack, objects.Str(a.ToString()+b.ToString()))
			} else {
				stack = append(stack, objects.Num(a.ToNumber()+b.ToNumber()))
			}
		case bytecode.OpSub:
			b, a := stack[len(stack)-1], stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			stack = append(stack, objects.Num(a.ToNumber()-b.ToNumber()))
		case bytecode.OpMul:
			b, a := stack[len(stack)-1], stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			stack = append(stack, objects.Num(a.ToNumber()*b.ToNumber()))
		case bytecode.OpDiv:
			b, a := stack[len(stack)-1], stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			stack = append(stack, objects.Num(a.ToNumber()/b.ToNumber()))
		case bytecode.OpMod:
			b, a := stack[len(stack)-1], stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			stack = append(stack, objects.Num(math.Mod(a.ToNumber(), b.ToNumber())))
		case bytecode.OpNeg:
			stack[len(stack)-1] = objects.Num(-stack[len(stack)-1].ToNumber())
		case bytecode.OpNot:
			stack[len(stack)-1] = objects.Bool(!stack[len(stack)-1].Truthy())
		case bytecode.OpTypeOf:
			stack[len(stack)-1] = objects.Str(stack[len(stack)-1].TypeOf())
		case bytecode.OpBitAnd:
			b, a := stack[len(stack)-1], stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			stack = append(stack, objects.Num(float64(toInt32(a)&toInt32(b))))
		case bytecode.OpBitOr:
			b, a := stack[len(stack)-1], stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			stack = append(stack, objects.Num(float64(toInt32(a)|toInt32(b))))
		case bytecode.OpBitXor:
			b, a := stack[len(stack)-1], stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			stack = append(stack, objects.Num(float64(toInt32(a)^toInt32(b))))
		case bytecode.OpShl:
			b, a := stack[len(stack)-1], stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			stack = append(stack, objects.Num(float64(toInt32(a)<<(uint32(toInt32(b))&31))))
		case bytecode.OpShr:
			b, a := stack[len(stack)-1], stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			stack = append(stack, objects.Num(float64(toInt32(a)>>(uint32(toInt32(b))&31))))

		case bytecode.OpEq:
			b, a := stack[len(stack)-1], stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			stack = append(stack, objects.Bool(objects.LooseEquals(a, b)))
		case bytecode.OpNe:
			b, a := stack[len(stack)-1], stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			stack = append(stack, objects.Bool(!objects.LooseEquals(a, b)))
		case bytecode.OpStrictEq:
			b, a := stack[len(stack)-1], stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			stack = append(stack, objects.Bool(objects.StrictEquals(a, b)))
		case bytecode.OpStrictNe:
			b, a := stack[len(stack)-1], stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			stack = append(stack, objects.Bool(!objects.StrictEquals(a, b)))

		// The relational operators are open-coded per case: a shared helper
		// taking comparison closures costs two indirect calls per dispatch.
		// Two numbers, the common case, compare without conversion. IEEE
		// semantics make a separate NaN guard redundant — every ordered
		// comparison with a NaN operand is already false.
		case bytecode.OpLt:
			b, a := stack[len(stack)-1], stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			if a.IsNumber() && b.IsNumber() {
				stack = append(stack, objects.Bool(a.Num() < b.Num()))
			} else if a.IsString() && b.IsString() {
				stack = append(stack, objects.Bool(a.Str() < b.Str()))
			} else {
				stack = append(stack, objects.Bool(a.ToNumber() < b.ToNumber()))
			}
		case bytecode.OpLe:
			b, a := stack[len(stack)-1], stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			if a.IsNumber() && b.IsNumber() {
				stack = append(stack, objects.Bool(a.Num() <= b.Num()))
			} else if a.IsString() && b.IsString() {
				stack = append(stack, objects.Bool(a.Str() <= b.Str()))
			} else {
				stack = append(stack, objects.Bool(a.ToNumber() <= b.ToNumber()))
			}
		case bytecode.OpGt:
			b, a := stack[len(stack)-1], stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			if a.IsNumber() && b.IsNumber() {
				stack = append(stack, objects.Bool(a.Num() > b.Num()))
			} else if a.IsString() && b.IsString() {
				stack = append(stack, objects.Bool(a.Str() > b.Str()))
			} else {
				stack = append(stack, objects.Bool(a.ToNumber() > b.ToNumber()))
			}
		case bytecode.OpGe:
			b, a := stack[len(stack)-1], stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			if a.IsNumber() && b.IsNumber() {
				stack = append(stack, objects.Bool(a.Num() >= b.Num()))
			} else if a.IsString() && b.IsString() {
				stack = append(stack, objects.Bool(a.Str() >= b.Str()))
			} else {
				stack = append(stack, objects.Bool(a.ToNumber() >= b.ToNumber()))
			}
		case bytecode.OpIn:
			obj, key := stack[len(stack)-1], stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			var ok bool
			ok, err = vm.hasProperty(obj, key)
			if err == nil {
				stack = append(stack, objects.Bool(ok))
			}
		case bytecode.OpInstanceOf:
			ctor, obj := stack[len(stack)-1], stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			var ok bool
			ok, err = vm.instanceOf(obj, ctor)
			if err == nil {
				stack = append(stack, objects.Bool(ok))
			}

		case bytecode.OpPop:
			stack = stack[:len(stack)-1]
		case bytecode.OpDup:
			stack = append(stack, stack[len(stack)-1])
		case bytecode.OpDup2:
			n := len(stack)
			stack = append(stack, stack[n-2], stack[n-1])
		case bytecode.OpSwap:
			n := len(stack)
			stack[n-1], stack[n-2] = stack[n-2], stack[n-1]

		case bytecode.OpJump:
			pc = int(code[pc+1])
			continue
		case bytecode.OpJumpIfFalse:
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !v.Truthy() {
				pc = int(code[pc+1])
				continue
			}
		case bytecode.OpJumpIfTrue:
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v.Truthy() {
				pc = int(code[pc+1])
				continue
			}

		case bytecode.OpCall:
			argc := int(code[pc+1])
			argv := stack[len(stack)-argc:]
			fn := stack[len(stack)-argc-1]
			this := stack[len(stack)-argc-2]
			var v objects.Value
			// Interpreted callees get a view of the caller's stack as argv:
			// runFunction copies parameters into the callee's locals before
			// executing and never retains the slice, so no defensive copy —
			// and no allocation — is needed. Natives may retain args (bind,
			// apply), so they keep the copying path via CallFunction.
			if fo := fn.Obj(); fo != nil && fo.Func() != nil && fo.Func().Native == nil {
				fd := fo.Func()
				prof.Charge(profiler.CostCall)
				v, err = vm.runFunction(fd.Code.(*bytecode.FuncProto), fd.Ctx, this, argv)
			} else {
				args := make([]objects.Value, argc)
				copy(args, argv)
				v, err = vm.CallFunction(fn, this, args)
			}
			stack = stack[:len(stack)-argc-2]
			if err == nil {
				stack = append(stack, v)
			}
		case bytecode.OpNew:
			argc := int(code[pc+1])
			args := make([]objects.Value, argc)
			copy(args, stack[len(stack)-argc:])
			stack = stack[:len(stack)-argc]
			ctor := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			var v objects.Value
			v, err = vm.construct(ctor, args)
			if err == nil {
				stack = append(stack, v)
			}

		case bytecode.OpReturn:
			v := stack[len(stack)-1]
			f.stack = stack[:len(stack)-1]
			prof.Charge(ops * profiler.CostOp)
			return v, nil
		case bytecode.OpReturnUndef:
			f.stack = stack
			prof.Charge(ops * profiler.CostOp)
			return objects.Undefined(), nil

		case bytecode.OpForInKeys:
			subject := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			var keys []objects.Value
			if o := subject.Obj(); o != nil {
				for _, k := range o.OwnKeys() {
					keys = append(keys, objects.Str(k))
				}
			}
			prof.Alloc()
			stack = append(stack, objects.Obj(vm.Space.NewArray(vm.arrayHC, keys)))

		case bytecode.OpThrow:
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			err = &Thrown{Value: v}
		case bytecode.OpTryPush:
			f.tries = append(f.tries, tryEntry{
				catchPC:    int(code[pc+1]),
				catchSlot:  int(code[pc+2]),
				stackDepth: len(stack),
			})
		case bytecode.OpTryPop:
			f.tries = f.tries[:len(f.tries)-1]

		default:
			f.stack = stack
			prof.Charge(ops * profiler.CostOp)
			return objects.Undefined(), throwf("bad opcode %v at %d", op, pc)
		}

		if err != nil {
			thrown, ok := err.(*Thrown)
			if ok && thrown.Stack == nil {
				// First frame to see the exception: capture the
				// JavaScript call stack at the throw point.
				thrown.Stack = vm.captureStack()
			}
			if !ok || len(f.tries) == 0 {
				f.stack = stack
				prof.Charge(ops * profiler.CostOp)
				return objects.Undefined(), err
			}
			h := f.tries[len(f.tries)-1]
			f.tries = f.tries[:len(f.tries)-1]
			stack = stack[:h.stackDepth]
			locals[h.catchSlot] = thrown.Value
			pc = h.catchPC
			continue
		}
		pc += 1 + op.OperandCount()
	}
	f.stack = stack
	prof.Charge(ops * profiler.CostOp)
	return objects.Undefined(), nil
}

// captureStack snapshots the JavaScript call stack, innermost first,
// capped to keep pathological recursion readable.
func (vm *VM) captureStack() []string {
	const maxFrames = 20
	n := len(vm.callStack)
	frames := make([]string, 0, min(n, maxFrames))
	for i := n - 1; i >= 0 && len(frames) < maxFrames; i-- {
		frames = append(frames, vm.callStack[i])
	}
	return frames
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// toInt32 implements JavaScript ToInt32.
func toInt32(v objects.Value) int32 {
	f := v.ToNumber()
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return int32(int64(f))
}
