package analysis

import (
	"ricjs/internal/bytecode"
	"ricjs/internal/ic"
	"ricjs/internal/objects"
	"ricjs/internal/source"
)

// maxRounds bounds the global fixpoint. The abstract domains are finite
// (capped object sets, capped shape sets, monotone cells), so the fixpoint
// terminates on its own; the round cap is a defensive backstop that
// degrades to the global ⊤ instead of looping.
const maxRounds = 40

type ctxKey struct {
	owner *bytecode.FuncProto
	slot  int
}

type allocKey struct {
	fn *bytecode.FuncProto
	pc int
}

// fnInfo is the interprocedural summary of one compiled function: monotone
// cells for this/params/return that call transfers join into, plus
// reachability and escape flags.
type fnInfo struct {
	proto  *bytecode.FuncProto
	parent *bytecode.FuncProto
	// reachable functions are (re)interpreted every round.
	reachable bool
	// escaped functions may be called by statically-invisible callers:
	// this and params are ⊤ and the return value escapes.
	escaped bool
	this    *cell
	params  []*cell
	ret     *cell
	// leaders marks the pcs that begin a basic block (see blockLeaders).
	leaders []bool
}

// siteRecord accumulates, per object-access site, the receivers the
// abstract interpreter saw flowing into the access. Predictions are
// expanded from the receivers' final shape sets after the fixpoint, so
// mid-analysis records are never published stale.
type siteRecord struct {
	site    source.Site
	kind    ic.AccessKind
	name    string
	reached bool
	top     bool
	objs    *objSet
	// creatorStr caches creator's rendering; empty until first needed.
	creatorStr string
}

// creator returns the creator identity a transition triggered at this
// site carries, rendering it on first use only.
func (r *siteRecord) creator() string {
	if r.creatorStr == "" {
		r.creatorStr = objects.Creator{Site: r.site}.String()
	}
	return r.creatorStr
}

type analyzer struct {
	graph   *Graph
	shapeOf map[*objects.HiddenClass]*Shape

	objFor      map[*objects.Object]*absObj
	builtinObjs map[string]*absObj
	objs        []*absObj
	global      *absObj
	globalTop   bool

	progs   []*bytecode.Program
	scripts map[string]bool
	fns     map[*bytecode.FuncProto]*fnInfo
	fnOrder []*fnInfo

	ctxCells  map[ctxKey]*cell
	allocObjs map[allocKey]*absObj
	instances map[*bytecode.FuncProto]*absObj
	protoObjs map[*absObj]*absObj
	natObjs   map[string]*absObj

	sites map[source.Site]*siteRecord

	// undefLocals and topLocals are shared locals chunks: all undefined
	// (a function's entry) and all ⊤ (a catch handler's entry).
	undefLocals *localChunk
	topLocals   *localChunk
	// arena supplies every frame state and locals chunk runFn builds; it
	// is reset at the start of each runFn call.
	arena frameArena
	// states, inWork and work are runFn's per-pc leader states, worklist
	// membership flags and worklist, cleared and reused on every call.
	states []*frameState
	inWork []bool
	work   []int
	// succs backs the successor list step returns, which runFn consumes
	// before the next step.
	succs [2]succ

	// changed tracks whether any monotone structure grew this round.
	changed bool
}

// Analyze runs the static shape analysis over one or more compiled
// programs (a multi-script page analyzes them together, sharing the
// abstract global object) and returns the per-site predictions plus the
// static transition graph.
func Analyze(progs ...*bytecode.Program) *Result {
	a := &analyzer{
		graph:       newGraph(),
		shapeOf:     map[*objects.HiddenClass]*Shape{},
		objFor:      map[*objects.Object]*absObj{},
		builtinObjs: map[string]*absObj{},
		scripts:     map[string]bool{},
		fns:         map[*bytecode.FuncProto]*fnInfo{},
		ctxCells:    map[ctxKey]*cell{},
		allocObjs:   map[allocKey]*absObj{},
		instances:   map[*bytecode.FuncProto]*absObj{},
		protoObjs:   map[*absObj]*absObj{},
		natObjs:     map[string]*absObj{},
		sites:       map[source.Site]*siteRecord{},
		undefLocals: filledChunk(primVal(pUndef)),
		topLocals:   filledChunk(topVal),
	}
	a.seed()
	for _, p := range progs {
		if p == nil || p.Toplevel == nil {
			continue
		}
		a.progs = append(a.progs, p)
		a.scripts[p.Script] = true
		a.collect(p.Toplevel, nil)
		top := a.fns[p.Toplevel]
		top.reachable = true
		top.this.update(objVal(a.global))
	}
	a.fixpoint()
	return a.buildResult()
}

func (a *analyzer) newObj(label string) *absObj {
	o := &absObj{id: len(a.objs), label: label}
	a.objs = append(a.objs, o)
	return o
}

func (a *analyzer) collect(p *bytecode.FuncProto, parent *bytecode.FuncProto) {
	fi := &fnInfo{proto: p, parent: parent, this: newCell(), ret: newCell(), leaders: blockLeaders(p.Code)}
	fi.params = make([]*cell, p.NumParams)
	for i := range fi.params {
		fi.params[i] = newCell()
	}
	a.fns[p] = fi
	a.fnOrder = append(a.fnOrder, fi)
	// Pre-register every site so never-reached ones surface as Dead
	// predictions instead of being silently absent.
	for _, si := range p.Sites {
		a.siteRecFor(si)
	}
	for _, child := range p.Protos {
		a.collect(child, p)
	}
}

func (a *analyzer) fixpoint() {
	for round := 0; ; round++ {
		if round >= maxRounds || a.graph.overflowed() {
			a.globalTop = true
			return
		}
		a.changed = false
		for _, fi := range a.fnOrder {
			if fi.reachable {
				a.runFn(fi)
			}
		}
		if !a.changed {
			return
		}
	}
}

// ---- Monotone update helpers (all route through a.changed) ----

func (a *analyzer) upd(c *cell, v absVal) {
	if c.update(v) {
		a.changed = true
	}
}

func (a *analyzer) shapeAdd(o *absObj, s *Shape) {
	if o.shapes.add(s) {
		a.changed = true
	}
	a.recordRoot(o, s.root)
}

// recordRoot notes that o may hold shapes of r's lineage. Root membership
// only grows and is read only after the fixpoint, so it does not drive
// a.changed.
func (a *analyzer) recordRoot(o *absObj, r *Shape) {
	if r != nil {
		o.roots, _ = insertSorted(o.roots, r)
	}
}

func (a *analyzer) addProto(o, p *absObj) {
	if p == nil {
		if !o.protoTop {
			o.protoTop = true
			a.changed = true
		}
		return
	}
	if o.addProto(p) {
		a.changed = true
	}
}

// escapeVal marks every object in a value as escaped: it flowed into ⊤,
// so statically-invisible code may mutate it arbitrarily from now on.
func (a *analyzer) escapeVal(v absVal) {
	for _, o := range v.objsSorted() {
		a.escapeObj(o)
	}
}

func (a *analyzer) escapeAll(vs []absVal) {
	for _, v := range vs {
		a.escapeVal(v)
	}
}

// escapeObj implements the ⊤-closure invariant: an escaped object has an
// unknown shape history (shapes ⊤), and everything reachable from it —
// field values, elements, prototypes — escapes with it. Escaped functions
// may be called by unknown code with unknown arguments.
func (a *analyzer) escapeObj(o *absObj) {
	if o == nil || o.escaped {
		return
	}
	o.escaped = true
	a.changed = true
	o.shapes.widen()
	for _, name := range o.fieldNames() {
		a.escapeVal(o.fields[name].get())
	}
	if o.unknown != nil {
		a.escapeVal(o.unknown.get())
	}
	if o.elems != nil {
		a.escapeVal(o.elems.get())
	}
	for _, p := range o.protos {
		a.escapeObj(p)
	}
	if po := a.protoObjs[o]; po != nil {
		a.escapeObj(po)
	}
	a.escapeFn(o)
}

// escapeFn marks the function a closure wraps as callable by unknown code.
func (a *analyzer) escapeFn(o *absObj) {
	if o.fn == nil {
		return
	}
	fi := a.fns[o.fn]
	if fi == nil {
		return
	}
	if !fi.reachable {
		fi.reachable = true
		a.changed = true
	}
	if !fi.escaped {
		fi.escaped = true
		a.changed = true
		a.escapeVal(fi.ret.get())
	}
	a.upd(fi.this, topVal)
	for _, pc := range fi.params {
		a.upd(pc, topVal)
	}
}

// ---- Site records ----

func (a *analyzer) siteRecFor(si bytecode.SiteInfo) *siteRecord {
	rec := a.sites[si.Site]
	if rec == nil {
		rec = &siteRecord{site: si.Site, kind: si.Kind, name: si.Name}
		a.sites[si.Site] = rec
	}
	return rec
}

// recordSite notes the receivers flowing into an access site.
func (a *analyzer) recordSite(si bytecode.SiteInfo, recv absVal) *siteRecord {
	rec := a.siteRecFor(si)
	if !rec.reached {
		rec.reached = true
		a.changed = true
	}
	if recv.top && !rec.top {
		rec.top = true
		a.changed = true
	}
	if objs := rec.objs.union(recv.objs); objs != rec.objs {
		rec.objs = objs
		a.changed = true
	}
	return rec
}

// ---- Lexical context slots ----

// ctxOwner resolves a (depth) context reference to the proto owning the
// context, mirroring the VM's chain walk: depth 0 is the nearest enclosing
// context-allocating function, self included.
func (a *analyzer) ctxOwner(p *bytecode.FuncProto, depth int) *bytecode.FuncProto {
	for cur := p; cur != nil; {
		if cur.NumCtxSlots > 0 {
			if depth == 0 {
				return cur
			}
			depth--
		}
		fi := a.fns[cur]
		if fi == nil {
			return nil
		}
		cur = fi.parent
	}
	return nil
}

func (a *analyzer) ctxCell(owner *bytecode.FuncProto, slot int) *cell {
	k := ctxKey{owner, slot}
	c := a.ctxCells[k]
	if c == nil {
		c = newCell()
		a.ctxCells[k] = c
	}
	return c
}

// ---- Allocation-site objects ----

func (a *analyzer) allocObj(fi *fnInfo, pc int, mk func() *absObj) *absObj {
	k := allocKey{fi.proto, pc}
	o := a.allocObjs[k]
	if o == nil {
		o = mk()
		a.allocObjs[k] = o
		a.changed = true
	}
	return o
}

// natObj returns a shared summary object for a native's results (e.g. the
// array Array.prototype.slice produces), keyed by model name.
func (a *analyzer) natObj(key string, mk func() *absObj) *absObj {
	o := a.natObjs[key]
	if o == nil {
		o = mk()
		a.natObjs[key] = o
		a.changed = true
	}
	return o
}

// ---- Per-function abstract interpretation ----

// localChunkSize is the number of locals in one copy-on-write chunk.
const localChunkSize = 32

// localChunk is a fixed-size run of a frame's locals. Frame states share
// chunks and copy one only when they write to it. owner is the one state
// allowed to write the chunk in place; it is nil once the chunk is shared.
// A chunk with a non-nil owner is referenced by its owner alone.
type localChunk struct {
	owner *frameState
	vals  [localChunkSize]absVal
}

// filledChunk returns an unowned chunk holding v in every slot, for states
// to share until they write.
func filledChunk(v absVal) *localChunk {
	c := &localChunk{}
	for i := range c.vals {
		c.vals[i] = v
	}
	return c
}

// frameState is the flow-sensitive abstract machine state at a block
// leader, or at the current pc for the working state: operand stack plus
// locals. Locals get strong updates (StoreLocal overwrites); everything
// heap-shaped is weak.
type frameState struct {
	stack   []absVal
	chunks  []*localChunk
	nlocals int
	// arena is the region the state came from; its clones and the chunks
	// it copies on write come from the same region.
	arena *frameArena
}

// frameArena is the region frame states and locals chunks are allocated
// from. Nothing a runFn call builds for its frames outlives the call —
// cells, site records and object fields hold absVals by value, and
// frameState and localChunk pointers live only in runFn's leader states,
// its worklist and the analyzer's successor buffer — so runFn resets the
// arena on entry and every state and chunk of the previous call is
// recycled. A recycled state keeps the capacity of its stack and chunk
// slices; a recycled chunk is overwritten in full before use.
type frameArena struct {
	states  []*frameState
	nstates int
	chunks  []*localChunk
	nchunks int
}

// poisonFrameArena makes reset fill every recycled stack slot and chunk
// with ⊤, so a state or chunk that outlived its runFn call, or a recycled
// one read before it is overwritten, changes the analysis result. Only
// tests set it, before any analysis runs.
var poisonFrameArena bool

// reset recycles every state and chunk allocated since the last reset.
func (ar *frameArena) reset() {
	if poisonFrameArena {
		for _, st := range ar.states[:ar.nstates] {
			stack := st.stack[:cap(st.stack)]
			for i := range stack {
				stack[i] = topVal
			}
		}
		for _, c := range ar.chunks[:ar.nchunks] {
			c.owner = nil
			for i := range c.vals {
				c.vals[i] = topVal
			}
		}
	}
	ar.nstates, ar.nchunks = 0, 0
}

// state returns a recycled or new state with an empty stack and no
// chunks.
func (ar *frameArena) state() *frameState {
	if ar.nstates == len(ar.states) {
		ar.states = append(ar.states, &frameState{arena: ar})
	}
	st := ar.states[ar.nstates]
	ar.nstates++
	st.stack = st.stack[:0]
	st.chunks = st.chunks[:0]
	return st
}

// chunk returns a recycled or new chunk owned by st. Its values are stale:
// the caller overwrites all of them.
func (ar *frameArena) chunk(st *frameState) *localChunk {
	if ar.nchunks == len(ar.chunks) {
		ar.chunks = append(ar.chunks, &localChunk{})
	}
	c := ar.chunks[ar.nchunks]
	ar.nchunks++
	c.owner = st
	return c
}

// newFrameState returns a state with n locals, every chunk of which is
// the shared chunk fill.
func (ar *frameArena) newFrameState(n int, fill *localChunk) *frameState {
	st := ar.state()
	st.nlocals = n
	for i := 0; i < (n+localChunkSize-1)/localChunkSize; i++ {
		st.chunks = append(st.chunks, fill)
	}
	return st
}

// clone returns a copy of st that shares all of its locals chunks. Neither
// state may then write a shared chunk in place: the first to write one
// copies it.
func (st *frameState) clone() *frameState {
	for _, c := range st.chunks {
		c.owner = nil
	}
	cp := st.arena.state()
	cp.stack = append(cp.stack, st.stack...)
	cp.chunks = append(cp.chunks, st.chunks...)
	cp.nlocals = st.nlocals
	return cp
}

// local returns local i, or ⊤ for an index outside the frame.
func (st *frameState) local(i int) absVal {
	if i < 0 || i >= st.nlocals {
		return topVal
	}
	return st.chunks[i/localChunkSize].vals[i%localChunkSize]
}

// setLocal overwrites local i, copying its chunk first if it is shared.
// Indexes outside the frame are ignored.
func (st *frameState) setLocal(i int, v absVal) {
	if i < 0 || i >= st.nlocals {
		return
	}
	st.writable(i / localChunkSize).vals[i%localChunkSize] = v
}

// writable returns chunk ci for writing in place, copying it first unless
// st owns it.
func (st *frameState) writable(ci int) *localChunk {
	c := st.chunks[ci]
	if c.owner != st {
		cp := st.arena.chunk(st)
		cp.vals = c.vals
		st.chunks[ci] = cp
		c = cp
	}
	return c
}

func (st *frameState) push(v absVal) { st.stack = append(st.stack, v) }

func (st *frameState) pop() absVal {
	if len(st.stack) == 0 {
		return topVal
	}
	v := st.stack[len(st.stack)-1]
	st.stack = st.stack[:len(st.stack)-1]
	return v
}

func (st *frameState) peek() absVal {
	if len(st.stack) == 0 {
		return topVal
	}
	return st.stack[len(st.stack)-1]
}

// succ is one control-flow successor of an instruction: a target pc and
// the state flowing into it.
type succ struct {
	pc int
	st *frameState
}

// mergeState joins src into states[pc], reporting growth. Chunks the two
// states share are equal and skipped; a chunk that grows is copied first
// unless the target state owns it. Inconsistent stack depths cannot come
// out of our compiler; if they ever do, the analysis degrades to the
// global ⊤ rather than guessing.
func (a *analyzer) mergeState(states []*frameState, pc int, src *frameState) bool {
	if pc < 0 || pc >= len(states) {
		return false
	}
	cur := states[pc]
	if cur == nil {
		states[pc] = src.clone()
		return true
	}
	if len(cur.stack) != len(src.stack) || cur.nlocals != src.nlocals {
		a.globalTop = true
		return false
	}
	grew := false
	for i := range cur.stack {
		if !src.stack[i].leq(cur.stack[i]) {
			cur.stack[i] = cur.stack[i].join(src.stack[i])
			grew = true
		}
	}
	for ci, sc := range src.chunks {
		cc := cur.chunks[ci]
		if cc == sc {
			continue
		}
		// Slots past nlocals in the last chunk are fill, never read.
		n := min(localChunkSize, cur.nlocals-ci*localChunkSize)
		for j := 0; j < n; j++ {
			if sc.vals[j].leq(cc.vals[j]) {
				continue
			}
			grew = true
			if cc.owner != cur && chunkLeq(cc, sc, n) {
				// The join is src's chunk itself: share it rather than
				// copy, so later merges from states holding it skip it.
				sc.owner = nil
				cur.chunks[ci] = sc
				break
			}
			cc = cur.writable(ci)
			cc.vals[j] = cc.vals[j].join(sc.vals[j])
		}
	}
	return grew
}

// chunkLeq reports whether the first n slots of c are ⊑ those of d.
func chunkLeq(c, d *localChunk, n int) bool {
	for j := 0; j < n; j++ {
		if !c.vals[j].leq(d.vals[j]) {
			return false
		}
	}
	return true
}

// blockLeaders marks the pcs that begin a basic block: the entry, every
// jump and TryPush target, and the instruction after a branch, TryPush,
// Return, ReturnUndef or Throw.
func blockLeaders(code []uint32) []bool {
	lead := make([]bool, len(code))
	mark := func(pc int) {
		if pc < len(code) {
			lead[pc] = true
		}
	}
	operand := func(at int) int {
		if at < len(code) {
			return int(code[at])
		}
		return 0
	}
	mark(0)
	for pc := 0; pc < len(code); {
		op := bytecode.Op(code[pc])
		next := pc + 1 + op.OperandCount()
		switch op {
		case bytecode.OpJump, bytecode.OpJumpIfFalse, bytecode.OpJumpIfTrue, bytecode.OpTryPush:
			mark(operand(pc + 1))
			mark(next)
		case bytecode.OpFusedLtJumpIfFalse:
			mark(operand(pc + 2))
			mark(next)
		case bytecode.OpReturn, bytecode.OpReturnUndef, bytecode.OpThrow:
			mark(next)
		}
		pc = next
	}
	return lead
}

// runFn interprets one function to its local fixpoint, given the current
// interprocedural summaries. The global fixpoint reruns it whenever
// anything it depends on grows.
//
// States live only at block leaders. A worklist entry runs its block on
// one working state, in place, for as long as control falls through to a
// non-leader; where it leaves the block, the working state is joined into
// each successor's state, and successors that grew are pushed in the
// order step returned them.
func (a *analyzer) runFn(fi *fnInfo) {
	proto := fi.proto
	code := proto.Code
	n := len(code)
	if n == 0 {
		return
	}
	a.arena.reset()
	entry := a.arena.newFrameState(proto.NumLocals, a.undefLocals)
	for i := 0; i < proto.NumParams && i < proto.NumLocals; i++ {
		// Strong set, not join: missing-argument undefined is already
		// accounted in the param cell by every call transfer, so seeding
		// pUndef here would taint params that are always passed.
		entry.setLocal(i, fi.params[i].get())
	}
	states := resized(a.states, n)
	inWork := resized(a.inWork, n)
	a.states, a.inWork = states, inWork
	states[0] = entry
	inWork[0] = true
	work := append(a.work[:0], 0)
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[pc] = false
		st := states[pc].clone()
		for {
			succs := a.step(fi, pc, st)
			next := pc + 1 + bytecode.Op(code[pc]).OperandCount()
			if len(succs) == 1 && succs[0].pc == next && succs[0].st == st && next < n && !fi.leaders[next] {
				pc = next
				continue
			}
			for _, s := range succs {
				if a.mergeState(states, s.pc, s.st) && !inWork[s.pc] {
					inWork[s.pc] = true
					work = append(work, s.pc)
				}
			}
			break
		}
	}
	a.work = work
}

// resized returns s with length n and every element zero, reusing its
// backing array when it is large enough.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
