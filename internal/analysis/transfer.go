package analysis

import (
	"fmt"

	"ricjs/internal/bytecode"
	"ricjs/internal/objects"
	"ricjs/internal/source"
)

// step executes the abstract transfer function of the instruction at pc
// and returns its control-flow successors. The switch is exhaustive over
// every bytecode.Op — the opcheck linter enforces that a newly added
// opcode gets a transfer function here.
func (a *analyzer) step(fi *fnInfo, pc int, st *frameState) []succ {
	proto := fi.proto
	code := proto.Code
	op := bytecode.Op(code[pc])
	next := pc + 1 + op.OperandCount()
	arg := func(i int) int {
		if pc+i < len(code) {
			return int(code[pc+i])
		}
		return 0
	}
	siteAt := func(i int) (bytecode.SiteInfo, bool) {
		idx := arg(i)
		if idx < len(proto.Sites) {
			return proto.Sites[idx], true
		}
		return bytecode.SiteInfo{}, false
	}
	// Successor lists live in a.succs, so stepping allocates none.
	out := a.succs[:0]
	one := func() []succ { return append(out, succ{next, st}) }

	switch op {

	// ---- Constants and frame-local data flow ----

	case bytecode.OpLoadConst:
		kind := absVal(primVal(pNum))
		if idx := arg(1); idx < len(proto.Consts) {
			switch c := proto.Consts[idx]; c.Kind {
			case bytecode.ConstString:
				kind = primVal(pStr)
			case bytecode.ConstNumber:
				kind = primVal(numKind(c.Num))
			}
		}
		st.push(kind)
		return one()
	case bytecode.OpLoadUndef, bytecode.OpLoadNull,
		bytecode.OpLoadTrue, bytecode.OpLoadFalse:
		st.push(primVal(fixedOpKind(op)))
		return one()
	case bytecode.OpLoadThis:
		st.push(fi.this.get())
		return one()
	case bytecode.OpLoadLocal:
		st.push(st.local(arg(1)))
		return one()
	case bytecode.OpStoreLocal:
		// Locals are frame-private, so this is a strong (flow-sensitive)
		// update — the one place the analysis kills information.
		st.setLocal(arg(1), st.peek())
		return one()

	// ---- Lexical context slots (weak: one cell per (owner, slot)) ----

	case bytecode.OpLoadCtx:
		owner := a.ctxOwner(proto, arg(1))
		if owner == nil {
			st.push(topVal)
		} else {
			st.push(a.ctxCell(owner, arg(2)).get().join(primVal(pUndef)))
		}
		return one()
	case bytecode.OpStoreCtx:
		v := st.peek()
		if owner := a.ctxOwner(proto, arg(1)); owner != nil {
			a.upd(a.ctxCell(owner, arg(2)), v)
		} else {
			a.escapeVal(v)
		}
		return one()

	// ---- Globals: precise fields on the shapes-⊤ global object ----

	case bytecode.OpLoadGlobal:
		if si, ok := siteAt(2); ok {
			st.push(a.loadNamed(si, objVal(a.global)))
		} else {
			st.push(topVal)
		}
		return one()
	case bytecode.OpStoreGlobal:
		if si, ok := siteAt(2); ok {
			a.storeNamed(si, objVal(a.global), st.peek())
		} else {
			a.escapeVal(st.peek())
		}
		return one()
	case bytecode.OpDeclGlobal:
		if idx := arg(1); idx < len(proto.Names) {
			a.upd(a.global.field(proto.Names[idx]), primVal(pUndef))
		}
		return one()

	// ---- Object property access (the sites the analysis predicts) ----

	case bytecode.OpLoadNamed:
		recv := st.pop()
		if si, ok := siteAt(2); ok {
			st.push(a.loadNamed(si, recv))
		} else {
			st.push(topVal)
		}
		return one()
	case bytecode.OpStoreNamed:
		v := st.pop()
		recv := st.pop()
		if si, ok := siteAt(2); ok {
			a.storeNamed(si, recv, v)
		} else {
			a.escapeVal(v)
			a.escapeVal(recv)
		}
		st.push(v)
		return one()
	case bytecode.OpLoadKeyed:
		key := st.pop()
		recv := st.pop()
		if si, ok := siteAt(1); ok {
			st.push(a.loadKeyed(si, recv, key))
		} else {
			st.push(topVal)
		}
		return one()
	case bytecode.OpStoreKeyed:
		v := st.pop()
		key := st.pop()
		recv := st.pop()
		if si, ok := siteAt(1); ok {
			a.storeKeyed(si, recv, key, v)
		} else {
			a.escapeVal(v)
			a.escapeVal(recv)
		}
		st.push(v)
		return one()
	case bytecode.OpDeleteNamed:
		a.deleteOn(st.pop())
		st.push(primVal(pBool))
		return one()
	case bytecode.OpDeleteKeyed:
		st.pop() // key
		a.deleteOn(st.pop())
		st.push(primVal(pBool))
		return one()

	// ---- Allocation ----

	case bytecode.OpNewObject:
		o := a.allocObj(fi, pc, func() *absObj {
			no := a.newObj(fmt.Sprintf("obj@%s+%d", proto.FunctionName(), pc))
			a.rootShapeOn(no, "EmptyObject")
			a.addProto(no, a.builtinObjs["Object.prototype"])
			return no
		})
		st.push(objVal(o))
		return one()
	case bytecode.OpNewArray:
		elems := st.popN(arg(1))
		o := a.allocObj(fi, pc, func() *absObj {
			no := a.newObj(fmt.Sprintf("arr@%s+%d", proto.FunctionName(), pc))
			no.isArray = true
			a.rootShapeOn(no, "Array")
			a.addProto(no, a.builtinObjs["Array.prototype"])
			return no
		})
		for _, e := range elems {
			a.upd(o.elemCell(), e)
		}
		st.push(objVal(o))
		return one()
	case bytecode.OpMakeClosure:
		idx := arg(1)
		if idx >= len(proto.Protos) {
			st.push(topVal)
			return one()
		}
		nested := proto.Protos[idx]
		o := a.allocObj(fi, pc, func() *absObj {
			no := a.newObj("fn " + nested.FunctionName())
			no.isFunc = true
			no.fn = nested
			a.rootShapeOn(no, "Function")
			a.addProto(no, a.builtinObjs["Function.prototype"])
			return no
		})
		st.push(objVal(o))
		return one()

	// ---- Arithmetic, logic, comparison ----

	case bytecode.OpAdd:
		b := st.pop()
		x := st.pop()
		st.push(addVal(x, b))
		return one()
	case bytecode.OpSub, bytecode.OpMul, bytecode.OpDiv, bytecode.OpMod,
		bytecode.OpBitAnd, bytecode.OpBitOr, bytecode.OpBitXor,
		bytecode.OpShl, bytecode.OpShr,
		bytecode.OpEq, bytecode.OpNe, bytecode.OpStrictEq, bytecode.OpStrictNe,
		bytecode.OpLt, bytecode.OpLe, bytecode.OpGt, bytecode.OpGe,
		bytecode.OpIn, bytecode.OpInstanceOf:
		// Binary ops with a result kind fixed by the opcode: arithmetic is
		// any-number, the ToInt32 bit ops are SmallInt, comparisons are
		// boolean. opValueKind is the single source of truth.
		st.pop()
		st.pop()
		st.push(primVal(fixedOpKind(op)))
		return one()
	case bytecode.OpNeg, bytecode.OpNot, bytecode.OpTypeOf:
		st.pop()
		st.push(primVal(fixedOpKind(op)))
		return one()

	// ---- Stack shuffling ----

	case bytecode.OpPop:
		st.pop()
		return one()
	case bytecode.OpDup:
		st.push(st.peek())
		return one()
	case bytecode.OpDup2:
		b := st.pop()
		x := st.pop()
		st.push(x)
		st.push(b)
		st.push(x)
		st.push(b)
		return one()
	case bytecode.OpSwap:
		b := st.pop()
		x := st.pop()
		st.push(b)
		st.push(x)
		return one()

	// ---- Control flow ----

	case bytecode.OpJump:
		return append(out, succ{arg(1), st})
	case bytecode.OpJumpIfFalse:
		st.pop()
		return append(out, succ{arg(1), st}, succ{next, st})
	case bytecode.OpJumpIfTrue:
		st.pop()
		return append(out, succ{arg(1), st}, succ{next, st})

	// ---- Calls ----

	case bytecode.OpCall:
		args := st.popN(arg(1))
		fnv := st.pop()
		thisv := st.pop()
		st.push(a.call(fnv, thisv, args))
		return one()
	case bytecode.OpNew:
		args := st.popN(arg(1))
		ctor := st.pop()
		st.push(a.construct(ctor, args))
		return one()
	case bytecode.OpReturn:
		v := st.pop()
		a.upd(fi.ret, v)
		if fi.escaped {
			a.escapeVal(v)
		}
		return nil
	case bytecode.OpReturnUndef:
		a.upd(fi.ret, primVal(pUndef))
		return nil

	// ---- Iteration and exceptions ----

	case bytecode.OpForInKeys:
		st.pop()
		o := a.allocObj(fi, pc, func() *absObj {
			no := a.newObj(fmt.Sprintf("keys@%s+%d", proto.FunctionName(), pc))
			no.isArray = true
			a.rootShapeOn(no, "Array")
			a.addProto(no, a.builtinObjs["Array.prototype"])
			return no
		})
		a.upd(o.elemCell(), primVal(pStr))
		st.push(objVal(o))
		return one()
	case bytecode.OpThrow:
		// The thrown value reaches the catch handler with ⊤ locals, i.e.
		// statically-unknown code; it must escape to keep mutations of it
		// covered by ⊤.
		a.escapeVal(st.pop())
		return nil
	case bytecode.OpTryPush:
		// The catch entry inherits the protected region's stack depth but
		// joins locals from every point inside the try body; ⊤ locals
		// over-approximate that soundly (and cover the exception slot).
		catch := a.arena.newFrameState(st.nlocals, a.topLocals)
		catch.stack = append(catch.stack, st.stack...)
		return append(out, succ{next, st}, succ{arg(1), catch})
	case bytecode.OpTryPop:
		return one()

	// ---- Runtime overlay (quickened and fused opcodes) ----
	//
	// The analysis runs over the immutable FuncProto.Code, which never
	// carries these: the VM writes them only into its private executable
	// copy. The cases delegate to the base sequence each overlay op
	// rewrites, so the transfer stays correct for any consumer that does
	// feed overlay code in — and the instruction-set linter proves the
	// set is handled.

	case bytecode.OpLoadNamedMonoFast, bytecode.OpLoadNamedTypedFast:
		// Quickened OpLoadNamed: operand 1 is the baked offset, but the
		// feedback-slot operand — and thus the site info — is unchanged.
		recv := st.pop()
		if si, ok := siteAt(2); ok {
			st.push(a.loadNamed(si, recv))
		} else {
			st.push(topVal)
		}
		return one()
	case bytecode.OpStoreNamedMonoFast:
		v := st.pop()
		recv := st.pop()
		if si, ok := siteAt(2); ok {
			a.storeNamed(si, recv, v)
		} else {
			a.escapeVal(v)
			a.escapeVal(recv)
		}
		st.push(v)
		return one()
	case bytecode.OpLoadGlobalMonoFast:
		if si, ok := siteAt(2); ok {
			st.push(a.loadNamed(si, objVal(a.global)))
		} else {
			st.push(topVal)
		}
		return one()
	case bytecode.OpLoadKeyedElemFast:
		key := st.pop()
		recv := st.pop()
		if si, ok := siteAt(1); ok {
			st.push(a.loadKeyed(si, recv, key))
		} else {
			st.push(topVal)
		}
		return one()
	case bytecode.OpFusedLoadLocalLoadNamed:
		// OpLoadLocal i, then OpLoadNamed with its site operand at word 4.
		recv := st.local(arg(1))
		if si, ok := siteAt(4); ok {
			st.push(a.loadNamed(si, recv))
		} else {
			st.push(topVal)
		}
		return one()
	case bytecode.OpFusedDupStoreNamed:
		// OpDup, then OpStoreNamed with its site operand at word 3.
		st.push(st.peek())
		v := st.pop()
		recv := st.pop()
		if si, ok := siteAt(3); ok {
			a.storeNamed(si, recv, v)
		} else {
			a.escapeVal(v)
			a.escapeVal(recv)
		}
		st.push(v)
		return one()
	case bytecode.OpFusedLtJumpIfFalse:
		// OpLt, then OpJumpIfFalse consuming the comparison result.
		st.pop()
		st.pop()
		return append(out, succ{arg(2), st}, succ{next, st})
	}

	// Unknown opcode: degrade soundly rather than guess a stack effect.
	a.globalTop = true
	return nil
}

func (st *frameState) popN(n int) []absVal {
	out := make([]absVal, n)
	for i := n - 1; i >= 0; i-- {
		out[i] = st.pop()
	}
	return out
}

// addVal models JS + : concatenation when either operand may be a string
// or object, numeric addition otherwise.
func addVal(x, y absVal) absVal {
	if x.top || y.top || x.prims&pStr != 0 || y.prims&pStr != 0 ||
		x.objs != nil || y.objs != nil {
		return primVal(pStr | pNum)
	}
	return primVal(pNum)
}

// rootShapeOn seeds a freshly allocated object with the builtin root shape
// the runtime allocates it with (EmptyObject, Array, Function).
func (a *analyzer) rootShapeOn(o *absObj, builtin string) {
	if s := a.graph.Builtin(builtin); s != nil {
		a.shapeAdd(o, s)
	} else if !o.shapes.top {
		o.shapes.widen()
		a.changed = true
	}
}

// ---- Named access ----

func (a *analyzer) loadNamed(si bytecode.SiteInfo, recv absVal) absVal {
	rec := a.recordSite(si, recv)
	if recv.top {
		return topVal
	}
	var out absVal
	if recv.prims&pStr != 0 {
		out = out.join(a.stringProp(si.Name))
	}
	if recv.prims&(pNum|pBool) != 0 {
		out = out.join(primVal(pUndef))
	}
	for _, o := range recv.objsSorted() {
		out = out.join(a.loadFromObj(o, si.Name, rec))
	}
	return out
}

// loadFromObj models a named load of name from o at the site rec.
func (a *analyzer) loadFromObj(o *absObj, name string, rec *siteRecord) absVal {
	if o.escaped {
		return topVal
	}
	if o.isArray && name == "length" {
		return primVal(pNum)
	}
	if o.isFunc && name == "prototype" {
		// Loading fn.prototype materializes the default prototype object
		// with the load site as the transition's creator (first-wins at
		// runtime; the static set accumulates every candidate).
		return a.fnPrototype(o, rec.creator()).get()
	}
	out := o.field(name).get()
	if o.unknown != nil {
		out = out.join(o.unknown.get())
	}
	out = out.join(primVal(pUndef))
	return out.join(a.protoLoad(o, name, map[*absObj]bool{o: true}))
}

// protoLoad joins every value name may resolve to along the prototype
// chain of o.
func (a *analyzer) protoLoad(o *absObj, name string, seen map[*absObj]bool) absVal {
	if o.protoTop {
		return topVal
	}
	var out absVal
	for _, p := range o.protos {
		if seen[p] {
			continue
		}
		seen[p] = true
		if p.escaped {
			return topVal
		}
		if p.isArray && name == "length" {
			out = out.join(primVal(pNum))
		}
		if c, ok := p.fields[name]; ok {
			out = out.join(c.get())
		}
		if p.unknown != nil {
			out = out.join(p.unknown.get())
		}
		out = out.join(a.protoLoad(p, name, seen))
	}
	return out
}

// stringProp models property access on string primitives, which bypasses
// the object heap entirely.
func (a *analyzer) stringProp(name string) absVal {
	if name == "length" {
		return primVal(pNum | pUndef)
	}
	out := primVal(pUndef)
	if m := a.builtinObjs["String.prototype."+name]; m != nil {
		out = out.join(objVal(m))
	}
	return out
}

func (a *analyzer) storeNamed(si bytecode.SiteInfo, recv, v absVal) {
	rec := a.recordSite(si, recv)
	if recv.top {
		a.escapeVal(v)
		return
	}
	for _, o := range recv.objsSorted() {
		if o.escaped {
			a.escapeVal(v)
			continue
		}
		if o.isArray && si.Name == "length" {
			continue // SetLen, not a property transition
		}
		a.upd(o.field(si.Name), v)
		a.storeTransition(o, si.Name, rec.creator())
	}
}

// storeTransition extends the shape set of o with the transition adding
// name, from every held shape that lacks it — the static analogue of the
// runtime's AddOwn. Widens to ⊤ past the per-object cap.
func (a *analyzer) storeTransition(o *absObj, name, creator string) {
	if o.shapes.top {
		return
	}
	// add replaces the set rather than modifying it, so this walks the
	// shapes held on entry even as transitions are added.
	for _, s := range o.shapes.sorted() {
		if s.HasField(name) {
			continue
		}
		t, grew := a.graph.Transition(s, name, creator)
		if grew {
			a.changed = true
		}
		a.shapeAdd(o, t)
	}
	if len(o.shapes.set) > maxObjShapes {
		o.shapes.widen()
		a.changed = true
	}
}

// fnPrototype models the runtime's lazy function-prototype creation: the
// function gains a "prototype" own property (shape transition with the
// given creator) holding an object whose shape is the FunctionPrototype
// root plus the "constructor" back-edge.
func (a *analyzer) fnPrototype(o *absObj, creator string) *cell {
	po := a.protoObjs[o]
	if po == nil {
		po = a.newObj(o.label + ".prototype")
		if root := a.graph.Builtin("FunctionPrototype"); root != nil {
			s, _ := a.graph.Transition(root, "constructor", "builtin:FunctionPrototype.constructor")
			a.shapeAdd(po, s)
		} else {
			po.shapes.widen()
		}
		po.field("constructor").update(objVal(o))
		a.addProto(po, a.builtinObjs["Object.prototype"])
		a.protoObjs[o] = po
		a.changed = true
	}
	if !o.escaped {
		a.storeTransition(o, "prototype", creator)
	}
	c := o.field("prototype")
	a.upd(c, objVal(po))
	return c
}

// ---- Keyed access ----

func (a *analyzer) loadKeyed(si bytecode.SiteInfo, recv, key absVal) absVal {
	rec := a.recordSite(si, recv)
	if recv.top {
		return topVal
	}
	var out absVal
	if recv.prims&pStr != 0 {
		out = out.join(primVal(pStr | pNum | pUndef))
	}
	if recv.prims&(pNum|pBool) != 0 {
		out = out.join(primVal(pUndef))
	}
	for _, o := range recv.objsSorted() {
		if o.escaped {
			return topVal
		}
		if o.isArray {
			if o.elems != nil {
				out = out.join(o.elems.get())
			}
			out = out.join(primVal(pUndef))
			if key.numericOnly() {
				continue
			}
			if !key.maybeString() {
				// Non-string keys stringify to "undefined", "NaN", "true",
				// digit strings, ... — names that cannot collide with any
				// builtin prototype member, and an array's chain is always
				// builtin. Only own named fields can answer.
				out = out.join(allOwnFieldVals(o))
				continue
			}
			out = out.join(a.anyNamedLoad(o, rec, map[*absObj]bool{}))
			continue
		}
		// Named access through ToString(key) with a statically-unknown
		// name: anything o or its chain holds may answer.
		out = out.join(a.anyNamedLoad(o, rec, map[*absObj]bool{}))
	}
	return out
}

// allOwnFieldVals joins every own named field of o plus its unknown-name
// catch-all cell.
func allOwnFieldVals(o *absObj) absVal {
	out := primVal(pUndef)
	for _, n := range o.fieldNames() {
		out = out.join(o.fields[n].get())
	}
	if o.unknown != nil {
		out = out.join(o.unknown.get())
	}
	return out
}

// anyNamedLoad joins every value a named load with a statically-unknown
// property name could produce from o or its prototype chain, at the site
// rec.
func (a *analyzer) anyNamedLoad(o *absObj, rec *siteRecord, seen map[*absObj]bool) absVal {
	if seen[o] {
		return absVal{}
	}
	seen[o] = true
	if o.escaped || o.protoTop {
		return topVal
	}
	out := allOwnFieldVals(o)
	if o.isArray {
		out = out.join(primVal(pNum)) // length
	}
	if o.isFunc {
		// The unknown name may be "prototype", materializing the default
		// prototype object with this site as the transition creator.
		out = out.join(a.fnPrototype(o, rec.creator()).get())
	}
	for _, p := range o.protos {
		out = out.join(a.anyNamedLoad(p, rec, seen))
	}
	return out
}

func (a *analyzer) storeKeyed(si bytecode.SiteInfo, recv, key, v absVal) {
	a.recordSite(si, recv)
	if recv.top {
		a.escapeVal(v)
		return
	}
	for _, o := range recv.objsSorted() {
		if o.escaped {
			a.escapeVal(v)
			continue
		}
		if key.numericOnly() && o.isArray {
			a.upd(o.elemCell(), v)
			continue
		}
		a.unknownStore(o, v)
	}
}

// unknownStore models a store under a statically-unknown property name:
// the object's layout history becomes unknowable (⊤ shapes) and the value
// lands in the catch-all field cell consulted by every load.
func (a *analyzer) unknownStore(o *absObj, v absVal) {
	a.upd(o.unknownCell(), v)
	if !o.shapes.top {
		o.shapes.widen()
		a.changed = true
	}
}

func (a *analyzer) deleteOn(recv absVal) {
	for _, o := range recv.objsSorted() {
		if !o.maybeDict {
			o.maybeDict = true
			a.changed = true
		}
	}
}

// ---- Calls and construction ----

func (a *analyzer) call(fnv, thisv absVal, args []absVal) absVal {
	if fnv.top {
		a.escapeVal(thisv)
		a.escapeAll(args)
		return topVal
	}
	var out absVal
	for _, o := range fnv.objsSorted() {
		out = out.join(a.callObj(o, thisv, args))
	}
	return out
}

func (a *analyzer) callObj(o *absObj, thisv absVal, args []absVal) absVal {
	if o.fn != nil {
		return a.callProto(o.fn, thisv, args)
	}
	if o.native != "" && o.isFunc {
		return a.callNative(o, thisv, args)
	}
	if o.isFunc || o.escaped {
		// A callable we know nothing about.
		a.escapeVal(thisv)
		a.escapeAll(args)
		return topVal
	}
	return absVal{} // not callable; the runtime throws
}

func (a *analyzer) callProto(p *bytecode.FuncProto, thisv absVal, args []absVal) absVal {
	fi := a.fns[p]
	if fi == nil {
		return topVal
	}
	if !fi.reachable {
		fi.reachable = true
		a.changed = true
	}
	a.upd(fi.this, thisv)
	for i, c := range fi.params {
		if i < len(args) {
			a.upd(c, args[i])
		} else {
			a.upd(c, primVal(pUndef))
		}
	}
	return fi.ret.get()
}

func (a *analyzer) construct(ctorv absVal, args []absVal) absVal {
	if ctorv.top {
		a.escapeAll(args)
		return topVal
	}
	var out absVal
	for _, o := range ctorv.objsSorted() {
		if o.fn != nil {
			out = out.join(a.constructProto(o, o.fn, args))
			continue
		}
		if o.native != "" && o.isFunc {
			out = out.join(a.constructNative(o, args))
			continue
		}
		if o.isFunc || o.escaped {
			a.escapeAll(args)
			out = topVal
		}
	}
	return out
}

// constructProto models `new F(...)` for a script function: one summary
// instance per constructor, rooted at the creator the runtime uses (the
// function's declaration site) and delegating to F.prototype.
func (a *analyzer) constructProto(fnObj *absObj, p *bytecode.FuncProto, args []absVal) absVal {
	fi := a.fns[p]
	if fi == nil {
		return topVal
	}
	declSite := source.Site{Script: p.Script, Pos: p.DeclPos}
	creator := objects.Creator{Site: declSite}.String()
	inst := a.instances[p]
	if inst == nil {
		inst = a.newObj("new " + p.FunctionName())
		a.shapeAdd(inst, a.graph.Root(creator))
		a.instances[p] = inst
		a.changed = true
	}
	pv := a.fnPrototype(fnObj, creator).get()
	if pv.top && !inst.protoTop {
		inst.protoTop = true
		a.changed = true
	}
	for _, po := range pv.objsSorted() {
		a.addProto(inst, po)
	}
	if !fi.reachable {
		fi.reachable = true
		a.changed = true
	}
	a.upd(fi.this, objVal(inst))
	for i, c := range fi.params {
		if i < len(args) {
			a.upd(c, args[i])
		} else {
			a.upd(c, primVal(pUndef))
		}
	}
	// A constructor explicitly returning an object overrides the instance.
	return objVal(inst).join(objPart(fi.ret.get()))
}

func objPart(v absVal) absVal {
	if v.top {
		return topVal
	}
	return absVal{objs: v.objs}
}
