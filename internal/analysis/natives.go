package analysis

import "strings"

// callNative models a call to a registered builtin, keyed by its qualified
// name. Models must over-approximate the native's real behavior: anything
// a native stores, invokes, or returns that the model does not track must
// escape or widen to ⊤. Unknown natives escape everything and return ⊤.
func (a *analyzer) callNative(o *absObj, thisv absVal, args []absVal) absVal {
	name := o.native
	switch {
	case name == "global.print" || strings.HasPrefix(name, "console."):
		return primVal(pUndef)
	case strings.HasPrefix(name, "Math."):
		return primVal(pNum)
	case name == "global.parseInt" || name == "global.parseFloat":
		return primVal(pNum)
	case name == "global.isNaN":
		return primVal(pBool)
	case name == "global.String":
		return primVal(pStr)
	case name == "global.Number":
		return primVal(pNum)
	case name == "global.Object":
		return objPart(argAt(args, 0)).join(a.sharedEmptyObj())
	case name == "global.Array":
		var ev absVal
		for _, v := range args {
			ev = ev.join(v)
		}
		return a.sharedArray("native:Array()", ev.join(primVal(pUndef)))
	case name == "Object.prototype.hasOwnProperty":
		return primVal(pBool)
	case name == "Object.prototype.toString":
		return primVal(pStr)
	case name == "Object.create":
		return a.objectCreate(argAt(args, 0))
	case name == "Object.getPrototypeOf":
		return a.protosOf(argAt(args, 0))
	case name == "Object.keys":
		return a.sharedArray("native:Object.keys", primVal(pStr))
	case name == "Array.isArray":
		return primVal(pBool)
	case strings.HasPrefix(name, "Array.prototype."):
		return a.arrayMethod(strings.TrimPrefix(name, "Array.prototype."), thisv, args)
	case strings.HasPrefix(name, "Function.prototype."):
		return a.functionMethod(strings.TrimPrefix(name, "Function.prototype."), thisv, args)
	case strings.HasPrefix(name, "String.prototype."):
		return a.stringMethod(strings.TrimPrefix(name, "String.prototype."))
	case name == "JSON.parse":
		// The parsed structure is built at runtime from text the analysis
		// cannot see: shapes, protos and property values are all unknown.
		// ⊤ is the only sound summary — downstream, VerifyStatic simply
		// skips dependents on shapes it cannot resolve, and the reuse-time
		// preload filter never excludes a class a ⊤ prediction covers.
		a.escapeAll(args)
		return topVal
	case name == "JSON.stringify":
		// Serialization reads every reachable property, so the argument
		// escapes; the result is always a string (or undefined, folded
		// into the string summary conservatively).
		a.escapeAll(args)
		return primVal(pStr).join(primVal(pUndef))
	}
	// No model: assume the worst.
	a.escapeVal(thisv)
	a.escapeAll(args)
	return topVal
}

// constructNative models `new F(...)` on a builtin constructor. The
// runtime wraps non-object native results in a fresh empty object.
func (a *analyzer) constructNative(o *absObj, args []absVal) absVal {
	switch o.native {
	case "global.Array":
		return a.callNative(o, primVal(pUndef), args)
	case "global.Object":
		return objPart(argAt(args, 0)).join(a.sharedEmptyObj())
	}
	r := a.callNative(o, primVal(pUndef), args)
	return objPart(r).join(a.sharedEmptyObj())
}

func argAt(args []absVal, i int) absVal {
	if i < len(args) {
		return args[i]
	}
	return primVal(pUndef)
}

// sharedEmptyObj is the summary object for natives that allocate plain
// empty objects (EmptyObject root, Object.prototype chain).
func (a *analyzer) sharedEmptyObj() absVal {
	o := a.natObj("native:new-object", func() *absObj {
		no := a.newObj("native:new-object")
		a.rootShapeOn(no, "EmptyObject")
		a.addProto(no, a.builtinObjs["Object.prototype"])
		return no
	})
	return objVal(o)
}

// sharedArray is the per-model summary array for natives that return fresh
// arrays; elems joins in the given element value.
func (a *analyzer) sharedArray(key string, elems absVal) absVal {
	arr := a.natObj(key, func() *absObj {
		no := a.newObj(key)
		no.isArray = true
		a.rootShapeOn(no, "Array")
		a.addProto(no, a.builtinObjs["Array.prototype"])
		return no
	})
	a.upd(arr.elemCell(), elems)
	return objVal(arr)
}

// objectCreate models Object.create: each distinct prototype gets a fresh
// root hidden class at runtime, so the result's shape history is unknown.
func (a *analyzer) objectCreate(protoArg absVal) absVal {
	o := a.natObj("native:Object.create", func() *absObj {
		no := a.newObj("native:Object.create")
		no.shapes.widen()
		return no
	})
	if protoArg.top && !o.protoTop {
		o.protoTop = true
		a.changed = true
	}
	for _, p := range protoArg.objsSorted() {
		a.addProto(o, p)
	}
	return objVal(o)
}

func (a *analyzer) protosOf(v absVal) absVal {
	if v.top {
		return topVal
	}
	var out absVal
	for _, o := range v.objsSorted() {
		if o.escaped || o.protoTop {
			return topVal
		}
		for _, p := range o.protos {
			out = out.join(objVal(p))
		}
	}
	return out.join(primVal(pUndef | pNull))
}

// elemsOf joins the element values of every array a receiver may be.
func (a *analyzer) elemsOf(recv absVal) absVal {
	if recv.top {
		return topVal
	}
	var out absVal
	for _, o := range recv.objsSorted() {
		if o.escaped {
			return topVal
		}
		if o.elems != nil {
			out = out.join(o.elems.get())
		}
	}
	return out
}

// invokeCallback calls every script function a callback value may be, with
// undefined `this` (how the array invokers call back). known=false means
// the value may hold callables the analysis cannot see into.
func (a *analyzer) invokeCallback(cb absVal, callArgs []absVal) (ret absVal, known bool) {
	if cb.top {
		return topVal, false
	}
	known = true
	for _, o := range cb.objsSorted() {
		if o.fn != nil {
			ret = ret.join(a.callProto(o.fn, primVal(pUndef), callArgs))
			continue
		}
		if o.isFunc || o.escaped {
			known = false
		}
	}
	return ret, known
}

func (a *analyzer) arrayMethod(method string, thisv absVal, args []absVal) absVal {
	elems := a.elemsOf(thisv)
	switch method {
	case "push", "unshift":
		for _, o := range thisv.objsSorted() {
			if o.escaped {
				a.escapeAll(args)
				continue
			}
			for _, v := range args {
				a.upd(o.elemCell(), v)
			}
		}
		if thisv.top {
			a.escapeAll(args)
		}
		return primVal(pNum)
	case "pop", "shift":
		return elems.join(primVal(pUndef))
	case "join":
		return primVal(pStr)
	case "indexOf", "lastIndexOf":
		return primVal(pNum)
	case "slice":
		return a.sharedArray("native:Array.slice", elems)
	case "concat":
		ev := elems
		for _, v := range args {
			ev = ev.join(objPart(v).isArrayElems(a)).join(nonObjPart(v))
		}
		return a.sharedArray("native:Array.concat", ev)
	case "reverse":
		return objPart(thisv)
	case "sort":
		ret, known := a.invokeCallback(argAt(args, 0), []absVal{elems, elems})
		_ = ret
		if !known {
			a.escapeVal(thisv)
		}
		return objPart(thisv)
	case "forEach", "some", "every", "filter", "map":
		cbArgs := []absVal{elems, primVal(pNum), objPart(thisv)}
		ret, known := a.invokeCallback(argAt(args, 0), cbArgs)
		if !known {
			a.escapeVal(thisv)
			a.escapeAll(args)
		}
		switch method {
		case "forEach":
			return primVal(pUndef)
		case "some", "every":
			return primVal(pBool)
		case "filter":
			return a.sharedArray("native:Array.filter", elems)
		default: // map
			return a.sharedArray("native:Array.map", ret)
		}
	case "reduce":
		cbArgs := []absVal{topVal, elems, primVal(pNum), objPart(thisv)}
		ret, known := a.invokeCallback(argAt(args, 0), cbArgs)
		if !known {
			a.escapeVal(thisv)
			a.escapeAll(args)
			return topVal
		}
		return ret.join(argAt(args, 1))
	}
	a.escapeVal(thisv)
	a.escapeAll(args)
	return topVal
}

// functionMethod models call/apply/bind, where `this` is the function
// being invoked.
func (a *analyzer) functionMethod(method string, thisv absVal, args []absVal) absVal {
	switch method {
	case "call":
		rest := args
		var boundThis absVal = primVal(pUndef)
		if len(args) > 0 {
			boundThis = args[0]
			rest = args[1:]
		}
		return a.call(thisv, boundThis, rest)
	case "apply":
		// Arguments arrive through an array of unknown arity: every param
		// of the callee may receive any element (or undefined).
		argv := a.elemsOf(argAt(args, 1)).join(primVal(pUndef))
		return a.callApplyLike(thisv, argAt(args, 0), argv)
	case "bind":
		// Partial application shifts parameter positions in ways the
		// call-site binding cannot see; treat the target as escaping.
		a.escapeVal(thisv)
		a.escapeVal(argAt(args, 0))
		return objPart(thisv).join(topVal)
	}
	a.escapeVal(thisv)
	a.escapeAll(args)
	return topVal
}

// callApplyLike invokes every function thisv may be, joining argv into
// every parameter.
func (a *analyzer) callApplyLike(fnv, boundThis, argv absVal) absVal {
	if fnv.top {
		a.escapeVal(boundThis)
		a.escapeVal(argv)
		return topVal
	}
	var out absVal
	for _, o := range fnv.objsSorted() {
		if o.fn != nil {
			fi := a.fns[o.fn]
			if fi == nil {
				out = topVal
				continue
			}
			if !fi.reachable {
				fi.reachable = true
				a.changed = true
			}
			a.upd(fi.this, boundThis)
			for _, c := range fi.params {
				a.upd(c, argv)
			}
			out = out.join(fi.ret.get())
			continue
		}
		if o.isFunc || o.escaped {
			a.escapeVal(boundThis)
			a.escapeVal(argv)
			out = topVal
		}
	}
	return out
}

func (a *analyzer) stringMethod(method string) absVal {
	switch method {
	case "charCodeAt", "indexOf", "lastIndexOf":
		return primVal(pNum)
	case "split":
		return a.sharedArray("native:String.split", primVal(pStr))
	}
	return primVal(pStr)
}

// nonObjPart strips the object component of a value (concat treats
// non-array arguments as single elements; arrays contribute elements —
// both handled by the caller, this keeps primitives).
func nonObjPart(v absVal) absVal {
	if v.top {
		return topVal
	}
	return absVal{prims: v.prims}
}

// isArrayElems joins the elements of array objects in v and the objects
// themselves when they are not arrays (concat semantics).
func (v absVal) isArrayElems(a *analyzer) absVal {
	if v.top {
		return topVal
	}
	var out absVal
	for _, o := range v.objsSorted() {
		if o.escaped {
			return topVal
		}
		if o.isArray {
			if o.elems != nil {
				out = out.join(o.elems.get())
			}
		} else {
			out = out.join(objVal(o))
		}
	}
	return out
}
