package vm

import (
	"fmt"
	"math"
	"strings"

	"ricjs/internal/objects"
	"ricjs/internal/profiler"
)

// argAt returns the i-th argument or undefined.
func argAt(args []objects.Value, i int) objects.Value {
	if i < len(args) {
		return args[i]
	}
	return objects.Undefined()
}

// native is the VM-side form of a builtin: it receives the calling VM,
// so the builtin template's natives close over no engine.
type native func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error)

// newNative wraps a Go function in a callable object.
func (vm *VM) newNative(name string, fn native) *objects.Object {
	return vm.Space.NewFunction(vm.functionHC, &objects.FunctionData{
		Name: name,
		Native: func(rt any, this objects.Value, args []objects.Value) (objects.Value, error) {
			return fn(rt.(*VM), this, args)
		},
	})
}

// define adds a property to a builtin object during startup; the hidden
// class transition is attributed to a context-independent builtin name,
// and object values register under that name for snapshot references.
func (vm *VM) define(o *objects.Object, name string, v objects.Value, qualified string) {
	o.AddOwn(vm.Space, name, v, objects.Creator{Builtin: qualified})
	if obj := v.Obj(); obj != nil {
		vm.registerBuiltinObject(qualified, obj)
	}
}

// setupBuiltins constructs the builtin environment: Object/Function/Array
// prototypes, the shared root hidden classes of Figure 2 (HC0 for object
// literals, arrays, functions, and user function prototypes), the Math and
// console namespaces, and the global object. It runs once per process,
// on the scratch VM buildRealm freezes into the builtin template.
func (vm *VM) setupBuiltins() {
	s := vm.Space

	// Object.prototype sits at the root of almost every prototype chain.
	objProtoHC := vm.newRootHC(nil, objects.Creator{Builtin: "Object.prototype#root"})
	vm.objectProto = s.NewObject(objProtoHC)

	// Function.prototype and the shared hidden class of function objects.
	fnProtoHC := vm.newRootHC(vm.objectProto, objects.Creator{Builtin: "Function.prototype#root"})
	vm.functionProto = s.NewObject(fnProtoHC)
	vm.functionHC = vm.newRootHC(vm.functionProto, objects.Creator{Builtin: "Function"})

	// Array.prototype and the shared hidden class of arrays.
	arrProtoHC := vm.newRootHC(vm.objectProto, objects.Creator{Builtin: "Array.prototype#root"})
	vm.arrayProto = s.NewObject(arrProtoHC)
	vm.arrayHC = vm.newRootHC(vm.arrayProto, objects.Creator{Builtin: "Array"})

	// The empty-object hidden class: HC0 of every object literal (the
	// paper's "Empty Obj." TOAST entry).
	vm.emptyObjectHC = vm.newRootHC(vm.objectProto, objects.Creator{Builtin: "EmptyObject"})

	// Shared root for lazily created user function prototype objects.
	vm.fnProtoRootHC = vm.newRootHC(vm.objectProto, objects.Creator{Builtin: "FunctionPrototype"})

	// The global object.
	globalHC := vm.newRootHC(vm.objectProto, objects.Creator{Builtin: "(global)#root"})
	vm.global = s.NewObject(globalHC)

	vm.registerBuiltinObject("(global)", vm.global)
	vm.registerBuiltinObject("Object.prototype", vm.objectProto)
	vm.registerBuiltinObject("Function.prototype", vm.functionProto)
	vm.registerBuiltinObject("Array.prototype", vm.arrayProto)

	vm.populateObjectPrototype()
	vm.populateFunctionPrototype()
	vm.populateArrayPrototype()
	vm.populateGlobals()
}

func (vm *VM) populateObjectPrototype() {
	p := vm.objectProto
	vm.define(p, "hasOwnProperty", objects.Obj(vm.newNative("hasOwnProperty",
		func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
			o := this.Obj()
			if o == nil {
				return objects.Bool(false), nil
			}
			name := argAt(args, 0).ToString()
			if o.IsArray() {
				if idx, ok := arrayIndex(argAt(args, 0)); ok {
					return objects.Bool(idx < o.Len()), nil
				}
			}
			_, found, _ := o.GetOwn(name)
			return objects.Bool(found), nil
		})), "Object.prototype.hasOwnProperty")
	vm.define(p, "toString", objects.Obj(vm.newNative("toString",
		func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
			return objects.Str(this.ToString()), nil
		})), "Object.prototype.toString")
}

func (vm *VM) populateFunctionPrototype() {
	p := vm.functionProto
	vm.define(p, "call", objects.Obj(vm.newNative("call",
		func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
			var rest []objects.Value
			if len(args) > 1 {
				rest = args[1:]
			}
			return vm.CallFunction(this, argAt(args, 0), rest)
		})), "Function.prototype.call")
	vm.define(p, "bind", objects.Obj(vm.newNative("bind",
		func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
			if !this.IsCallable() {
				return objects.Undefined(), throwf("bind requires a function receiver")
			}
			target := this
			boundThis := argAt(args, 0)
			var boundArgs []objects.Value
			if len(args) > 1 {
				boundArgs = append(boundArgs, args[1:]...)
			}
			bound := vm.newNative("bound "+target.Obj().Func().Name,
				func(vm *VM, _ objects.Value, callArgs []objects.Value) (objects.Value, error) {
					all := append(append([]objects.Value{}, boundArgs...), callArgs...)
					return vm.CallFunction(target, boundThis, all)
				})
			vm.Prof.Alloc()
			return objects.Obj(bound), nil
		})), "Function.prototype.bind")
	vm.define(p, "apply", objects.Obj(vm.newNative("apply",
		func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
			var rest []objects.Value
			if arr := argAt(args, 1).Obj(); arr != nil && arr.IsArray() {
				rest = append(rest, arr.Elems()...)
			}
			return vm.CallFunction(this, argAt(args, 0), rest)
		})), "Function.prototype.apply")
}

func (vm *VM) populateArrayPrototype() {
	p := vm.arrayProto
	def := func(name string, fn native) {
		vm.define(p, name, objects.Obj(vm.newNative(name, fn)), "Array.prototype."+name)
	}
	def("push", func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
		o := this.Obj()
		if o == nil || !o.IsArray() {
			return objects.Undefined(), throwf("push requires an array receiver")
		}
		o.SetElems(append(o.Elems(), args...))
		return objects.Num(float64(o.Len())), nil
	})
	def("pop", func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
		o := this.Obj()
		if o == nil || !o.IsArray() || o.Len() == 0 {
			return objects.Undefined(), nil
		}
		last := o.Elem(o.Len() - 1)
		o.SetLen(o.Len() - 1)
		return last, nil
	})
	def("join", func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
		o := this.Obj()
		if o == nil || !o.IsArray() {
			return objects.Str(""), nil
		}
		sep := ","
		if !argAt(args, 0).IsUndefined() {
			sep = argAt(args, 0).ToString()
		}
		parts := make([]string, o.Len())
		for i := 0; i < o.Len(); i++ {
			if e := o.Elem(i); !e.IsNullish() {
				parts[i] = e.ToString()
			}
		}
		return objects.Str(strings.Join(parts, sep)), nil
	})
	def("indexOf", func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
		o := this.Obj()
		if o == nil || !o.IsArray() {
			return objects.Num(-1), nil
		}
		needle := argAt(args, 0)
		for i := 0; i < o.Len(); i++ {
			if objects.StrictEquals(o.Elem(i), needle) {
				return objects.Num(float64(i)), nil
			}
		}
		return objects.Num(-1), nil
	})
	def("slice", func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
		o := this.Obj()
		if o == nil || !o.IsArray() {
			return objects.Undefined(), throwf("slice requires an array receiver")
		}
		start, end := sliceRange(o.Len(), argAt(args, 0), argAt(args, 1))
		out := make([]objects.Value, 0, end-start)
		for i := start; i < end; i++ {
			out = append(out, o.Elem(i))
		}
		vm.Prof.Alloc()
		return objects.Obj(vm.Space.NewArray(vm.arrayHC, out)), nil
	})
	def("concat", func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
		o := this.Obj()
		if o == nil || !o.IsArray() {
			return objects.Undefined(), throwf("concat requires an array receiver")
		}
		out := append([]objects.Value{}, o.Elems()...)
		for _, a := range args {
			if arr := a.Obj(); arr != nil && arr.IsArray() {
				out = append(out, arr.Elems()...)
			} else {
				out = append(out, a)
			}
		}
		vm.Prof.Alloc()
		return objects.Obj(vm.Space.NewArray(vm.arrayHC, out)), nil
	})
	def("forEach", func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
		o := this.Obj()
		if o == nil || !o.IsArray() {
			return objects.Undefined(), throwf("forEach requires an array receiver")
		}
		fn := argAt(args, 0)
		for i := 0; i < o.Len(); i++ {
			if _, err := vm.CallFunction(fn, objects.Undefined(),
				[]objects.Value{o.Elem(i), objects.Num(float64(i)), this}); err != nil {
				return objects.Undefined(), err
			}
		}
		return objects.Undefined(), nil
	})
	def("filter", func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
		o := this.Obj()
		if o == nil || !o.IsArray() {
			return objects.Undefined(), throwf("filter requires an array receiver")
		}
		fn := argAt(args, 0)
		var out []objects.Value
		for i := 0; i < o.Len(); i++ {
			keep, err := vm.CallFunction(fn, objects.Undefined(),
				[]objects.Value{o.Elem(i), objects.Num(float64(i)), this})
			if err != nil {
				return objects.Undefined(), err
			}
			if keep.Truthy() {
				out = append(out, o.Elem(i))
			}
		}
		vm.Prof.Alloc()
		return objects.Obj(vm.Space.NewArray(vm.arrayHC, out)), nil
	})
	def("reduce", func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
		o := this.Obj()
		if o == nil || !o.IsArray() {
			return objects.Undefined(), throwf("reduce requires an array receiver")
		}
		fn := argAt(args, 0)
		acc := argAt(args, 1)
		start := 0
		if len(args) < 2 {
			if o.Len() == 0 {
				return objects.Undefined(), throwf("reduce of empty array with no initial value")
			}
			acc = o.Elem(0)
			start = 1
		}
		for i := start; i < o.Len(); i++ {
			var err error
			acc, err = vm.CallFunction(fn, objects.Undefined(),
				[]objects.Value{acc, o.Elem(i), objects.Num(float64(i)), this})
			if err != nil {
				return objects.Undefined(), err
			}
		}
		return acc, nil
	})
	def("some", func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
		o := this.Obj()
		if o == nil || !o.IsArray() {
			return objects.Bool(false), nil
		}
		fn := argAt(args, 0)
		for i := 0; i < o.Len(); i++ {
			v, err := vm.CallFunction(fn, objects.Undefined(),
				[]objects.Value{o.Elem(i), objects.Num(float64(i)), this})
			if err != nil {
				return objects.Undefined(), err
			}
			if v.Truthy() {
				return objects.Bool(true), nil
			}
		}
		return objects.Bool(false), nil
	})
	def("every", func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
		o := this.Obj()
		if o == nil || !o.IsArray() {
			return objects.Bool(true), nil
		}
		fn := argAt(args, 0)
		for i := 0; i < o.Len(); i++ {
			v, err := vm.CallFunction(fn, objects.Undefined(),
				[]objects.Value{o.Elem(i), objects.Num(float64(i)), this})
			if err != nil {
				return objects.Undefined(), err
			}
			if !v.Truthy() {
				return objects.Bool(false), nil
			}
		}
		return objects.Bool(true), nil
	})
	def("reverse", func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
		o := this.Obj()
		if o == nil || !o.IsArray() {
			return objects.Undefined(), throwf("reverse requires an array receiver")
		}
		e := o.Elems()
		for i, j := 0, len(e)-1; i < j; i, j = i+1, j-1 {
			e[i], e[j] = e[j], e[i]
		}
		return this, nil
	})
	def("shift", func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
		o := this.Obj()
		if o == nil || !o.IsArray() || o.Len() == 0 {
			return objects.Undefined(), nil
		}
		first := o.Elem(0)
		o.SetElems(append([]objects.Value{}, o.Elems()[1:]...))
		return first, nil
	})
	def("unshift", func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
		o := this.Obj()
		if o == nil || !o.IsArray() {
			return objects.Undefined(), throwf("unshift requires an array receiver")
		}
		o.SetElems(append(append([]objects.Value{}, args...), o.Elems()...))
		return objects.Num(float64(o.Len())), nil
	})
	def("sort", func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
		o := this.Obj()
		if o == nil || !o.IsArray() {
			return objects.Undefined(), throwf("sort requires an array receiver")
		}
		cmp := argAt(args, 0)
		var cmpErr error
		elems := o.Elems()
		// Insertion sort: deterministic, stable, and lets comparator
		// errors abort cleanly. Initialization workloads sort tiny arrays.
		for i := 1; i < len(elems); i++ {
			for j := i; j > 0 && cmpErr == nil; j-- {
				var before bool
				if cmp.IsCallable() {
					r, err := vm.CallFunction(cmp, objects.Undefined(),
						[]objects.Value{elems[j], elems[j-1]})
					if err != nil {
						cmpErr = err
						break
					}
					before = r.ToNumber() < 0
				} else {
					before = elems[j].ToString() < elems[j-1].ToString()
				}
				if !before {
					break
				}
				elems[j], elems[j-1] = elems[j-1], elems[j]
			}
		}
		if cmpErr != nil {
			return objects.Undefined(), cmpErr
		}
		return this, nil
	})
	def("map", func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
		o := this.Obj()
		if o == nil || !o.IsArray() {
			return objects.Undefined(), throwf("map requires an array receiver")
		}
		fn := argAt(args, 0)
		out := make([]objects.Value, o.Len())
		for i := 0; i < o.Len(); i++ {
			v, err := vm.CallFunction(fn, objects.Undefined(),
				[]objects.Value{o.Elem(i), objects.Num(float64(i)), this})
			if err != nil {
				return objects.Undefined(), err
			}
			out[i] = v
		}
		vm.Prof.Alloc()
		return objects.Obj(vm.Space.NewArray(vm.arrayHC, out)), nil
	})
}

// sliceRange resolves slice start/end arguments against a length.
func sliceRange(n int, startV, endV objects.Value) (int, int) {
	start, end := 0, n
	if startV.IsNumber() {
		start = int(startV.Num())
		if start < 0 {
			start += n
		}
	}
	if endV.IsNumber() {
		end = int(endV.Num())
		if end < 0 {
			end += n
		}
	}
	if start < 0 {
		start = 0
	}
	if end > n {
		end = n
	}
	if start > end {
		start = end
	}
	return start, end
}

func (vm *VM) populateGlobals() {
	g := vm.global
	defG := func(name string, v objects.Value) {
		vm.define(g, name, v, "global."+name)
	}

	// print and console.log.
	printFn := objects.Obj(vm.newNative("print",
		func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
			parts := make([]string, len(args))
			for i, a := range args {
				parts[i] = a.ToString()
			}
			fmt.Fprintln(vm.out, strings.Join(parts, " "))
			return objects.Undefined(), nil
		}))
	defG("print", printFn)
	consoleHC := vm.newRootHC(vm.objectProto, objects.Creator{Builtin: "console#root"})
	console := vm.Space.NewObject(consoleHC)
	vm.define(console, "log", printFn, "console.log")
	vm.define(console, "error", printFn, "console.error")
	vm.define(console, "warn", printFn, "console.warn")
	defG("console", objects.Obj(console))
	vm.extraBuiltins = append(vm.extraBuiltins, namedBuiltin{Name: "console", Obj: console})

	// Object constructor and statics.
	objectCtor := vm.newNative("Object", func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
		if o := argAt(args, 0).Obj(); o != nil {
			return argAt(args, 0), nil
		}
		vm.Prof.Alloc()
		return objects.Obj(vm.Space.NewObject(vm.emptyObjectHC)), nil
	})
	vm.define(objectCtor, "prototype", objects.Obj(vm.objectProto), "Object.prototype-link")
	vm.define(objectCtor, "create", objects.Obj(vm.newNative("create",
		func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
			protoArg := argAt(args, 0)
			var proto *objects.Object
			if !protoArg.IsNull() {
				proto = protoArg.Obj()
				if proto == nil {
					return objects.Undefined(), throwf("Object.create requires an object or null prototype")
				}
			}
			// Each distinct prototype gets its own root hidden class,
			// created lazily and shared across Object.create calls.
			hc := vm.objectCreateHC(proto)
			vm.Prof.Alloc()
			return objects.Obj(vm.Space.NewObject(hc)), nil
		})), "Object.create")
	vm.define(objectCtor, "getPrototypeOf", objects.Obj(vm.newNative("getPrototypeOf",
		func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
			o := argAt(args, 0).Obj()
			if o == nil {
				return objects.Undefined(), throwf("Object.getPrototypeOf requires an object")
			}
			return objects.Obj(o.Proto()), nil
		})), "Object.getPrototypeOf")
	vm.define(objectCtor, "keys", objects.Obj(vm.newNative("keys",
		func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
			var keys []objects.Value
			if o := argAt(args, 0).Obj(); o != nil {
				for _, k := range o.OwnKeys() {
					keys = append(keys, objects.Str(k))
				}
			}
			vm.Prof.Alloc()
			return objects.Obj(vm.Space.NewArray(vm.arrayHC, keys)), nil
		})), "Object.keys")
	defG("Object", objects.Obj(objectCtor))

	// Array constructor.
	arrayCtor := vm.newNative("Array", func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
		vm.Prof.Alloc()
		if len(args) == 1 && args[0].IsNumber() {
			return objects.Obj(vm.Space.NewArray(vm.arrayHC, make([]objects.Value, int(args[0].Num())))), nil
		}
		elems := append([]objects.Value{}, args...)
		return objects.Obj(vm.Space.NewArray(vm.arrayHC, elems)), nil
	})
	vm.define(arrayCtor, "prototype", objects.Obj(vm.arrayProto), "Array.prototype-link")
	vm.define(arrayCtor, "isArray", objects.Obj(vm.newNative("isArray",
		func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
			o := argAt(args, 0).Obj()
			return objects.Bool(o != nil && o.IsArray()), nil
		})), "Array.isArray")
	defG("Array", objects.Obj(arrayCtor))

	// Math namespace.
	mathHC := vm.newRootHC(vm.objectProto, objects.Creator{Builtin: "Math#root"})
	mathObj := vm.Space.NewObject(mathHC)
	defM := func(name string, fn func(vm *VM, args []objects.Value) float64) {
		vm.define(mathObj, name, objects.Obj(vm.newNative(name,
			func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
				return objects.Num(fn(vm, args)), nil
			})), "Math."+name)
	}
	defM("floor", func(_ *VM, a []objects.Value) float64 { return math.Floor(argAt(a, 0).ToNumber()) })
	defM("ceil", func(_ *VM, a []objects.Value) float64 { return math.Ceil(argAt(a, 0).ToNumber()) })
	defM("round", func(_ *VM, a []objects.Value) float64 { return math.Round(argAt(a, 0).ToNumber()) })
	defM("abs", func(_ *VM, a []objects.Value) float64 { return math.Abs(argAt(a, 0).ToNumber()) })
	defM("sqrt", func(_ *VM, a []objects.Value) float64 { return math.Sqrt(argAt(a, 0).ToNumber()) })
	defM("pow", func(_ *VM, a []objects.Value) float64 {
		return math.Pow(argAt(a, 0).ToNumber(), argAt(a, 1).ToNumber())
	})
	defM("min", func(_ *VM, a []objects.Value) float64 {
		m := math.Inf(1)
		for _, v := range a {
			m = math.Min(m, v.ToNumber())
		}
		return m
	})
	defM("max", func(_ *VM, a []objects.Value) float64 {
		m := math.Inf(-1)
		for _, v := range a {
			m = math.Max(m, v.ToNumber())
		}
		return m
	})
	defM("random", func(vm *VM, a []objects.Value) float64 {
		// Deterministic xorshift64*: runs are reproducible by design; the
		// output multiplier scrambles small seeds.
		vm.rng ^= vm.rng << 13
		vm.rng ^= vm.rng >> 7
		vm.rng ^= vm.rng << 17
		return float64((vm.rng*0x2545F4914F6CDD1D)>>11) / float64(1<<53)
	})
	vm.define(mathObj, "PI", objects.Num(math.Pi), "Math.PI")
	defG("Math", objects.Obj(mathObj))
	vm.extraBuiltins = append(vm.extraBuiltins, namedBuiltin{Name: "Math", Obj: mathObj})

	// Free functions.
	defG("parseInt", objects.Obj(vm.newNative("parseInt",
		func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
			return objects.Num(math.Trunc(argAt(args, 0).ToNumber())), nil
		})))
	defG("parseFloat", objects.Obj(vm.newNative("parseFloat",
		func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
			return objects.Num(argAt(args, 0).ToNumber()), nil
		})))
	defG("isNaN", objects.Obj(vm.newNative("isNaN",
		func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
			return objects.Bool(math.IsNaN(argAt(args, 0).ToNumber())), nil
		})))
	defG("String", objects.Obj(vm.newNative("String",
		func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
			return objects.Str(argAt(args, 0).ToString()), nil
		})))
	defG("Number", objects.Obj(vm.newNative("Number",
		func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
			return objects.Num(argAt(args, 0).ToNumber()), nil
		})))

	// The browser-style alias the paper's fake window object provides
	// (§6: "we insert a fake window object ... to mimic a browser").
	defG("window", objects.Obj(g))

	vm.setupJSON()
	vm.setupStringMethods()
}

// objectCreateHCs caches one root hidden class per Object.create prototype.
func (vm *VM) objectCreateHC(proto *objects.Object) *objects.HiddenClass {
	if vm.createHCs == nil {
		vm.createHCs = make(map[*objects.Object]*objects.HiddenClass)
	}
	if hc, ok := vm.createHCs[proto]; ok {
		return hc
	}
	// Each distinct prototype gets its own root class; the ordinal in the
	// name keeps the creator identity unique yet context-independent
	// (creation order is deterministic for deterministic programs).
	vm.createSeq++
	hc := vm.newRootHC(proto, objects.Creator{Builtin: fmt.Sprintf("Object.create#%d", vm.createSeq)})
	vm.createHCs[proto] = hc
	return hc
}

// setupStringMethods installs the shared method objects returned by
// property loads on string primitives.
func (vm *VM) setupStringMethods() {
	vm.stringMethods = map[string]*objects.Object{}
	def := func(name string, fn func(vm *VM, s string, args []objects.Value) objects.Value) {
		m := vm.newNative(name,
			func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
				return fn(vm, this.ToString(), args), nil
			})
		vm.stringMethods[name] = m
		vm.registerBuiltinObject("String.prototype."+name, m)
	}
	def("charAt", func(_ *VM, s string, a []objects.Value) objects.Value {
		i := int(argAt(a, 0).ToNumber())
		if i < 0 || i >= len(s) {
			return objects.Str("")
		}
		return objects.Str(s[i : i+1])
	})
	def("charCodeAt", func(_ *VM, s string, a []objects.Value) objects.Value {
		i := int(argAt(a, 0).ToNumber())
		if i < 0 || i >= len(s) {
			return objects.Num(math.NaN())
		}
		return objects.Num(float64(s[i]))
	})
	def("indexOf", func(_ *VM, s string, a []objects.Value) objects.Value {
		return objects.Num(float64(strings.Index(s, argAt(a, 0).ToString())))
	})
	def("slice", func(_ *VM, s string, a []objects.Value) objects.Value {
		start, end := sliceRange(len(s), argAt(a, 0), argAt(a, 1))
		return objects.Str(s[start:end])
	})
	def("substring", func(_ *VM, s string, a []objects.Value) objects.Value {
		start, end := sliceRange(len(s), argAt(a, 0), argAt(a, 1))
		return objects.Str(s[start:end])
	})
	def("toUpperCase", func(_ *VM, s string, a []objects.Value) objects.Value {
		return objects.Str(strings.ToUpper(s))
	})
	def("toLowerCase", func(_ *VM, s string, a []objects.Value) objects.Value {
		return objects.Str(strings.ToLower(s))
	})
	def("split", func(vm *VM, s string, a []objects.Value) objects.Value {
		sep := argAt(a, 0).ToString()
		var parts []string
		if argAt(a, 0).IsUndefined() {
			parts = []string{s}
		} else {
			parts = strings.Split(s, sep)
		}
		elems := make([]objects.Value, len(parts))
		for i, p := range parts {
			elems[i] = objects.Str(p)
		}
		vm.Prof.Alloc()
		return objects.Obj(vm.Space.NewArray(vm.arrayHC, elems))
	})
	def("replace", func(_ *VM, s string, a []objects.Value) objects.Value {
		return objects.Str(strings.Replace(s, argAt(a, 0).ToString(), argAt(a, 1).ToString(), 1))
	})
	def("trim", func(_ *VM, s string, a []objects.Value) objects.Value {
		return objects.Str(strings.TrimSpace(s))
	})
	def("lastIndexOf", func(_ *VM, s string, a []objects.Value) objects.Value {
		return objects.Num(float64(strings.LastIndex(s, argAt(a, 0).ToString())))
	})
	def("concat", func(_ *VM, s string, a []objects.Value) objects.Value {
		for _, v := range a {
			s += v.ToString()
		}
		return objects.Str(s)
	})
	def("toString", func(_ *VM, s string, a []objects.Value) objects.Value {
		return objects.Str(s)
	})
}

// stringProperty resolves property loads on string primitives: length and
// the shared method objects. Strings bypass the IC (they have no hidden
// class in this engine).
func (vm *VM) stringProperty(s, name string) objects.Value {
	vm.Prof.Charge(profiler.CostGenericAccess)
	if name == "length" {
		return objects.Num(float64(len(s)))
	}
	if m, ok := vm.realm.b.stringMethods[name]; ok {
		return objects.Obj(vm.heap.Object(m))
	}
	return objects.Undefined()
}
