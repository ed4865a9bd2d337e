package vm

import (
	"sync"

	"ricjs/internal/objects"
	"ricjs/internal/profiler"
)

// realm is the builtin environment every VM starts from: the global
// object, the builtin prototypes and namespaces, their hidden classes and
// the identities startup registers. setupBuiltins builds it once per
// process on a scratch VM, whose space is then frozen into a template;
// New instantiates the template into each VM's own space (DESIGN.md §2).
// Nothing in a realm is written after buildRealm returns, so all VMs
// read it concurrently. The scratch VM's pointers are the template's; a
// VM reaches its own copies through its heap.
type realm struct {
	b    *VM // the scratch VM setupBuiltins ran on; nothing runs on it again
	heap *objects.Template
}

// realmSeed fixes the template space's address layout. It never shows:
// every VM re-addresses its copy in its own space.
const realmSeed = 1

// builtinRealm returns the process's realm, building it on first use.
var builtinRealm = sync.OnceValue(buildRealm)

// buildRealm runs setupBuiltins on a scratch VM and freezes the result.
func buildRealm() *realm {
	b := constructBuiltins(realmSeed)
	objs := make([]*objects.Object, 0, len(b.builtinRegs)+1)
	objs = append(objs, b.global)
	for _, reg := range b.builtinRegs {
		objs = append(objs, reg.Obj)
	}
	return &realm{b: b, heap: b.Space.Freeze(objs, b.roots)}
}

// constructBuiltins builds the builtin environment directly into a fresh
// VM whose space has the given seed, and lists the post-startup builtin
// classes. buildRealm freezes what it builds; the equivalence tests
// compare it against an instantiated copy.
func constructBuiltins(seed uint64) *VM {
	b := &VM{Space: objects.NewSpace(seed), Prof: &profiler.Counters{}}
	b.setupBuiltins()
	b.builtinFinal = b.startupClasses()
	return b
}

// startupClasses lists each builtin object name with its hidden class at
// the end of startup; these validate unconditionally at the start of a
// Reuse run.
func (vm *VM) startupClasses() []BuiltinHC {
	final := []BuiltinHC{
		{"(global)", vm.global.HC()},
		{"Object.prototype", vm.objectProto.HC()},
		{"Function.prototype", vm.functionProto.HC()},
		{"Array.prototype", vm.arrayProto.HC()},
		{"EmptyObject", vm.emptyObjectHC},
		{"Array", vm.arrayHC},
		{"Function", vm.functionHC},
		{"FunctionPrototype", vm.fnProtoRootHC},
	}
	for _, extra := range vm.extraBuiltins {
		final = append(final, BuiltinHC{extra.Name, extra.Obj.HC()})
	}
	return final
}

// instantiate gives the VM its own copy of the realm: every builtin
// object and hidden class, with the ids and addresses its space assigns.
func (vm *VM) instantiate(r *realm) {
	h := r.heap.Instantiate(vm.Space)
	b := r.b
	vm.realm = r
	vm.heap = h
	vm.global = h.Object(b.global)
	vm.objectProto = h.Object(b.objectProto)
	vm.functionProto = h.Object(b.functionProto)
	vm.arrayProto = h.Object(b.arrayProto)
	vm.emptyObjectHC = h.HC(b.emptyObjectHC)
	vm.arrayHC = h.HC(b.arrayHC)
	vm.functionHC = h.HC(b.functionHC)
	vm.fnProtoRootHC = h.HC(b.fnProtoRootHC)
	// Script code appends constructor and Object.create roots, so the
	// list is the VM's own.
	vm.roots = make([]*objects.HiddenClass, len(b.roots))
	for i, hc := range b.roots {
		vm.roots[i] = h.HC(hc)
	}
	vm.builtinFinal = make([]BuiltinHC, len(b.builtinFinal))
	for i, f := range b.builtinFinal {
		vm.builtinFinal[i] = BuiltinHC{Name: f.Name, HC: h.HC(f.HC)}
	}
}
