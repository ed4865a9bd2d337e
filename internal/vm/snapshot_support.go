package vm

import (
	"ricjs/internal/bytecode"
	"ricjs/internal/objects"
	"ricjs/internal/source"
)

// Support methods for the snapshot subsystem (internal/snapshot), which
// serializes and restores the script-created heap. Restored hidden
// classes carry no creator identity, so snapshot-built state is invisible
// to RIC extraction — the two mechanisms are alternatives, as in the
// paper's §9 discussion.

// NewObjectWithProto allocates a plain object whose prototype is proto,
// using a per-prototype cached root hidden class with no creator.
func (vm *VM) NewObjectWithProto(proto *objects.Object) *objects.Object {
	if proto == vm.objectProto {
		return vm.Space.NewObject(vm.emptyObjectHC)
	}
	if vm.restoreHCs == nil {
		vm.restoreHCs = make(map[*objects.Object]*objects.HiddenClass)
	}
	hc, ok := vm.restoreHCs[proto]
	if !ok {
		hc = vm.Space.NewRootHC(proto, objects.Creator{})
		vm.restoreHCs[proto] = hc
	}
	return vm.Space.NewObject(hc)
}

// NewArrayObject allocates an array with the standard array prototype.
func (vm *VM) NewArrayObject(elems []objects.Value) *objects.Object {
	return vm.Space.NewArray(vm.arrayHC, elems)
}

// NewClosureObject materializes a function object over compiled code and
// a restored context chain.
func (vm *VM) NewClosureObject(proto *bytecode.FuncProto, ctx *objects.Context) *objects.Object {
	fd := &objects.FunctionData{Name: proto.Name, Code: proto, Ctx: ctx}
	return vm.Space.NewFunction(vm.functionHC, fd)
}

// ObjectProto returns the default Object.prototype.
func (vm *VM) ObjectProto() *objects.Object { return vm.objectProto }

// FuncProtoAt resolves a compiled function by its declaration site among
// the programs registered in this VM. The snapshot format references
// functions this way — by context-independent identity, like RIC's sites.
// The first call indexes every function registered so far.
func (vm *VM) FuncProtoAt(site source.Site) *bytecode.FuncProto {
	if vm.protoIndex == nil {
		vm.protoIndex = make(map[source.Site]*bytecode.FuncProto)
		for _, r := range vm.programs {
			r.Prog.Toplevel.WalkProtos(vm.indexProto)
		}
	}
	return vm.protoIndex[site]
}

// indexProto adds a function to the declaration-site index; a later
// registration of the same site replaces an earlier one.
func (vm *VM) indexProto(p *bytecode.FuncProto) {
	if !p.DeclPos.IsZero() {
		vm.protoIndex[source.Site{Script: p.Script, Pos: p.DeclPos}] = p
	}
}

// SetGlobalDirect defines a global property without going through the IC,
// for snapshot restoration.
func (vm *VM) SetGlobalDirect(name string, v objects.Value) {
	vm.global.SetNamed(vm.Space, name, v, objects.Creator{Global: true})
}
