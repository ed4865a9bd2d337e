package ricjs

import (
	"sort"
	"testing"

	"ricjs/internal/analysis"
	"ricjs/internal/bytecode"
	"ricjs/internal/objects"
	"ricjs/internal/parser"
	"ricjs/internal/ric"
	"ricjs/internal/vm"
	"ricjs/internal/workloads"
)

func compileWorkload(t *testing.T, name, src string) *bytecode.Program {
	t.Helper()
	ast, err := parser.Parse(name, src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := bytecode.Compile(ast)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestTypedClaimsSoundOnAllWorkloads is the soundness gate for
// typed-shape inference, run over every library of the evaluation:
//
//  1. offline: the claims AttachTypedShapes attaches to a freshly
//     extracted record must pass VerifyTyped's independent recomputation
//     (what riclint's fourth layer checks);
//  2. store-side: during a Reuse run of the record, every concrete named
//     store into an object whose hidden class the run validated against
//     a claimed row must leave each claimed slot holding a value the
//     claim admits.
//
// Any concrete violation of a claimed slot type is a hard failure here.
func TestTypedClaimsSoundOnAllWorkloads(t *testing.T) {
	for _, p := range workloads.Profiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			src := p.Source()
			prog := compileWorkload(t, p.Script, src)
			res := analysis.Analyze(prog)

			v0 := vm.New(vm.Options{})
			if _, err := v0.RunProgram(prog); err != nil {
				t.Fatal(err)
			}
			rec := ric.Extract(v0, p.Script, ric.Config{})
			rec.AttachTypedShapes(res)
			if rec.Stats.TypedSlotClaims == 0 {
				t.Fatal("offline analysis attached no typed claims; the gate is vacuous")
			}
			// Layer 1: the offline recomputation accepts every attached claim.
			if err := rec.VerifyTyped(res); err != nil {
				t.Fatalf("extraction attached a claim its own analysis rejects: %v", err)
			}

			// Layer 2: observe every named store of a Reuse run. Rows are
			// validated lazily as the run creates their hidden classes, so
			// the class each claimed row maps to is looked up per store.
			ids := make([]int32, 0, len(rec.TypedSlots))
			for id := range rec.TypedSlots {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			reuser := ric.NewReuser(rec)
			stores, claimedStores := 0, 0
			v := vm.New(vm.Options{Hooks: reuser, StoreObserver: func(o *objects.Object) {
				stores++
				hc := o.HC()
				for _, id := range ids {
					if reuser.ValidatedClass(id) != hc {
						continue
					}
					claimedStores++
					for _, c := range rec.TypedSlots[id] {
						name := hc.FieldAt(int(c.Offset))
						if val, ok, _ := o.GetOwn(name); ok && !c.Type.Admits(val) {
							t.Errorf("HCID %d slot %q claims %s but a store left %s %s in it",
								id, name, c.Type, val.TypeOf(), val.ToString())
						}
					}
				}
			}})
			reuser.Attach(v)
			if _, err := v.RunProgram(prog); err != nil {
				t.Fatal(err)
			}
			if stores == 0 {
				t.Fatal("store observer saw no stores; the gate is vacuous")
			}
			if claimedStores == 0 {
				t.Fatal("no store hit a class with a validated claimed row; the gate is vacuous")
			}
		})
	}
}
