package vm

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"ricjs/internal/objects"
	"ricjs/internal/profiler"
	"ricjs/internal/source"
)

// hookLog records every OnHCCreated call as a comparable line.
type hookLog struct{ calls []string }

func (h *hookLog) OnHCCreated(c objects.Creator, in, out *objects.HiddenClass) {
	inID := uint32(0)
	if in != nil {
		inID = in.ID()
	}
	h.calls = append(h.calls, fmt.Sprintf("%s in=%d out=%d@%#x", c, inID, out.ID(), out.Addr()))
}

func (h *hookLog) ClassifyMiss(source.Site, bool) profiler.MissKind { return profiler.MissOther }

// seedOf recovers the seed NewSpace derived a space's base from, so a
// direct build can reproduce a space drawn with seed 0.
func seedOf(s *objects.Space) uint64 { return (s.Base() - 0x5500_0000_0000) / 0x4000_0000 }

// realmPairing walks a VM built from the template and a VM whose builtins
// were constructed directly, pairing objects and hidden classes and
// reporting every difference.
type realmPairing struct {
	t    *testing.T
	objs map[*objects.Object]*objects.Object
	hcs  map[*objects.HiddenClass]*objects.HiddenClass
}

func (p *realmPairing) obj(path string, a, b *objects.Object) {
	p.t.Helper()
	if (a == nil) != (b == nil) {
		p.t.Errorf("%s: object nil %v vs %v", path, a == nil, b == nil)
		return
	}
	if a == nil {
		return
	}
	if prev, seen := p.objs[a]; seen {
		if prev != b {
			p.t.Errorf("%s: object #%d pairs with two objects", path, a.ID())
		}
		return
	}
	p.objs[a] = b
	if a.ID() != b.ID() || a.Addr() != b.Addr() {
		p.t.Errorf("%s: object #%d@%#x vs #%d@%#x", path, a.ID(), a.Addr(), b.ID(), b.Addr())
	}
	if a.IsProto() != b.IsProto() || a.IsArray() != b.IsArray() || a.IsDictionary() != b.IsDictionary() || a.Len() != b.Len() {
		p.t.Errorf("%s: object flags differ", path)
	}
	if fa, fb := a.Func(), b.Func(); (fa == nil) != (fb == nil) {
		p.t.Errorf("%s: callable %v vs %v", path, fa != nil, fb != nil)
	} else if fa != nil && (fa.Name != fb.Name || (fa.Native == nil) != (fb.Native == nil) ||
		fa.Code != nil || fb.Code != nil || fa.Ctx != nil || fb.Ctx != nil) {
		p.t.Errorf("%s: function %q vs %q", path, fa.Name, fb.Name)
	} else if fa != nil {
		p.hc(path+".ctor", fa.CtorHC, fb.CtorHC)
	}
	p.hc(path+".hc", a.HC(), b.HC())
	for i, id := range a.HC().FieldIDs() {
		if i >= b.HC().NumFields() {
			break
		}
		name := a.HC().FieldAt(i)
		va, vb := a.Slot(i), b.Slot(i)
		if va.Kind() != vb.Kind() {
			p.t.Errorf("%s.%s: kind %v vs %v", path, name, va.Kind(), vb.Kind())
			continue
		}
		if va.IsObject() {
			p.obj(path+"."+name, va.Obj(), vb.Obj())
		} else if va.ToString() != vb.ToString() {
			p.t.Errorf("%s.%s (symbol %d): %s vs %s", path, name, id, va.ToString(), vb.ToString())
		}
	}
}

func (p *realmPairing) hc(path string, a, b *objects.HiddenClass) {
	p.t.Helper()
	if (a == nil) != (b == nil) {
		p.t.Errorf("%s: class nil %v vs %v", path, a == nil, b == nil)
		return
	}
	if a == nil {
		return
	}
	if prev, seen := p.hcs[a]; seen {
		if prev != b {
			p.t.Errorf("%s: class #%d pairs with two classes", path, a.ID())
		}
		return
	}
	p.hcs[a] = b
	if a.ID() != b.ID() || a.Addr() != b.Addr() || a.Ordinal() != b.Ordinal() {
		p.t.Errorf("%s: class #%d/%d@%#x vs #%d/%d@%#x", path, a.ID(), a.Ordinal(), a.Addr(), b.ID(), b.Ordinal(), b.Addr())
	}
	if a.Creator() != b.Creator() || a.IsDictionary() != b.IsDictionary() ||
		fmt.Sprint(a.FieldIDs()) != fmt.Sprint(b.FieldIDs()) || a.TransitionCount() != b.TransitionCount() {
		p.t.Errorf("%s: class %s vs %s", path, a.LayoutSignature(), b.LayoutSignature())
	}
	p.obj(path+".proto", a.Proto(), b.Proto())
	p.hc(path+".parent", a.Parent(), b.Parent())
	var ta, tb []*objects.HiddenClass
	a.WalkTransitions(func(h *objects.HiddenClass) { ta = append(ta, h) })
	b.WalkTransitions(func(h *objects.HiddenClass) { tb = append(tb, h) })
	if len(ta) != len(tb) {
		p.t.Errorf("%s: %d vs %d classes reachable by transition", path, len(ta), len(tb))
		return
	}
	for i := range ta {
		p.hc(fmt.Sprintf("%s~%d", path, i), ta[i], tb[i])
	}
}

// TestRealmCloneMatchesConstruction checks that a VM instantiated from the
// builtin template is the VM a direct setupBuiltins build produces in the
// same space: every object and class with its id, address, creator,
// prototype, layout, transitions, slot values (natives by name) and
// prototype flag, the space's epoch and next allocation, the builtin
// registration order, and the startup hook calls.
func TestRealmCloneMatchesConstruction(t *testing.T) {
	golden, err := os.ReadFile("testdata/builtin_names.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{0, 1, 12345} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			var cloneHooks, directHooks hookLog
			v := New(Options{AddressSeed: seed, Hooks: &cloneHooks})
			d := constructBuiltins(seedOf(v.Space))
			d.hooks = &directHooks
			d.finishStartup()
			if v.Space.Base() != d.Space.Base() {
				t.Fatalf("spaces differ: %#x vs %#x", v.Space.Base(), d.Space.Base())
			}

			p := &realmPairing{t: t, objs: map[*objects.Object]*objects.Object{}, hcs: map[*objects.HiddenClass]*objects.HiddenClass{}}
			p.obj("global", v.global, d.global)
			for _, pair := range []struct {
				name string
				a, b *objects.Object
			}{
				{"Object.prototype", v.objectProto, d.objectProto},
				{"Function.prototype", v.functionProto, d.functionProto},
				{"Array.prototype", v.arrayProto, d.arrayProto},
			} {
				p.obj(pair.name, pair.a, pair.b)
			}
			p.hc("EmptyObject", v.emptyObjectHC, d.emptyObjectHC)
			p.hc("Array", v.arrayHC, d.arrayHC)
			p.hc("Function", v.functionHC, d.functionHC)
			p.hc("FunctionPrototype", v.fnProtoRootHC, d.fnProtoRootHC)
			if len(v.Roots()) != len(d.Roots()) {
				t.Fatalf("%d roots vs %d", len(v.Roots()), len(d.Roots()))
			}
			for i := range v.Roots() {
				p.hc(fmt.Sprintf("root %d", i), v.Roots()[i], d.Roots()[i])
			}
			if len(v.Builtins()) != len(d.Builtins()) {
				t.Fatalf("%d builtin classes vs %d", len(v.Builtins()), len(d.Builtins()))
			}
			for i, b := range v.Builtins() {
				if b.Name != d.Builtins()[i].Name {
					t.Errorf("builtin %d: %s vs %s", i, b.Name, d.Builtins()[i].Name)
				}
				p.hc(b.Name, b.HC, d.Builtins()[i].HC)
			}
			// Every registration, string methods included, pairs with the
			// object registered under the same name.
			names := v.BuiltinObjectNames()
			if got := strings.Join(names, "\n") + "\n"; got != string(golden) {
				t.Errorf("builtin names differ from testdata/builtin_names.golden")
			}
			first := map[string]*objects.Object{}
			for _, r := range d.builtinRegs {
				if _, ok := first[r.Name]; !ok {
					first[r.Name] = r.Obj
				}
			}
			for _, name := range names {
				p.obj(name, v.BuiltinObjectByName(name), first[name])
			}
			if v.Space.ProtoEpoch() != d.Space.ProtoEpoch() {
				t.Errorf("prototype epoch %d vs %d", v.Space.ProtoEpoch(), d.Space.ProtoEpoch())
			}
			na, nb := v.Space.NewObject(v.emptyObjectHC), d.Space.NewObject(d.emptyObjectHC)
			if na.ID() != nb.ID() || na.Addr() != nb.Addr() {
				t.Errorf("next allocation #%d@%#x vs #%d@%#x", na.ID(), na.Addr(), nb.ID(), nb.Addr())
			}
			// Ids count allocations, the space's dictionary class first:
			// every object and class startup allocated was paired.
			if paired := len(p.objs) + len(p.hcs) + 1; paired != int(na.ID())-1 {
				t.Errorf("paired %d objects and %d classes of %d allocations", len(p.objs), len(p.hcs), na.ID()-1)
			}
			if strings.Join(cloneHooks.calls, "\n") != strings.Join(directHooks.calls, "\n") {
				t.Errorf("startup hook calls differ:\n%s\nvs\n%s",
					strings.Join(cloneHooks.calls, "\n"), strings.Join(directHooks.calls, "\n"))
			}
			if len(cloneHooks.calls) != len(v.Builtins()) {
				t.Errorf("%d hook calls for %d builtin classes", len(cloneHooks.calls), len(v.Builtins()))
			}
		})
	}
}

// TestRealmCopiesShareNoMutableState checks two VMs from the template own
// disjoint builtins: no object, class or slot array in common, and the
// template itself never handed out.
func TestRealmCopiesShareNoMutableState(t *testing.T) {
	a, b := New(Options{AddressSeed: 1}), New(Options{AddressSeed: 1})
	r := builtinRealm()
	for _, name := range a.BuiltinObjectNames() {
		oa, ob := a.BuiltinObjectByName(name), b.BuiltinObjectByName(name)
		if oa == ob {
			t.Errorf("%s: engines share one object", name)
		}
		if oa.HC() == ob.HC() {
			t.Errorf("%s: engines share one hidden class", name)
		}
		if n := oa.HC().NumFields(); n > 0 {
			oa.SetSlot(0, objects.Num(42))
			if ob.Slot(0).Num() == 42 && ob.Slot(0).IsNumber() {
				t.Errorf("%s: engines share slot storage", name)
			}
		}
	}
	for _, tmpl := range r.b.builtinRegs {
		if tmpl.Obj == a.BuiltinObjectByName(tmpl.Name) {
			t.Errorf("%s: engine holds the template object", tmpl.Name)
		}
	}
}
