package objects

import (
	"strings"
	"testing"
)

// templateFixture builds a small realm-like heap in a fresh space: a
// prototype with a method, a namespace object holding a self reference
// and a number, a function object, and a class with two transitions.
func templateFixture(seed uint64) (s *Space, global *Object, roots []*HiddenClass) {
	s = NewSpace(seed)
	protoHC := s.NewRootHC(nil, Creator{Builtin: "Proto#root"})
	proto := s.NewObject(protoHC)
	fnHC := s.NewRootHC(proto, Creator{Builtin: "Function"})
	method := s.NewFunction(fnHC, &FunctionData{Name: "m", Native: func(any, Value, []Value) (Value, error) {
		return Num(7), nil
	}})
	proto.AddOwn(s, "m", Obj(method), Creator{Builtin: "Proto.m"})
	globalHC := s.NewRootHC(proto, Creator{Builtin: "(global)#root"})
	global = s.NewObject(globalHC)
	global.AddOwn(s, "self", Obj(global), Creator{Builtin: "global.self"})
	global.AddOwn(s, "n", Num(3), Creator{Builtin: "global.n"})
	global.AddOwn(s, "s", Str("text"), Creator{Builtin: "global.s"})
	return s, global, []*HiddenClass{protoHC, fnHC, globalHC}
}

// TestTemplateInstantiateMatchesDirectBuild instantiates a frozen heap
// into a fresh space and checks it against the same heap built directly
// in a space with that seed: ids, addresses, layouts, prototypes, slot
// values and the space's next allocation.
func TestTemplateInstantiateMatchesDirectBuild(t *testing.T) {
	ts, tglobal, troots := templateFixture(1)
	tmpl := ts.Freeze([]*Object{tglobal}, troots)
	for _, seed := range []uint64{2, 99} {
		ds, dglobal, droots := templateFixture(seed)
		cs := NewSpace(seed)
		h := tmpl.Instantiate(cs)
		cglobal := h.Object(tglobal)
		if cglobal == tglobal {
			t.Fatal("instance handed out the template object")
		}
		for i, root := range troots {
			c, d := h.HC(root), droots[i]
			if c.ID() != d.ID() || c.Addr() != d.Addr() || c.Creator() != d.Creator() {
				t.Errorf("seed %d root %d: %s vs %s", seed, i, c, d)
			}
		}
		var cmp func(path string, c, d *Object)
		seen := map[*Object]bool{}
		cmp = func(path string, c, d *Object) {
			if seen[c] {
				return
			}
			seen[c] = true
			if c.ID() != d.ID() || c.Addr() != d.Addr() || c.IsProto() != d.IsProto() {
				t.Errorf("seed %d %s: #%d@%#x proto=%v vs #%d@%#x proto=%v", seed, path,
					c.ID(), c.Addr(), c.IsProto(), d.ID(), d.Addr(), d.IsProto())
			}
			if c.HC().LayoutSignature() != d.HC().LayoutSignature() || c.HC().Addr() != d.HC().Addr() {
				t.Errorf("seed %d %s: class %s vs %s", seed, path, c.HC(), d.HC())
			}
			if p := c.Proto(); p != nil {
				cmp(path+".__proto__", p, d.Proto())
			}
			for i := 0; i < c.HC().NumFields(); i++ {
				cv, dv := c.Slot(i), d.Slot(i)
				if cv.IsObject() {
					cmp(path+"."+c.HC().FieldAt(i), cv.Obj(), dv.Obj())
				} else if cv.ToString() != dv.ToString() {
					t.Errorf("seed %d %s[%d]: %s vs %s", seed, path, i, cv.ToString(), dv.ToString())
				}
			}
			if (c.Func() == nil) != (d.Func() == nil) {
				t.Errorf("seed %d %s: callable mismatch", seed, path)
			}
		}
		cmp("global", cglobal, dglobal)
		if self, _ := cglobal.GetNamed("self"); self.Obj() != cglobal {
			t.Errorf("seed %d: self reference not remapped", seed)
		}
		if cs.ProtoEpoch() != ds.ProtoEpoch() {
			t.Errorf("seed %d: epoch %d vs %d", seed, cs.ProtoEpoch(), ds.ProtoEpoch())
		}
		cn, dn := cs.NewObject(h.HC(troots[0])), ds.NewObject(droots[0])
		if cn.ID() != dn.ID() || cn.Addr() != dn.Addr() {
			t.Errorf("seed %d: next allocation #%d@%#x vs #%d@%#x", seed, cn.ID(), cn.Addr(), dn.ID(), dn.Addr())
		}
		if h.Object(nil) != nil || h.HC(nil) != nil {
			t.Error("nil must map to nil")
		}
	}
}

// TestTemplateInstancesAreIndependent writes to one instance's objects,
// classes and transition tables and checks neither the template nor a
// second instance sees it.
func TestTemplateInstancesAreIndependent(t *testing.T) {
	ts, tglobal, troots := templateFixture(1)
	tmpl := ts.Freeze([]*Object{tglobal}, troots)
	s1, s2 := NewSpace(5), NewSpace(6)
	h1, h2 := tmpl.Instantiate(s1), tmpl.Instantiate(s2)
	g1, g2 := h1.Object(tglobal), h2.Object(tglobal)
	g1.SetNamed(s1, "n", Num(4), Creator{})
	g1.AddOwn(s1, "extra", Num(1), Creator{Builtin: "x"})
	proto1 := g1.Proto()
	proto1.AddOwn(s1, "patched", Bool(true), Creator{Builtin: "y"})
	if v, _ := g2.GetNamed("n"); v.Num() != 3 {
		t.Errorf("second instance reads n = %v", v.ToString())
	}
	if v, _ := tglobal.GetNamed("n"); v.Num() != 3 {
		t.Errorf("template reads n = %v", v.ToString())
	}
	if _, ok := g2.GetNamed("patched"); ok {
		t.Error("a prototype patch leaked into another instance")
	}
	if g2.HC().TransitionCount() != 0 || tglobal.HC().TransitionCount() != 0 {
		t.Error("a transition leaked out of its instance")
	}
	if s2.ProtoEpoch() != ts.ProtoEpoch() || s1.ProtoEpoch() == ts.ProtoEpoch() {
		t.Errorf("epochs: template %d, patched %d, untouched %d", ts.ProtoEpoch(), s1.ProtoEpoch(), s2.ProtoEpoch())
	}
	if f, _ := g2.Proto().GetNamed("m"); f.Obj().Func() == nil || f.Obj().Func() == tmplFunc(tglobal) {
		t.Error("instance function data must be its own copy")
	}
}

func tmplFunc(global *Object) *FunctionData {
	f, _ := global.Proto().GetNamed("m")
	return f.Obj().Func()
}

// TestTemplateRejectsUnsupportedHeaps checks Freeze refuses what a copy
// could not reproduce, and Instantiate a space already in use.
func TestTemplateRejectsUnsupportedHeaps(t *testing.T) {
	mustPanic := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil || !strings.Contains(r.(string), want) {
				t.Errorf("%s: panic %v, want one mentioning %q", name, r, want)
			}
		}()
		f()
	}
	mustPanic("dictionary object", "fast-mode", func() {
		s, global, roots := templateFixture(1)
		global.Delete(s, "n")
		s.Freeze([]*Object{global}, roots)
	})
	mustPanic("array elements", "fast-mode", func() {
		s, global, roots := templateFixture(1)
		arr := s.NewArray(roots[0], []Value{Num(1)})
		global.AddOwn(s, "arr", Obj(arr), Creator{Builtin: "global.arr"})
		s.Freeze([]*Object{global}, roots)
	})
	mustPanic("map transitions", "linear transition", func() {
		s, global, roots := templateFixture(1)
		for _, name := range []string{"a", "b", "c", "d", "e", "f", "g", "h", "i"} {
			roots[0].Transition(s, name, Creator{Builtin: name})
		}
		s.Freeze([]*Object{global}, roots)
	})
	mustPanic("used space", "fresh space", func() {
		s, global, roots := templateFixture(1)
		tmpl := s.Freeze([]*Object{global}, roots)
		used := NewSpace(3)
		used.NewRootHC(nil, Creator{})
		tmpl.Instantiate(used)
	})
}
