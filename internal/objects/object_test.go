package objects

import (
	"reflect"
	"testing"
	"testing/quick"
)

func newTestSpace() (*Space, *HiddenClass) {
	s := NewSpace(1)
	return s, s.NewRootHC(nil, Creator{Builtin: "EmptyObject"})
}

func TestNewObjectStartsEmpty(t *testing.T) {
	s, root := newTestSpace()
	o := s.NewObject(root)
	if o.HC() != root {
		t.Fatal("object must start at the root HC")
	}
	if v, ok, _ := o.GetOwn("x"); ok || !v.IsUndefined() {
		t.Fatal("empty object must have no own properties")
	}
	if o.IsDictionary() || o.IsArray() {
		t.Fatal("fresh object must be fast-mode, non-array")
	}
}

func TestAddOwnTransitionsAndStores(t *testing.T) {
	s, root := newTestSpace()
	o := s.NewObject(root)
	hc1, created := o.AddOwn(s, "x", Num(10), siteCreator(2, 3))
	if !created || hc1 == nil {
		t.Fatal("first add must create a hidden class")
	}
	if o.HC() != hc1 {
		t.Fatal("object must move to the transition target")
	}
	if v, ok, _ := o.GetOwn("x"); !ok || v.Num() != 10 {
		t.Fatalf("GetOwn(x) = %v,%v", v, ok)
	}

	// A second object following the same path shares hidden classes and
	// does not create new ones.
	p := s.NewObject(root)
	hcP, created := p.AddOwn(s, "x", Num(30), siteCreator(2, 3))
	if created || hcP != hc1 {
		t.Fatal("shape must be shared between objects built the same way")
	}
	if v, _, _ := o.GetOwn("x"); v.Num() != 10 {
		t.Fatal("objects must not share slot storage")
	}
}

func TestSetNamedOverwriteVsAdd(t *testing.T) {
	s, root := newTestSpace()
	o := s.NewObject(root)
	o.AddOwn(s, "x", Num(1), siteCreator(1, 1))
	hcBefore := o.HC()
	next, created := o.SetNamed(s, "x", Num(2), siteCreator(5, 5))
	if created || next != nil {
		t.Fatal("overwriting must not transition")
	}
	if o.HC() != hcBefore {
		t.Fatal("overwriting must keep the hidden class")
	}
	if v, _, _ := o.GetOwn("x"); v.Num() != 2 {
		t.Fatal("overwrite lost the value")
	}
	next, created = o.SetNamed(s, "y", Num(3), siteCreator(6, 6))
	if !created || next == nil {
		t.Fatal("adding must transition")
	}
}

func TestLookupThroughPrototypeChain(t *testing.T) {
	s, root := newTestSpace()
	grandproto := s.NewObject(root)
	grandproto.AddOwn(s, "deep", Num(1), siteCreator(1, 1))
	protoHC := s.NewRootHC(grandproto, Creator{Builtin: "P.prototype"})
	proto := s.NewObject(protoHC)
	proto.AddOwn(s, "mid", Num(2), siteCreator(2, 1))
	objHC := s.NewRootHC(proto, Creator{Builtin: "P"})
	o := s.NewObject(objHC)
	o.AddOwn(s, "own", Num(3), siteCreator(3, 1))

	holder, off, ok, _ := o.Lookup("own")
	if !ok || holder != o || off != 0 {
		t.Fatalf("own lookup = %v,%d,%v", holder, off, ok)
	}
	holder, _, ok, _ = o.Lookup("mid")
	if !ok || holder != proto {
		t.Fatal("prototype property not found")
	}
	holder, _, ok, _ = o.Lookup("deep")
	if !ok || holder != grandproto {
		t.Fatal("grandprototype property not found")
	}
	if _, _, ok, _ = o.Lookup("missing"); ok {
		t.Fatal("missing property reported found")
	}
	if v, ok := o.GetNamed("mid"); !ok || v.Num() != 2 {
		t.Fatalf("GetNamed(mid) = %v,%v", v, ok)
	}
	if v, ok := o.GetNamed("nope"); ok || !v.IsUndefined() {
		t.Fatal("GetNamed for missing must be undefined,false")
	}
}

func TestLookupStepsGrowWithChain(t *testing.T) {
	s, root := newTestSpace()
	proto := s.NewObject(root)
	proto.AddOwn(s, "p", Num(1), siteCreator(1, 1))
	oHC := s.NewRootHC(proto, Creator{Builtin: "C"})
	o := s.NewObject(oHC)

	_, _, _, ownSteps := proto.Lookup("p")
	_, _, _, chainSteps := o.Lookup("p")
	if chainSteps <= ownSteps {
		t.Fatalf("chain lookup steps (%d) must exceed own lookup steps (%d)", chainSteps, ownSteps)
	}
}

func TestDeleteDemotesToDictionary(t *testing.T) {
	s, root := newTestSpace()
	proto := s.NewObject(root)
	proto.AddOwn(s, "inherited", Num(9), siteCreator(1, 1))
	oHC := s.NewRootHC(proto, Creator{Builtin: "C"})
	o := s.NewObject(oHC)
	o.AddOwn(s, "a", Num(1), siteCreator(2, 1))
	o.AddOwn(s, "b", Num(2), siteCreator(3, 1))

	if !o.Delete(s, "a") {
		t.Fatal("delete of existing property must report true")
	}
	if !o.IsDictionary() {
		t.Fatal("delete must demote to dictionary mode")
	}
	if o.HC() != s.DictHC() {
		t.Fatal("dictionary object must use the shared dictionary HC")
	}
	if _, ok, _ := o.GetOwn("a"); ok {
		t.Fatal("deleted property still present")
	}
	if v, ok, _ := o.GetOwn("b"); !ok || v.Num() != 2 {
		t.Fatal("surviving property lost")
	}
	// The prototype chain must survive demotion.
	if v, ok := o.GetNamed("inherited"); !ok || v.Num() != 9 {
		t.Fatal("prototype lost after demotion")
	}
	if o.Delete(s, "nope") {
		t.Fatal("delete of missing property must report false")
	}
	// Dictionary adds must not create hidden classes.
	next, created := o.SetNamed(s, "c", Num(3), siteCreator(4, 1))
	if created || next != nil {
		t.Fatal("dictionary set must not transition")
	}
	if got := o.OwnKeys(); !reflect.DeepEqual(got, []string{"b", "c"}) {
		t.Fatalf("OwnKeys = %v", got)
	}
}

func TestArrayElements(t *testing.T) {
	s, root := newTestSpace()
	a := s.NewArray(root, []Value{Num(1), Num(2)})
	if !a.IsArray() || a.Len() != 2 {
		t.Fatal("array misconstructed")
	}
	if a.Elem(0).Num() != 1 || a.Elem(1).Num() != 2 {
		t.Fatal("element reads broken")
	}
	if !a.Elem(5).IsUndefined() || !a.Elem(-1).IsUndefined() {
		t.Fatal("out-of-range reads must be undefined")
	}
	a.SetElem(4, Num(5))
	if a.Len() != 5 || !a.Elem(2).IsUndefined() || a.Elem(4).Num() != 5 {
		t.Fatal("growing write broken")
	}
	a.SetElem(-1, Num(9)) // ignored
	if a.Len() != 5 {
		t.Fatal("negative index must be ignored")
	}
	a.SetLen(2)
	if a.Len() != 2 || !a.Elem(4).IsUndefined() {
		t.Fatal("truncation broken")
	}
	a.SetLen(4)
	if a.Len() != 4 || !a.Elem(3).IsUndefined() {
		t.Fatal("growth via SetLen broken")
	}
	a.SetLen(-3)
	if a.Len() != 0 {
		t.Fatal("negative length must clamp to 0")
	}
	a.SetElems([]Value{Str("x")})
	if a.Len() != 1 || a.Elems()[0].Str() != "x" {
		t.Fatal("SetElems broken")
	}
}

func TestOwnKeysFastMode(t *testing.T) {
	s, root := newTestSpace()
	o := s.NewObject(root)
	o.AddOwn(s, "b", Num(1), siteCreator(1, 1))
	o.AddOwn(s, "a", Num(2), siteCreator(2, 1))
	if got := o.OwnKeys(); !reflect.DeepEqual(got, []string{"b", "a"}) {
		t.Fatalf("OwnKeys = %v (must be insertion order)", got)
	}
	arr := s.NewArray(root, []Value{Num(0), Num(0)})
	arr.AddOwn(s, "tag", Num(1), siteCreator(3, 1))
	if got := arr.OwnKeys(); !reflect.DeepEqual(got, []string{"0", "1", "tag"}) {
		t.Fatalf("array OwnKeys = %v", got)
	}
}

func TestFunctionObject(t *testing.T) {
	s, root := newTestSpace()
	fd := &FunctionData{Name: "f", Native: func(this Value, args []Value) (Value, error) {
		return Num(42), nil
	}}
	f := s.NewFunction(root, fd)
	if f.Func() != fd {
		t.Fatal("Func() must return the function data")
	}
	if !Obj(f).IsCallable() {
		t.Fatal("function object must be callable")
	}
	if Obj(s.NewObject(root)).IsCallable() {
		t.Fatal("plain object must not be callable")
	}
}

func TestContextChain(t *testing.T) {
	root := NewContext(nil, 2)
	child := NewContext(root, 1)
	grand := NewContext(child, 3)
	if grand.At(0) != grand || grand.At(1) != child || grand.At(2) != root {
		t.Fatal("context chain traversal broken")
	}
	root.Slots[1] = Num(7)
	if grand.At(2).Slots[1].Num() != 7 {
		t.Fatal("slot access through chain broken")
	}
}

func TestObjectAddressesDistinct(t *testing.T) {
	s, root := newTestSpace()
	a, b := s.NewObject(root), s.NewObject(root)
	if a.Addr() == b.Addr() || a.ID() == b.ID() {
		t.Fatal("objects must get distinct addresses and ids")
	}
}

// Property: after any sequence of sets/deletes, reads through the object
// agree with a plain map model.
func TestObjectModelEquivalenceProperty(t *testing.T) {
	type op struct {
		Name byte
		Val  uint8
		Del  bool
	}
	names := []string{"a", "b", "c", "d"}
	f := func(ops []op) bool {
		s, root := newTestSpace()
		o := s.NewObject(root)
		model := map[string]float64{}
		for i, operation := range ops {
			n := names[int(operation.Name)%len(names)]
			if operation.Del {
				o.Delete(s, n)
				delete(model, n)
				continue
			}
			v := float64(operation.Val)
			o.SetNamed(s, n, Num(v), siteCreator(1, uint32(i)+1))
			model[n] = v
		}
		for _, n := range names {
			got, ok, _ := o.GetOwn(n)
			want, exists := model[n]
			if ok != exists {
				return false
			}
			if ok && got.Num() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
