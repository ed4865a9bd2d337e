package objects

import (
	"fmt"
	"sort"

	"ricjs/internal/symtab"
)

// Template is a frozen heap: the objects and hidden classes a space
// allocated, captured once and never written again, so any number of
// goroutines may instantiate it at once. Instantiate copies it into a
// fresh space as one flat block per kind — objects, hidden classes, slot
// values, function data and transition tables — with every pointer
// remapped to the copy and every id and simulated address assigned by
// the destination space in the template's allocation order. No mutable
// object, hidden class, slot array or transition table is shared between
// two instances; only the immutable layout arrays (a class's field IDs)
// and native function values are.
type Template struct {
	objs []*Object      // captured objects, in allocation order
	hcs  []*HiddenClass // captured hidden classes, in allocation order
	// index maps an id of the template space to the position of its
	// object in objs or its hidden class in hcs.
	index []int32

	base, stride uint64 // the template space's address layout
	nextID       uint32
	allocs       uint64 // addresses the template space handed out
	protoEpoch   uint64

	nslots, nfuncs, ntrans int
}

// Freeze captures every object and hidden class reachable from the given
// roots as a template. The space must not be used afterwards: the
// template reads its objects in place on every Instantiate.
func (s *Space) Freeze(objRoots []*Object, hcRoots []*HiddenClass) *Template {
	t := &Template{
		base:       s.base,
		stride:     s.stride,
		nextID:     s.nextID,
		allocs:     (s.next - s.base) / s.stride,
		protoEpoch: s.protoEpoch,
	}
	seenObj := map[*Object]bool{}
	seenHC := map[*HiddenClass]bool{}
	var visitObj func(*Object)
	var visitHC func(*HiddenClass)
	visitVal := func(v Value) {
		if o := v.Obj(); o != nil {
			visitObj(o)
		}
	}
	visitObj = func(o *Object) {
		if o == nil || seenObj[o] {
			return
		}
		if o.dict != nil || o.elems != nil || o.fn != nil && (o.fn.Code != nil || o.fn.Ctx != nil) {
			panic(fmt.Sprintf("objects: cannot freeze object #%d: a template holds only fast-mode objects without elements or compiled code", o.id))
		}
		seenObj[o] = true
		t.objs = append(t.objs, o)
		visitHC(o.hc)
		for _, v := range o.slots {
			visitVal(v)
		}
		if o.fn != nil {
			visitHC(o.fn.CtorHC)
		}
	}
	visitHC = func(h *HiddenClass) {
		if h == nil || seenHC[h] {
			return
		}
		if h.transMap != nil {
			panic(fmt.Sprintf("objects: cannot freeze class #%d: a template holds only linear transition tables", h.id))
		}
		seenHC[h] = true
		t.hcs = append(t.hcs, h)
		visitObj(h.proto)
		visitHC(h.parent)
		visitHC(h.lastTransTarget)
		for _, next := range h.transTargets {
			visitHC(next)
		}
	}
	for _, o := range objRoots {
		visitObj(o)
	}
	for _, h := range hcRoots {
		visitHC(h)
	}

	sort.Slice(t.objs, func(i, j int) bool { return t.objs[i].id < t.objs[j].id })
	sort.Slice(t.hcs, func(i, j int) bool { return t.hcs[i].id < t.hcs[j].id })
	t.index = make([]int32, s.nextID+1)
	for i, o := range t.objs {
		t.index[o.id] = int32(i)
		t.nslots += len(o.slots)
		if o.fn != nil {
			t.nfuncs++
		}
	}
	for i, h := range t.hcs {
		t.index[h.id] = int32(i)
		t.ntrans += len(h.transIDs)
	}
	return t
}

// Heap is one instance of a template: the copies Instantiate made, which
// belong to the destination space alone.
type Heap struct {
	t    *Template
	objs []Object
	hcs  []HiddenClass
}

// Instantiate copies the template into s, which must be fresh: NewSpace
// allocated its dictionary class and nothing since, as in the template
// space before it was filled. Afterwards s continues exactly as the
// template space would have: ids, addresses (in s's own layout) and the
// prototype epoch pick up where the template's left off.
func (t *Template) Instantiate(s *Space) Heap {
	if s.nextID != s.dictHC.id {
		panic("objects: Instantiate needs a fresh space")
	}
	h := Heap{
		t:    t,
		objs: make([]Object, len(t.objs)),
		hcs:  make([]HiddenClass, len(t.hcs)),
	}
	vals := make([]Value, t.nslots)
	fns := make([]FunctionData, t.nfuncs)
	transIDs := make([]symtab.ID, t.ntrans)
	transTargets := make([]*HiddenClass, t.ntrans)

	// A large layout's offsets index is left for its first hit to
	// build, as on any new class.
	for i, src := range t.hcs {
		dst := &h.hcs[i]
		*dst = HiddenClass{
			id:              src.id,
			addr:            t.addrIn(s, src.addr),
			fields:          src.fields[:len(src.fields):len(src.fields)],
			lastTransID:     src.lastTransID,
			lastTransTarget: h.HC(src.lastTransTarget),
			proto:           h.Object(src.proto),
			creator:         src.creator,
			parent:          h.HC(src.parent),
			dictionary:      src.dictionary,
		}
		if n := len(src.transIDs); n > 0 {
			dst.transIDs = transIDs[:n:n]
			dst.transTargets = transTargets[:n:n]
			transIDs, transTargets = transIDs[n:], transTargets[n:]
			copy(dst.transIDs, src.transIDs)
			for j, next := range src.transTargets {
				dst.transTargets[j] = h.HC(next)
			}
		}
	}

	for i, src := range t.objs {
		dst := &h.objs[i]
		*dst = Object{
			id:      src.id,
			addr:    t.addrIn(s, src.addr),
			hc:      h.HC(src.hc),
			isArray: src.isArray,
			isProto: src.isProto,
		}
		if n := len(src.slots); n > 0 {
			dst.slots = vals[:n:n]
			vals = vals[n:]
			for j, v := range src.slots {
				dst.slots[j] = h.value(v)
			}
		}
		if src.fn != nil {
			fn := &fns[0]
			fns = fns[1:]
			*fn = *src.fn
			fn.CtorHC = h.HC(src.fn.CtorHC)
			dst.fn = fn
		}
	}

	s.nextID = t.nextID
	s.next = s.base + t.allocs*s.stride
	s.protoEpoch = t.protoEpoch
	return h
}

// addrIn translates a template address into the space s: the same
// allocation ordinal in s's layout.
func (t *Template) addrIn(s *Space, addr uint64) uint64 {
	return s.base + (addr-t.base)/t.stride*s.stride
}

// Object returns the copy of a template object (nil for nil).
func (h Heap) Object(o *Object) *Object {
	if o == nil {
		return nil
	}
	return &h.objs[h.t.index[o.id]]
}

// HC returns the copy of a template hidden class (nil for nil).
func (h Heap) HC(hc *HiddenClass) *HiddenClass {
	if hc == nil {
		return nil
	}
	return &h.hcs[h.t.index[hc.id]]
}

// value remaps an object reference to its copy; other values pass as is.
func (h Heap) value(v Value) Value {
	if o := v.Obj(); o != nil {
		return Obj(h.Object(o))
	}
	return v
}
