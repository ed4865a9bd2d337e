package analysis

import (
	"sort"

	"ricjs/internal/bytecode"
	"ricjs/internal/objects"
)

// Primitive bit-set components of an abstract value. Numbers split into
// two components forming the value-type lattice's only non-trivial chain:
// pInt (SmallInt — integral, int32 range) ⊑ pInt|pFlo (any number).
const (
	pUndef uint8 = 1 << iota
	pNull
	pBool
	// pInt is an integral number in int32 range (an unboxable SmallInt).
	// Only operations that guarantee the range produce it: int32-range
	// integer constants and the ToInt32 bit operations. General arithmetic
	// widens to pNum — no bounded integer class is inductive under
	// addition, so claiming otherwise would be unsound.
	pInt
	// pFlo is a number that may fall outside the SmallInt class.
	pFlo
	pStr

	// pNum is the full number component, SmallInt ⊔ Float.
	pNum = pInt | pFlo
)

// absVal is an abstract JS value: a may-set of primitive kinds plus a
// may-set of abstract objects, or ⊤ (any value, including unknown
// objects). Values are treated as immutable — mutation always goes through
// copies — so they can be shared freely between stack slots and cells.
type absVal struct {
	top   bool
	prims uint8
	objs  map[*absObj]bool
}

var topVal = absVal{top: true}

func primVal(p uint8) absVal { return absVal{prims: p} }

func objVal(o *absObj) absVal {
	return absVal{objs: map[*absObj]bool{o: true}}
}

func (v absVal) isBottom() bool { return !v.top && v.prims == 0 && len(v.objs) == 0 }

// maybeObj reports whether the value may be an object (⊤ included).
func (v absVal) maybeObj() bool { return v.top || len(v.objs) > 0 }

// maybeString reports whether the value may be a string.
func (v absVal) maybeString() bool { return v.top || v.prims&pStr != 0 }

// numericOnly reports whether the value is definitely a number (relevant
// for keyed access: numeric keys on arrays hit element storage, never
// named properties).
func (v absVal) numericOnly() bool {
	return !v.top && len(v.objs) == 0 && v.prims != 0 && v.prims&^pNum == 0
}

// objsSorted returns the object set in id order, for deterministic
// iteration wherever processing order affects shape-creation order.
func (v absVal) objsSorted() []*absObj {
	out := make([]*absObj, 0, len(v.objs))
	for o := range v.objs {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// join returns v ⊔ w.
func (v absVal) join(w absVal) absVal {
	if v.top || w.top {
		return topVal
	}
	if w.prims == 0 && len(w.objs) == 0 {
		return v
	}
	if v.prims == 0 && len(v.objs) == 0 {
		return w
	}
	out := absVal{prims: v.prims | w.prims}
	if len(v.objs) > 0 || len(w.objs) > 0 {
		out.objs = make(map[*absObj]bool, len(v.objs)+len(w.objs))
		for o := range v.objs {
			out.objs[o] = true
		}
		for o := range w.objs {
			out.objs[o] = true
		}
		// No size cap here: silently widening a join to ⊤ would drop
		// tracked objects into ⊤ without escaping them, breaking the
		// invariant that ⊤ only aliases escaped objects. Object counts are
		// bounded by allocation sites, so joins stay finite regardless.
	}
	return out
}

// leq reports v ⊑ w.
func (v absVal) leq(w absVal) bool {
	if w.top {
		return true
	}
	if v.top {
		return false
	}
	if v.prims&^w.prims != 0 || len(v.objs) > len(w.objs) {
		return false
	}
	if len(v.objs) == 0 {
		return true
	}
	for o := range v.objs {
		if !w.objs[o] {
			return false
		}
	}
	return true
}

// numKind classifies a numeric constant into the lattice's number
// components: SmallInt when the runtime SmallInt predicate holds, Float
// otherwise.
func numKind(f float64) uint8 {
	if objects.IsSmallInt(f) {
		return pInt
	}
	return pFlo
}

// slotTypeOf collapses an abstract value into the slot-type lattice
// element used for typed-shape claims. ⊤ and empty (⊥) values, and any
// mix of objects with primitives, are unclaimable.
func slotTypeOf(v absVal) objects.SlotType {
	if v.top {
		return objects.SlotTypeNone
	}
	t := objects.SlotTypeBottom
	if len(v.objs) > 0 {
		t = objects.SlotTypeObject
	}
	if v.prims&pInt != 0 {
		t = t.Join(objects.SlotTypeSmallInt)
	}
	if v.prims&pFlo != 0 {
		t = t.Join(objects.SlotTypeFloat)
	}
	if v.prims&pStr != 0 {
		t = t.Join(objects.SlotTypeString)
	}
	if v.prims&pBool != 0 {
		t = t.Join(objects.SlotTypeBoolean)
	}
	if v.prims&(pUndef|pNull) != 0 {
		t = t.Join(objects.SlotTypeNullUndef)
	}
	return t
}

// cell is a monotone container for an abstract value (an object field, a
// context slot, a function parameter, ...). update returns whether the
// cell grew, which drives the fixpoint.
type cell struct {
	v absVal
}

func newCell() *cell { return &cell{} }

func (c *cell) update(v absVal) bool {
	if v.leq(c.v) {
		return false
	}
	c.v = c.v.join(v)
	return true
}

func (c *cell) get() absVal { return c.v }

// shapeSet is a may-set of shapes an abstract object can have, or ⊤
// (unknown layout history — e.g. computed property names or escape).
type shapeSet struct {
	top bool
	set map[*Shape]bool
}

func (ss *shapeSet) add(s *Shape) bool {
	if ss.top || ss.set[s] {
		return false
	}
	if ss.set == nil {
		ss.set = make(map[*Shape]bool, 2)
	}
	ss.set[s] = true
	return true
}

func (ss *shapeSet) widen() bool {
	if ss.top {
		return false
	}
	ss.top = true
	ss.set = nil
	return true
}

func (ss *shapeSet) sorted() []*Shape {
	out := make([]*Shape, 0, len(ss.set))
	for s := range ss.set {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// maxObjShapes bounds per-object shape-set growth. Sequential stores of n
// distinct properties can reach up to 2^n shapes (a transition from every
// held shape lacking the field), so this must comfortably exceed 2^p for
// the largest literal/constructor property count the workloads use.
const maxObjShapes = 128

// absObj is an abstract heap object: one allocation site (or builtin /
// per-native summary object), a may-set of shapes, and monotone field
// cells. A single absObj summarizes every runtime object its allocation
// produces, so field updates are always weak.
type absObj struct {
	id    int
	label string

	isArray bool
	isFunc  bool
	// native is the qualified builtin name when this object is a
	// registered builtin (function or object), e.g. "Array.prototype.push"
	// or "Math"; it keys the native call models.
	native string
	// fns is the set of compiled functions a closure object may wrap.
	fns map[*bytecode.FuncProto]bool

	shapes shapeSet
	// fields maps known property names to value cells.
	fields map[string]*cell
	// unknown holds values stored under statically-unknown property names.
	unknown *cell
	// elems holds array element values.
	elems *cell
	// protos is the may-set of prototype objects; protoTop means the
	// prototype chain is unknown.
	protos   map[*absObj]bool
	protoTop bool

	// roots accumulates the root shape of every lineage this object ever
	// held. Unlike the shape set it survives widening and escape, so the
	// typed-shape pass can still tell WHICH lineages an untrackable object
	// may reach (and poison exactly those) after the precise set is gone.
	roots map[*Shape]bool

	// escaped marks objects reachable from ⊤ (unknown code may mutate
	// them arbitrarily); their shape set is ⊤ and their fields are ⊤.
	escaped bool
	// maybeDict marks objects that may have been demoted to dictionary
	// mode (delete); dictionary receivers bypass ICs entirely, so this
	// only feeds diagnostics.
	maybeDict bool
}

func (o *absObj) unknownCell() *cell {
	if o.unknown == nil {
		o.unknown = newCell()
	}
	return o.unknown
}

func (o *absObj) elemCell() *cell {
	if o.elems == nil {
		o.elems = newCell()
	}
	return o.elems
}

func (o *absObj) field(name string) *cell {
	c, ok := o.fields[name]
	if !ok {
		c = newCell()
		if o.fields == nil {
			o.fields = make(map[string]*cell, 4)
		}
		o.fields[name] = c
	}
	return c
}

// fieldNames returns the known field names sorted, for deterministic
// iteration.
func (o *absObj) fieldNames() []string {
	out := make([]string, 0, len(o.fields))
	for n := range o.fields {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (o *absObj) addProto(p *absObj) bool {
	if o.protos[p] {
		return false
	}
	if o.protos == nil {
		o.protos = make(map[*absObj]bool, 1)
	}
	o.protos[p] = true
	return true
}
