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
// objects). Values are immutable — objSets are never written after they
// are built — so they can be shared freely between stack slots and cells.
type absVal struct {
	top   bool
	prims uint8
	// objs is a pointer rather than a slice so that absVal stays 16 bytes:
	// frame states and locals chunks hold absVals by value, and every
	// copy-on-write chunk copy scales with their size.
	objs *objSet
}

var topVal = absVal{top: true}

func primVal(p uint8) absVal { return absVal{prims: p} }

// objVal returns the value holding exactly o, sharing o's singleton set.
func objVal(o *absObj) absVal {
	if o.self == nil {
		o.self = &objSet{objs: []*absObj{o}}
	}
	return absVal{objs: o.self}
}

func (v absVal) isBottom() bool { return !v.top && v.prims == 0 && v.objs == nil }

// maybeObj reports whether the value may be an object (⊤ included).
func (v absVal) maybeObj() bool { return v.top || v.objs != nil }

// maybeString reports whether the value may be a string.
func (v absVal) maybeString() bool { return v.top || v.prims&pStr != 0 }

// numericOnly reports whether the value is definitely a number (relevant
// for keyed access: numeric keys on arrays hit element storage, never
// named properties).
func (v absVal) numericOnly() bool {
	return !v.top && v.objs == nil && v.prims != 0 && v.prims&^pNum == 0
}

// objsSorted returns the object set in id order, for deterministic
// iteration wherever processing order affects shape-creation order. The
// slice is the set itself: callers must not modify it.
func (v absVal) objsSorted() []*absObj { return v.objs.list() }

// join returns v ⊔ w. It allocates only when the object set grows.
//
// No size cap on objects: silently widening a join to ⊤ would drop
// tracked objects into ⊤ without escaping them, breaking the invariant
// that ⊤ only aliases escaped objects. Object counts are bounded by
// allocation sites, so joins stay finite regardless.
func (v absVal) join(w absVal) absVal {
	if v.top || w.top {
		return topVal
	}
	return absVal{prims: v.prims | w.prims, objs: v.objs.union(w.objs)}
}

// leq reports v ⊑ w.
func (v absVal) leq(w absVal) bool {
	if w.top {
		return true
	}
	if v.top || v.prims&^w.prims != 0 {
		return false
	}
	return v.objs.subsetOf(w.objs)
}

// objSet is an immutable set of abstract objects sorted by id; nil is the
// empty set. Sets are shared between values and never modified after
// construction, so a union that adds nothing returns an operand.
type objSet struct {
	objs []*absObj
}

// list returns the members in id order.
func (s *objSet) list() []*absObj {
	if s == nil {
		return nil
	}
	return s.objs
}

// subsetOf reports s ⊆ t by a merge walk over the two id orders.
func (s *objSet) subsetOf(t *objSet) bool {
	if s == t || s == nil {
		return true
	}
	if t == nil || len(s.objs) > len(t.objs) {
		return false
	}
	ts := t.objs
	j := 0
	for _, o := range s.objs {
		for j < len(ts) && ts[j].id < o.id {
			j++
		}
		if j == len(ts) || ts[j] != o {
			return false
		}
		j++
	}
	return true
}

// union returns s ∪ t: s or t itself when it already holds the union, a
// fresh set otherwise.
func (s *objSet) union(t *objSet) *objSet {
	if s == t || t == nil {
		return s
	}
	if s == nil {
		return t
	}
	switch u := unionSorted(s.objs, t.objs); len(u) {
	case len(s.objs):
		return s
	case len(t.objs):
		return t
	default:
		return &objSet{objs: u}
	}
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
	if v.objs != nil {
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
	// set is sorted by shape id and replaced, never modified, on add, so
	// a caller iterating sorted() may add shapes as it goes.
	set []*Shape
}

func (ss *shapeSet) add(s *Shape) bool {
	if ss.top {
		return false
	}
	set, added := insertSorted(ss.set, s)
	ss.set = set
	return added
}

func (ss *shapeSet) widen() bool {
	if ss.top {
		return false
	}
	ss.top = true
	ss.set = nil
	return true
}

// sorted returns the shapes in id order. The slice is the set itself:
// callers must not modify it.
func (ss *shapeSet) sorted() []*Shape { return ss.set }

// sortKey orders the members of the id-sorted sets.
func (o *absObj) sortKey() int { return o.id }
func (s *Shape) sortKey() int  { return s.ID }

// sortKeyed is the element type of an id-sorted set.
type sortKeyed interface {
	comparable
	sortKey() int
}

// unionSorted returns the union of two id-sorted sets: a or b itself when
// it already holds the union, a fresh slice otherwise.
func unionSorted[T sortKeyed](a, b []T) []T {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		ka, kb := a[i].sortKey(), b[j].sortKey()
		if ka <= kb {
			i++
		}
		if kb <= ka {
			j++
		}
		n++
	}
	n += len(a) - i + len(b) - j
	if n == len(a) {
		return a
	}
	if n == len(b) {
		return b
	}
	out := make([]T, 0, n)
	i, j = 0, 0
	for i < len(a) && j < len(b) {
		ka, kb := a[i].sortKey(), b[j].sortKey()
		if ka <= kb {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
		}
		if kb <= ka {
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// insertSorted returns s with x inserted in sortKey order and whether x
// was new. A new x yields a fresh slice, so anyone still iterating s sees
// it unchanged.
func insertSorted[T sortKeyed](s []T, x T) ([]T, bool) {
	k := x.sortKey()
	i := 0
	for i < len(s) && s[i].sortKey() < k {
		i++
	}
	if i < len(s) && s[i] == x {
		return s, false
	}
	out := make([]T, len(s)+1)
	copy(out, s[:i])
	out[i] = x
	copy(out[i+1:], s[i:])
	return out, true
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
	// fn is the compiled function a closure object wraps, or nil.
	fn *bytecode.FuncProto
	// self is the singleton set {o}, shared by every objVal(o).
	self *objSet

	shapes shapeSet
	// fields maps known property names to value cells.
	fields map[string]*cell
	// unknown holds values stored under statically-unknown property names.
	unknown *cell
	// elems holds array element values.
	elems *cell
	// protos is the may-set of prototype objects, sorted by id and
	// replaced on add; protoTop means the prototype chain is unknown.
	protos   []*absObj
	protoTop bool

	// roots accumulates the root shape of every lineage this object ever
	// held. Unlike the shape set it survives widening and escape, so the
	// typed-shape pass can still tell WHICH lineages an untrackable object
	// may reach (and poison exactly those) after the precise set is gone.
	// Sorted by shape id.
	roots []*Shape

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
	protos, added := insertSorted(o.protos, p)
	o.protos = protos
	return added
}
