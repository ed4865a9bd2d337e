package objects

import (
	"strings"

	"ricjs/internal/symtab"
)

// Object is a heap object. Named properties live in in-object slots at
// offsets assigned by the hidden class; integer-indexed elements live in a
// separate dense elements array (arrays only); objects that have had a
// property deleted fall back to dictionary mode, where properties live in a
// hash table and the object becomes invisible to inline caches, matching
// the behaviour the paper assumes for V8's slow objects.
type Object struct {
	id   uint32
	addr uint64

	hc    *HiddenClass
	slots []Value

	isArray bool
	elems   []Value

	fn *FunctionData // non-nil for callable objects

	dict      map[string]Value // non-nil in dictionary mode
	dictKeys  []string         // insertion order of dictionary properties
	dictProto *Object          // prototype of a dictionary-mode object

	// isProto marks objects that serve as a prototype of some hidden
	// class; shape changes to such objects bump the space's prototype
	// epoch, invalidating prototype-chain IC handlers.
	isProto bool
}

// NewObject allocates an object with the given hidden class.
func (s *Space) NewObject(hc *HiddenClass) *Object {
	o := &Object{id: s.allocID(), addr: s.allocAddr(), hc: hc}
	if n := hc.NumFields(); n > 0 {
		o.slots = make([]Value, n)
	}
	return o
}

// NewArray allocates an array object with the given hidden class and
// initial elements.
func (s *Space) NewArray(hc *HiddenClass, elems []Value) *Object {
	o := s.NewObject(hc)
	o.isArray = true
	o.elems = elems
	return o
}

// NewFunction allocates a callable object with the given hidden class and
// function data.
func (s *Space) NewFunction(hc *HiddenClass, fn *FunctionData) *Object {
	o := s.NewObject(hc)
	o.fn = fn
	return o
}

// ID returns the allocation-order id of the object within its space.
func (o *Object) ID() uint32 { return o.id }

// Addr returns the simulated heap address of the object.
func (o *Object) Addr() uint64 { return o.addr }

// HC returns the object's current hidden class.
func (o *Object) HC() *HiddenClass { return o.hc }

// Func returns the function data of a callable object, or nil.
func (o *Object) Func() *FunctionData { return o.fn }

// IsArray reports whether the object is an array.
func (o *Object) IsArray() bool { return o.isArray }

// IsProto reports whether the object serves as the prototype of some
// hidden class, so that its shape changes bump the prototype epoch.
func (o *Object) IsProto() bool { return o.isProto }

// IsDictionary reports whether the object is in dictionary mode.
func (o *Object) IsDictionary() bool { return o.dict != nil }

// Proto returns the object's prototype: from its hidden class in fast
// mode, or the per-object link in dictionary mode.
func (o *Object) Proto() *Object {
	if o.dict != nil {
		return o.dictProto
	}
	return o.hc.Proto()
}

// Slot returns the value stored at an in-object slot offset.
func (o *Object) Slot(offset int) Value { return o.slots[offset] }

// SetSlot overwrites the value at an in-object slot offset.
func (o *Object) SetSlot(offset int, v Value) { o.slots[offset] = v }

// GetOwn looks up an own named property without touching the prototype
// chain. For fast-mode objects it consults the hidden-class layout; for
// dictionary-mode objects, the hash table. steps reports how many layout
// entries the generic lookup examined (the runtime charges per step).
func (o *Object) GetOwn(name string) (v Value, ok bool, steps int) {
	if o.dict != nil {
		v, ok = o.dict[name]
		return v, ok, 1
	}
	off, ok := o.hc.Offset(name)
	if !ok {
		return Undefined(), false, max(1, o.hc.NumFields())
	}
	return o.slots[off], true, off + 1
}

// OwnOffset returns the slot offset of an own property of a fast-mode
// object.
func (o *Object) OwnOffset(name string) (int, bool) {
	if o.dict != nil {
		return 0, false
	}
	return o.hc.Offset(name)
}

// OwnOffsetID is OwnOffset keyed by an interned symbol — no string
// hashing on any path.
func (o *Object) OwnOffsetID(id symtab.ID) (int, bool) {
	if o.dict != nil {
		return 0, false
	}
	return o.hc.OffsetID(id)
}

// Lookup searches the object and its prototype chain for a named property.
// It returns the holder object, the slot offset within the holder (-1 for
// dictionary-mode holders), whether the property was found, and the number
// of generic lookup steps taken (for instruction accounting).
func (o *Object) Lookup(name string) (holder *Object, offset int, ok bool, steps int) {
	id, interned := symtab.Find(name)
	if !interned {
		// A name that was never interned cannot exist in any ID-keyed
		// layout; only dictionary holders could carry it.
		return o.lookupDictOnly(name)
	}
	return o.LookupID(id, name)
}

// LookupID is Lookup keyed by an interned symbol. name must be the
// symbol's string form; it is consulted only for dictionary-mode holders.
// The step accounting is identical to the string path: per layout holder,
// offset+1 steps on a find and max(1, numFields) on a miss, plus one step
// per prototype hop — the formulas the deterministic instruction counts
// are built from.
func (o *Object) LookupID(id symtab.ID, name string) (holder *Object, offset int, ok bool, steps int) {
	for cur := o; cur != nil; {
		if cur.dict != nil {
			steps++
			if _, exists := cur.dict[name]; exists {
				return cur, -1, true, steps
			}
		} else if off, exists := cur.hc.OffsetID(id); exists {
			steps += off + 1
			return cur, off, true, steps
		} else {
			steps += max(1, cur.hc.NumFields())
		}
		cur = cur.Proto()
		steps++ // prototype hop
	}
	return nil, 0, false, steps
}

// lookupDictOnly walks the chain for a name with no interned symbol:
// layout holders are charged (and skipped) wholesale, dictionaries are
// probed normally.
func (o *Object) lookupDictOnly(name string) (holder *Object, offset int, ok bool, steps int) {
	for cur := o; cur != nil; {
		if cur.dict != nil {
			steps++
			if _, exists := cur.dict[name]; exists {
				return cur, -1, true, steps
			}
		} else {
			steps += max(1, cur.hc.NumFields())
		}
		cur = cur.Proto()
		steps++ // prototype hop
	}
	return nil, 0, false, steps
}

// GetNamed reads a named property through the prototype chain, returning
// undefined for missing properties.
func (o *Object) GetNamed(name string) (Value, bool) {
	holder, off, ok, _ := o.Lookup(name)
	if !ok {
		return Undefined(), false
	}
	if off < 0 {
		return holder.dict[name], true
	}
	return holder.slots[off], true
}

// GetNamedID is the fused ID-keyed chain read: one walk resolves holder,
// offset, and value without re-probing the layout (the old path did a
// Lookup-then-Offset double probe through the string-keyed table).
func (o *Object) GetNamedID(id symtab.ID, name string) (Value, bool) {
	holder, off, ok, _ := o.LookupID(id, name)
	if !ok {
		return Undefined(), false
	}
	if off < 0 {
		return holder.dict[name], true
	}
	return holder.slots[off], true
}

// AddOwn adds a new own property, transitioning the hidden class (for
// fast-mode objects) or inserting into the dictionary. creator identifies
// the object access site performing the addition; it is recorded on a newly
// created hidden class. It returns the hidden class transitioned to (nil in
// dictionary mode) and whether that class was newly created.
func (o *Object) AddOwn(s *Space, name string, v Value, creator Creator) (next *HiddenClass, created bool) {
	return o.AddOwnID(s, symtab.Intern(name), name, v, creator)
}

// AddOwnID is AddOwn keyed by an interned symbol; name must be its string
// form (used only for dictionary-mode objects).
func (o *Object) AddOwnID(s *Space, id symtab.ID, name string, v Value, creator Creator) (next *HiddenClass, created bool) {
	if o.isProto {
		// A prototype gained a property: chain lookups cached before this
		// point may now be shadowed.
		s.bumpProtoEpoch()
	}
	if o.dict != nil {
		if _, exists := o.dict[name]; !exists {
			o.dictKeys = append(o.dictKeys, name)
		}
		o.dict[name] = v
		return nil, false
	}
	next, created = o.hc.TransitionID(s, id, creator)
	o.hc = next
	o.slots = append(o.slots, v)
	return next, created
}

// SetNamed writes a named property generically: overwrite an own property,
// or add a new own property (JavaScript assignment semantics never write
// through to the prototype holder). It reports the transition target and
// whether a hidden class was created, like AddOwn.
func (o *Object) SetNamed(s *Space, name string, v Value, creator Creator) (next *HiddenClass, created bool) {
	return o.SetNamedID(s, symtab.Intern(name), name, v, creator)
}

// SetNamedID is SetNamed keyed by an interned symbol.
func (o *Object) SetNamedID(s *Space, id symtab.ID, name string, v Value, creator Creator) (next *HiddenClass, created bool) {
	if o.dict != nil {
		return o.AddOwnID(s, id, name, v, creator)
	}
	if off, ok := o.hc.OffsetID(id); ok {
		o.SetSlot(off, v)
		return nil, false
	}
	return o.AddOwnID(s, id, name, v, creator)
}

// ApplyTransition performs a cached transition store (the paper's handler
// H1): append the value at the next slot and move the object to the
// embedded next hidden class. The caller guarantees the object's current
// class is the transition's source.
func (o *Object) ApplyTransition(next *HiddenClass, v Value) {
	o.slots = append(o.slots, v)
	o.hc = next
}

// Delete removes an own property. Deleting from a fast-mode object demotes
// it to dictionary mode (hidden classes cannot represent holes), after
// which inline caches no longer apply to it. It reports whether the
// property existed.
func (o *Object) Delete(s *Space, name string) bool {
	if o.isProto {
		s.bumpProtoEpoch()
	}
	if o.dict == nil {
		o.toDictionary(s)
	}
	if _, ok := o.dict[name]; !ok {
		return false
	}
	delete(o.dict, name)
	for i, k := range o.dictKeys {
		if k == name {
			o.dictKeys = append(o.dictKeys[:i], o.dictKeys[i+1:]...)
			break
		}
	}
	return true
}

// toDictionary migrates the object's named properties into a hash table
// and points it at the space's shared dictionary hidden class.
func (o *Object) toDictionary(s *Space) {
	dict := make(map[string]Value, len(o.slots))
	keys := make([]string, 0, len(o.slots))
	for i, id := range o.hc.FieldIDs() {
		name := symtab.NameOf(id)
		dict[name] = o.slots[i]
		keys = append(keys, name)
	}
	proto := o.hc.Proto()
	o.dict = dict
	o.dictKeys = keys
	o.hc = s.DictHC()
	// Dictionary objects keep their prototype through a per-object link:
	// reuse the shared dictionary class but remember the proto locally.
	o.dictProto = proto
	o.slots = nil
}

// OwnNamedKeys returns the object's own named (non-element) property
// names in insertion order.
func (o *Object) OwnNamedKeys() []string {
	if o.dict != nil {
		return append([]string{}, o.dictKeys...)
	}
	return append([]string{}, o.hc.Fields()...)
}

// OwnKeys returns the object's own enumerable property names in insertion
// order, including array indices rendered as decimal strings.
func (o *Object) OwnKeys() []string {
	var keys []string
	if o.isArray {
		for i := range o.elems {
			keys = append(keys, FormatNumber(float64(i)))
		}
	}
	if o.dict != nil {
		keys = append(keys, o.dictKeys...)
		return keys
	}
	keys = append(keys, o.hc.Fields()...)
	return keys
}

// Elem reads an array element, returning undefined out of range.
func (o *Object) Elem(i int) Value {
	if i < 0 || i >= len(o.elems) {
		return Undefined()
	}
	return o.elems[i]
}

// SetElem writes an array element, growing the dense backing store with
// undefined holes as needed.
func (o *Object) SetElem(i int, v Value) {
	if i < 0 {
		return
	}
	for len(o.elems) <= i {
		o.elems = append(o.elems, Undefined())
	}
	o.elems[i] = v
}

// Len returns the array length (number of dense elements).
func (o *Object) Len() int { return len(o.elems) }

// SetLen truncates or grows the element store (assignment to .length).
func (o *Object) SetLen(n int) {
	if n < 0 {
		n = 0
	}
	for len(o.elems) < n {
		o.elems = append(o.elems, Undefined())
	}
	o.elems = o.elems[:n]
}

// Elems exposes the element storage for builtins (sort, slice, ...). The
// caller may read and replace but must go through SetElems to swap.
func (o *Object) Elems() []Value { return o.elems }

// SetElems replaces the element storage.
func (o *Object) SetElems(e []Value) { o.elems = e }

// describe renders the object for ToString.
func (o *Object) describe() string {
	switch {
	case o.isArray:
		parts := make([]string, len(o.elems))
		for i, e := range o.elems {
			if e.IsNullish() {
				parts[i] = ""
			} else {
				parts[i] = e.ToString()
			}
		}
		return strings.Join(parts, ",")
	case o.fn != nil:
		return "function " + o.fn.Name + "() { [code] }"
	default:
		return "[object Object]"
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
