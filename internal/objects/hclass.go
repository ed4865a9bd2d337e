package objects

import (
	"fmt"
	"sort"
	"strings"

	"ricjs/internal/source"
	"ricjs/internal/symtab"
)

// Creator records what caused a hidden class to be created: either a
// builtin object (identified by a context-independent name) or a
// triggering object access site (paper §2.4 calls these "transitioning
// object access sites"; §4 calls them Triggering sites). The extraction
// phase keys the TOAST by exactly this information.
type Creator struct {
	// Builtin is the builtin object name ("Object.prototype", "Math", ...)
	// for hidden classes whose creation is not attributable to any object
	// access site. Constructor initial hidden classes use the declaring
	// function's site instead.
	Builtin string
	// Site is the object access site that triggered the hidden class
	// transition, when Builtin is empty.
	Site source.Site
	// Global marks transitions of the global object's shape. RIC skips
	// them by default because the global object's hidden-class history
	// depends on script load order (paper §6).
	Global bool
}

// IsBuiltin reports whether the creator is a builtin name.
func (c Creator) IsBuiltin() bool { return c.Builtin != "" }

// IsZero reports whether the creator is unset.
func (c Creator) IsZero() bool { return c.Builtin == "" && c.Site.IsZero() }

// String renders the creator for diagnostics.
func (c Creator) String() string {
	if c.IsBuiltin() {
		return "builtin:" + c.Builtin
	}
	return "site:" + c.Site.String()
}

// layoutLinearMax is the layout size up to which property lookup is a
// linear scan over the field-ID array instead of a hash-map probe. Almost
// every hidden class in the workload set stays below it (object literals
// and constructor shapes rarely exceed a handful of properties), so the
// common lookup is a few integer compares over one cache line; classes
// that grow past the threshold get an ID-keyed map as an index.
const layoutLinearMax = 8

// transLinearMax is the same threshold for the transition table.
const transLinearMax = 8

// HiddenClass describes the layout of a group of objects created the same
// way (paper Figure 2): an object-layout table mapping property names to
// in-object slot offsets, a transition table giving the next hidden class
// when a property is added, and a prototype pointer. All name keys are
// interned SymbolIDs (package symtab); the string forms are resolved only
// for diagnostics and persistence.
type HiddenClass struct {
	id   uint32
	addr uint64 // simulated heap address — context-dependent

	// fields holds the property symbol IDs in offset order: the offset of
	// a property IS its index here, so small layouts need no side table.
	fields []symtab.ID
	// offsets indexes fields by ID for layouts larger than
	// layoutLinearMax. It is built by the first OffsetID call on such a
	// layout that finds its field, so classes that only ever miss — the
	// transient classes an object passes through while growing one
	// property at a time, each asked once for the property about to be
	// added — never build it; nil until then and always nil below the
	// threshold. A hidden class belongs to one engine's Space and is
	// never shared across goroutines, so the lazy build needs no lock.
	offsets map[symtab.ID]int

	// Transition table: parallel ID/target arrays scanned linearly up to
	// transLinearMax entries, with an ID-keyed map once past it.
	transIDs     []symtab.ID
	transTargets []*HiddenClass
	transMap     map[symtab.ID]*HiddenClass
	// lastTransID/lastTransTarget form a 1-entry inline cache over the
	// transition table: the add-property store path overwhelmingly re-adds
	// the same property to objects of the same class (object literals and
	// constructors in loops), so the common case is a single compare.
	lastTransID     symtab.ID
	lastTransTarget *HiddenClass

	proto *Object

	creator Creator
	parent  *HiddenClass // the hidden class this one transitioned from

	dictionary bool // marks the shared dictionary-mode class

}

// newHC allocates a hidden class with a fresh simulated address. The
// prototype object, if any, is marked so later shape changes to it bump
// the prototype epoch.
func (s *Space) newHC(proto *Object, creator Creator) *HiddenClass {
	if proto != nil {
		proto.isProto = true
	}
	return &HiddenClass{
		id:      s.allocID(),
		addr:    s.allocAddr(),
		proto:   proto,
		creator: creator,
	}
}

// NewRootHC creates an empty-layout hidden class, the starting point for
// objects of a new kind (the paper's HC0). creator names the builtin or the
// function-declaration site responsible.
func (s *Space) NewRootHC(proto *Object, creator Creator) *HiddenClass {
	return s.newHC(proto, creator)
}

// ID returns the creation-order id of the hidden class within its space.
func (h *HiddenClass) ID() uint32 { return h.id }

// Addr returns the simulated heap address of the hidden class. Addresses
// differ across engine instances for the same logical class.
func (h *HiddenClass) Addr() uint64 { return h.addr }

// Proto returns the prototype object shared by instances of this class.
func (h *HiddenClass) Proto() *Object { return h.proto }

// Creator returns what created this hidden class.
func (h *HiddenClass) Creator() Creator { return h.creator }

// Parent returns the hidden class this one transitioned from, or nil for
// root classes.
func (h *HiddenClass) Parent() *HiddenClass { return h.parent }

// IsDictionary reports whether this is the shared dictionary-mode class,
// whose objects keep properties in a hash table and are invisible to ICs.
func (h *HiddenClass) IsDictionary() bool { return h.dictionary }

// NumFields returns the number of in-object property slots.
func (h *HiddenClass) NumFields() int { return len(h.fields) }

// FieldAt returns the property name stored at the given slot offset.
func (h *HiddenClass) FieldAt(offset int) string {
	return symtab.NameOf(h.fields[offset])
}

// FieldIDs returns the property symbols in offset order. The caller must
// not modify the returned slice.
func (h *HiddenClass) FieldIDs() []symtab.ID { return h.fields }

// Fields returns the property names in offset order. It materializes a
// fresh string slice from the interned IDs; hot paths should use
// FieldIDs instead.
func (h *HiddenClass) Fields() []string {
	if len(h.fields) == 0 {
		return nil
	}
	names := make([]string, len(h.fields))
	for i, id := range h.fields {
		names[i] = symtab.NameOf(id)
	}
	return names
}

// Offset returns the slot offset of a property in the object layout.
func (h *HiddenClass) Offset(name string) (int, bool) {
	id, ok := symtab.Find(name)
	if !ok {
		return 0, false
	}
	return h.OffsetID(id)
}

// OffsetID returns the slot offset of a property symbol. Small layouts
// are scanned linearly (a few integer compares). A larger one is scanned
// too until a lookup finds its field; that lookup builds the ID-keyed
// index, which every later lookup probes. This is the hidden-class half
// of the IC fast path's cost model: no string hashing on any layout size.
func (h *HiddenClass) OffsetID(id symtab.ID) (int, bool) {
	if h.offsets != nil {
		off, ok := h.offsets[id]
		return off, ok
	}
	for i, f := range h.fields {
		if f == id {
			if len(h.fields) > layoutLinearMax {
				h.offsets = make(map[symtab.ID]int, len(h.fields))
				for j, g := range h.fields {
					h.offsets[g] = j
				}
			}
			return i, true
		}
	}
	return 0, false
}

// TransitionTo returns the existing transition target for adding the named
// property, if one was created before.
func (h *HiddenClass) TransitionTo(name string) (*HiddenClass, bool) {
	id, ok := symtab.Find(name)
	if !ok {
		return nil, false
	}
	return h.TransitionToID(id)
}

// TransitionToID returns the existing transition target for a property
// symbol, if one was created before.
func (h *HiddenClass) TransitionToID(id symtab.ID) (*HiddenClass, bool) {
	if h.lastTransID == id && h.lastTransTarget != nil {
		return h.lastTransTarget, true
	}
	if h.transMap != nil {
		t, ok := h.transMap[id]
		if ok {
			h.lastTransID, h.lastTransTarget = id, t
		}
		return t, ok
	}
	for i, tid := range h.transIDs {
		if tid == id {
			t := h.transTargets[i]
			h.lastTransID, h.lastTransTarget = id, t
			return t, true
		}
	}
	return nil, false
}

// Transition returns the hidden class an object moves to when the named
// property is added, creating it on first use. See TransitionID.
func (h *HiddenClass) Transition(s *Space, name string, creator Creator) (next *HiddenClass, created bool) {
	return h.TransitionID(s, symtab.Intern(name), creator)
}

// TransitionID returns the hidden class an object moves to when the
// property symbol is added, creating it (and linking the Next Hidden
// Class table, paper Figure 2) on first use. created reports whether a
// new hidden class was allocated — the caller charges profiling costs and
// notifies RIC only in that case. creator identifies the object access
// site performing the addition and is recorded on newly created classes.
func (h *HiddenClass) TransitionID(s *Space, id symtab.ID, creator Creator) (next *HiddenClass, created bool) {
	if t, ok := h.TransitionToID(id); ok {
		return t, false
	}
	next = s.newHC(h.proto, creator)
	next.parent = h
	next.fields = make([]symtab.ID, len(h.fields)+1)
	copy(next.fields, h.fields)
	next.fields[len(h.fields)] = id
	h.addTransition(id, next)
	return next, true
}

// addTransition links a new outgoing edge, spilling the linear arrays
// into a map once the table outgrows the scan threshold.
func (h *HiddenClass) addTransition(id symtab.ID, next *HiddenClass) {
	if h.transMap != nil {
		h.transMap[id] = next
	} else if len(h.transIDs) >= transLinearMax {
		h.transMap = make(map[symtab.ID]*HiddenClass, len(h.transIDs)+1)
		for i, tid := range h.transIDs {
			h.transMap[tid] = h.transTargets[i]
		}
		h.transMap[id] = next
		h.transIDs, h.transTargets = nil, nil
	} else {
		h.transIDs = append(h.transIDs, id)
		h.transTargets = append(h.transTargets, next)
	}
	h.lastTransID, h.lastTransTarget = id, next
}

// TransitionCount returns the number of outgoing transitions (for tests
// and diagnostics).
func (h *HiddenClass) TransitionCount() int {
	if h.transMap != nil {
		return len(h.transMap)
	}
	return len(h.transIDs)
}

// transitionNames returns the outgoing transition property names, resolved
// to strings, for deterministic walks and diagnostics.
func (h *HiddenClass) transitionNames() []string {
	n := h.TransitionCount()
	if n == 0 {
		return nil
	}
	names := make([]string, 0, n)
	if h.transMap != nil {
		for id := range h.transMap {
			names = append(names, symtab.NameOf(id))
		}
	} else {
		for _, id := range h.transIDs {
			names = append(names, symtab.NameOf(id))
		}
	}
	return names
}

// LayoutSignature renders the layout as a canonical string, used by RIC's
// validation tests and diagnostics to compare logical shapes across runs.
// It is context-independent: only property names, their order, and the
// creator identity participate.
func (h *HiddenClass) LayoutSignature() string {
	var b strings.Builder
	b.WriteString(h.creator.String())
	b.WriteByte('{')
	b.WriteString(strings.Join(h.Fields(), ","))
	b.WriteByte('}')
	return b.String()
}

// String renders the hidden class for diagnostics.
func (h *HiddenClass) String() string {
	return fmt.Sprintf("HC#%d@%#x%s", h.id, h.addr, h.layoutBraces())
}

func (h *HiddenClass) layoutBraces() string {
	return "{" + strings.Join(h.Fields(), ",") + "}"
}

// WalkTransitions visits the transition graph rooted at h in a
// deterministic order (property names sorted at each node), calling fn for
// every reachable hidden class including h itself. The extraction phase
// uses this to enumerate hidden classes in a stable order. Sorting is by
// the resolved name strings, not raw symbol IDs, so the order — and with
// it record HCIDs and golden traces — is identical no matter in which
// order this process happened to intern the names.
func (h *HiddenClass) WalkTransitions(fn func(*HiddenClass)) {
	seen := map[*HiddenClass]bool{}
	var walk func(*HiddenClass)
	walk = func(hc *HiddenClass) {
		if hc == nil || seen[hc] {
			return
		}
		seen[hc] = true
		fn(hc)
		names := hc.transitionNames()
		if len(names) == 0 {
			return
		}
		sort.Strings(names)
		for _, n := range names {
			next, _ := hc.TransitionTo(n)
			walk(next)
		}
	}
	walk(h)
}
