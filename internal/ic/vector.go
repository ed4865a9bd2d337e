package ic

import (
	"fmt"
	"strings"

	"ricjs/internal/objects"
	"ricjs/internal/source"
	"ricjs/internal/symtab"
)

// AccessKind says what kind of object access a feedback slot serves.
type AccessKind uint8

const (
	// AccessLoad is a named property load (o.x).
	AccessLoad AccessKind = iota
	// AccessStore is a named property store (o.x = v).
	AccessStore
	// AccessLoadGlobal is a load of a global variable.
	AccessLoadGlobal
	// AccessStoreGlobal is a store to a global variable.
	AccessStoreGlobal
	// AccessKeyedLoad is a computed property load (o[k]).
	AccessKeyedLoad
	// AccessKeyedStore is a computed property store (o[k] = v).
	AccessKeyedStore
)

// String returns the access kind name.
func (k AccessKind) String() string {
	switch k {
	case AccessLoad:
		return "load"
	case AccessStore:
		return "store"
	case AccessLoadGlobal:
		return "load-global"
	case AccessStoreGlobal:
		return "store-global"
	case AccessKeyedLoad:
		return "keyed-load"
	case AccessKeyedStore:
		return "keyed-store"
	default:
		return fmt.Sprintf("access(%d)", uint8(k))
	}
}

// IsGlobal reports whether the access targets the global object. RIC is
// disabled for such sites by default (paper §6) because the global object's
// hidden-class history depends on library load order.
func (k AccessKind) IsGlobal() bool {
	return k == AccessLoadGlobal || k == AccessStoreGlobal
}

// IsStore reports whether the access writes.
func (k AccessKind) IsStore() bool {
	return k == AccessStore || k == AccessStoreGlobal || k == AccessKeyedStore
}

// IsKeyed reports whether the access uses a computed key.
func (k AccessKind) IsKeyed() bool {
	return k == AccessKeyedLoad || k == AccessKeyedStore
}

// State is the feedback state of one slot.
type State uint8

const (
	// Uninitialized slots have seen no object yet.
	Uninitialized State = iota
	// Monomorphic slots have seen exactly one hidden class.
	Monomorphic
	// Polymorphic slots have seen 2..MaxPolymorphic hidden classes.
	Polymorphic
	// Megamorphic slots overflowed and no longer cache per-class handlers;
	// accesses go through a generic path.
	Megamorphic
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Uninitialized:
		return "uninitialized"
	case Monomorphic:
		return "monomorphic"
	case Polymorphic:
		return "polymorphic"
	case Megamorphic:
		return "megamorphic"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// MaxPolymorphic is the number of (hidden class, handler) entries a slot
// holds before going megamorphic, matching V8's limit.
const MaxPolymorphic = 4

// FastOp is the denormalized dispatch code of a cached handler. The VM's
// hit path switches on this one byte instead of type-switching on the
// Handler interface, so a monomorphic field access runs without an
// interface dispatch.
type FastOp uint8

const (
	// FastNone routes the hit through the full handler type-switch.
	FastNone FastOp = iota
	// FastLoadField reads the receiver's own field at FastOffset.
	FastLoadField
	// FastStoreField writes the receiver's own field at FastOffset.
	FastStoreField
	// FastLoadArrayLength reads the receiver's array length.
	FastLoadArrayLength
	// FastLoadElement reads an array element at the (dynamic) integer key;
	// the keyed-load dispatch uses it to recognize the element hit without
	// a handler type-switch.
	FastLoadElement
)

// Entry is one (HCAddr, Handler) tuple of a slot (paper Figure 3).
type Entry struct {
	HC *objects.HiddenClass
	H  Handler
	// Preloaded marks entries installed by RIC from an ICRecord rather
	// than by a miss; a hit on such an entry is a miss RIC averted.
	Preloaded bool
	// Fast and FastOffset denormalize H at install time (see FastOp);
	// FastNone means "consult H".
	Fast       FastOp
	FastOffset int32
}

// fastFor classifies a handler for the denormalized hit path. Handlers
// with validity conditions beyond the hidden-class match (prototype
// handlers carry epochs) stay on the general path.
func fastFor(h Handler) (FastOp, int32) {
	switch t := h.(type) {
	case LoadField:
		return FastLoadField, int32(t.Offset)
	case StoreField:
		return FastStoreField, int32(t.Offset)
	case LoadArrayLength:
		return FastLoadArrayLength, 0
	case LoadElement:
		return FastLoadElement, 0
	default:
		return FastNone, 0
	}
}

// SiteInfo describes one object access site: the immutable half of a
// feedback slot. The compiler emits one per site into the function's
// site table; every VM's slot for that site points at the same entry.
//
// The layout is 40 bytes: a program keeps one entry per site resident for
// as long as its code is cached, so the script name is not repeated per
// site but pointed at in the owning proto (bytecode.FuncProto.Script),
// and Kind packs beside NameID.
type SiteInfo struct {
	// Script points at the owning script's name; Seal fills it in with
	// the proto's Script. Site reads it.
	Script *string
	// Pos is the site's position in Script.
	Pos source.Pos
	// Kind is the access kind served by the site.
	Kind AccessKind
	// NameID is Name interned at compile time; the VM's dispatch and the
	// hidden-class lookups it triggers use the ID, so a slot access hashes
	// no strings.
	NameID symtab.ID
	// Name is the property (or global) name accessed at the site.
	Name string
}

// Site identifies the access site context-independently. It is built on
// each call, so hot paths call it only where the site is reported.
func (s *SiteInfo) Site() source.Site { return source.Site{Script: *s.Script, Pos: s.Pos} }

// Slot is the feedback for one object access site: the per-VM IC state
// plus a pointer to the program's site descriptor, which slots of every
// VM running the program share and never write.
type Slot struct {
	*SiteInfo

	State   State
	Entries []Entry
}

// Lookup searches the slot for the incoming hidden class. extra is the
// number of additional entries examined beyond the first (polymorphic
// dispatch cost).
func (s *Slot) Lookup(hc *objects.HiddenClass) (e Entry, found bool, extra int) {
	for i := range s.Entries {
		if s.Entries[i].HC == hc {
			return s.Entries[i], true, i
		}
	}
	return Entry{}, false, len(s.Entries)
}

// Find is Lookup for the VM's hit path: it returns a pointer into the
// entry list (nil when the hidden class is not cached) so a hit copies no
// entry, plus the number of entries examined before the match.
func (s *Slot) Find(hc *objects.HiddenClass) (*Entry, int) {
	entries := s.Entries
	for i := range entries {
		if entries[i].HC == hc {
			return &entries[i], i
		}
	}
	return nil, len(entries)
}

// ForceMegamorphic tips the slot into the megamorphic state immediately,
// dropping cached entries. Keyed sites use it when one hidden class is
// accessed with varying names — per-name caching cannot help there.
func (s *Slot) ForceMegamorphic() {
	s.State = Megamorphic
	s.Entries = nil
}

// Remove drops the entry cached for a hidden class, if any; the VM uses it
// to evict handlers invalidated by prototype mutation. Removal does not
// regress the megamorphic state.
func (s *Slot) Remove(hc *objects.HiddenClass) {
	for i := range s.Entries {
		if s.Entries[i].HC == hc {
			s.Entries = append(s.Entries[:i], s.Entries[i+1:]...)
			switch len(s.Entries) {
			case 0:
				if s.State != Megamorphic {
					s.State = Uninitialized
				}
			case 1:
				if s.State == Polymorphic {
					s.State = Monomorphic
				}
			}
			return
		}
	}
}

// Add installs a (hidden class, handler) entry after a miss, advancing the
// slot's state machine. Once a slot holds MaxPolymorphic entries, the next
// Add tips it into the megamorphic state and drops the cached entries.
func (s *Slot) Add(hc *objects.HiddenClass, h Handler) {
	s.insert(hc, h, false)
}

// Preload installs an entry recovered from an ICRecord (RIC's dependent
// site preloading, paper §5.2.2). It is a no-op if the hidden class is
// already cached or the slot is megamorphic.
func (s *Slot) Preload(hc *objects.HiddenClass, h Handler) bool {
	if s.State == Megamorphic {
		return false
	}
	if _, found, _ := s.Lookup(hc); found {
		return false
	}
	if len(s.Entries) >= MaxPolymorphic {
		return false
	}
	s.insert(hc, h, true)
	return true
}

func (s *Slot) insert(hc *objects.HiddenClass, h Handler, preloaded bool) {
	if s.State == Megamorphic {
		return
	}
	if _, found, _ := s.Lookup(hc); found {
		return
	}
	if len(s.Entries) >= MaxPolymorphic {
		s.State = Megamorphic
		s.Entries = nil
		return
	}
	e := Entry{HC: hc, H: h, Preloaded: preloaded}
	e.Fast, e.FastOffset = fastFor(h)
	s.Entries = append(s.Entries, e)
	switch len(s.Entries) {
	case 1:
		s.State = Monomorphic
	default:
		s.State = Polymorphic
	}
}

// Vector is the per-function IC data structure (paper Figure 3): one slot
// per object access site in the function.
type Vector struct {
	// FuncName names the owning function, for diagnostics.
	FuncName string
	Slots    []Slot
}

// Slot returns the slot at a feedback index.
func (v *Vector) Slot(i int) *Slot { return &v.Slots[i] }

// String renders the vector state compactly for diagnostics and tests.
func (v *Vector) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ICVector(%s)", v.FuncName)
	for i := range v.Slots {
		s := &v.Slots[i]
		fmt.Fprintf(&b, "\n  [%d] %s %s %q %s", i, s.Site(), s.Kind, s.Name, s.State)
		for _, e := range s.Entries {
			fmt.Fprintf(&b, " (HC#%d -> %s", e.HC.ID(), e.H)
			if e.Preloaded {
				b.WriteString(" preloaded")
			}
			b.WriteString(")")
		}
	}
	return b.String()
}
