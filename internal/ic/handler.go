// Package ic implements V8-style out-of-line inline caching (paper §2.3):
// per-function ICVectors whose slots map an incoming object's hidden class
// to a handler describing how to perform the access without calling the
// runtime. Handlers are data the VM interprets, mirroring V8's data-driven
// handlers.
//
// The package also defines which handlers are context-independent — the
// property RIC's extraction phase keys on (paper §3.2): a handler is
// context-independent if it embeds no heap addresses other than those of
// builtin objects. Fixed-offset own-property loads and stores qualify;
// handlers embedding hidden classes (transitions) or prototype holders do
// not.
package ic

import (
	"fmt"

	"ricjs/internal/objects"
	"ricjs/internal/symtab"
)

// HandlerKind discriminates handler types.
type HandlerKind uint8

const (
	// KindLoadField loads an own property from a fixed in-object slot.
	// Context-independent (the paper's handler H2).
	KindLoadField HandlerKind = iota
	// KindStoreField stores to an existing own property at a fixed slot.
	// Context-independent.
	KindStoreField
	// KindLoadArrayLength loads the length of an array. Context-independent.
	KindLoadArrayLength
	// KindLoadFromPrototype loads a property found on a prototype-chain
	// holder. Context-dependent: it embeds the holder object.
	KindLoadFromPrototype
	// KindStoreTransition adds a new property, transitioning the object to
	// an embedded next hidden class (the paper's handler H1).
	// Context-dependent.
	KindStoreTransition
	// KindLoadMissing caches the absence of a property (load yields
	// undefined). Its validity depends on the whole prototype chain, so it
	// is treated as context-dependent.
	KindLoadMissing
	// KindLoadElement loads a dense array element by index (the keyed
	// IC's fast path). Context-independent.
	KindLoadElement
	// KindStoreElement stores a dense array element by index.
	// Context-independent.
	KindStoreElement
	// KindKeyedNamed wraps a named-property handler cached at a keyed
	// site (o[k] where k is a string): the cached entry is valid only for
	// the specific name it was built for, so execution checks the name
	// before running the inner handler. Context independence follows the
	// inner handler.
	KindKeyedNamed
)

// String returns the handler kind name.
func (k HandlerKind) String() string {
	switch k {
	case KindLoadField:
		return "LoadField"
	case KindStoreField:
		return "StoreField"
	case KindLoadArrayLength:
		return "LoadArrayLength"
	case KindLoadFromPrototype:
		return "LoadFromPrototype"
	case KindStoreTransition:
		return "StoreTransition"
	case KindLoadMissing:
		return "LoadMissing"
	case KindLoadElement:
		return "LoadElement"
	case KindStoreElement:
		return "StoreElement"
	case KindKeyedNamed:
		return "KeyedNamed"
	default:
		return fmt.Sprintf("HandlerKind(%d)", uint8(k))
	}
}

// Handler is a specialized routine for one (site, hidden class) pair.
type Handler interface {
	Kind() HandlerKind
	// ContextIndependent reports whether the handler can be reused across
	// executions (paper §3.2).
	ContextIndependent() bool
	String() string
}

// LoadField loads the property at a fixed in-object slot offset.
type LoadField struct{ Offset int }

// Kind implements Handler.
func (LoadField) Kind() HandlerKind { return KindLoadField }

// ContextIndependent implements Handler: fixed-offset loads embed nothing.
func (LoadField) ContextIndependent() bool { return true }

func (h LoadField) String() string { return fmt.Sprintf("LoadField[%d]", h.Offset) }

// StoreField stores to an existing property at a fixed in-object slot.
type StoreField struct{ Offset int }

// Kind implements Handler.
func (StoreField) Kind() HandlerKind { return KindStoreField }

// ContextIndependent implements Handler.
func (StoreField) ContextIndependent() bool { return true }

func (h StoreField) String() string { return fmt.Sprintf("StoreField[%d]", h.Offset) }

// LoadArrayLength loads an array's length.
type LoadArrayLength struct{}

// Kind implements Handler.
func (LoadArrayLength) Kind() HandlerKind { return KindLoadArrayLength }

// ContextIndependent implements Handler.
func (LoadArrayLength) ContextIndependent() bool { return true }

func (LoadArrayLength) String() string { return "LoadArrayLength" }

// LoadFromPrototype loads a property from a holder on the prototype chain.
// It embeds the holder object, making it context-dependent (paper §3.2:
// "when accessing an inherited property, the handler traverses the chain of
// prototype objects ... The result is context-dependent state").
type LoadFromPrototype struct {
	Holder *objects.Object
	Name   string
	Offset int
	// Epoch is the prototype-mutation epoch at handler generation; the VM
	// treats the handler as a miss when the space's epoch has moved (the
	// analogue of V8's prototype validity cells).
	Epoch uint64
}

// Kind implements Handler.
func (LoadFromPrototype) Kind() HandlerKind { return KindLoadFromPrototype }

// ContextIndependent implements Handler.
func (LoadFromPrototype) ContextIndependent() bool { return false }

func (h LoadFromPrototype) String() string {
	return fmt.Sprintf("LoadFromPrototype[%s@%d holder=%#x]", h.Name, h.Offset, h.Holder.Addr())
}

// StoreTransition adds a new property: it stores at the next free slot and
// moves the object to the embedded next hidden class (paper's handler H1).
// Embedding a hidden class makes it context-dependent.
type StoreTransition struct {
	Next   *objects.HiddenClass
	Offset int
}

// Kind implements Handler.
func (StoreTransition) Kind() HandlerKind { return KindStoreTransition }

// ContextIndependent implements Handler.
func (StoreTransition) ContextIndependent() bool { return false }

func (h StoreTransition) String() string {
	return fmt.Sprintf("StoreTransition[%d -> HC@%#x]", h.Offset, h.Next.Addr())
}

// LoadMissing caches a negative lookup: the property is absent from the
// receiver and its whole prototype chain, so the load yields undefined.
// Like LoadFromPrototype, it carries the prototype epoch: a later chain
// mutation may have introduced the property.
type LoadMissing struct {
	Name  string
	Epoch uint64
}

// Kind implements Handler.
func (LoadMissing) Kind() HandlerKind { return KindLoadMissing }

// ContextIndependent implements Handler: validity depends on every object
// in the prototype chain, which is context-dependent state.
func (LoadMissing) ContextIndependent() bool { return false }

func (h LoadMissing) String() string { return fmt.Sprintf("LoadMissing[%s]", h.Name) }

// LoadElement reads a dense array element by index; out-of-range reads
// yield undefined, so the handler stays valid for any index.
type LoadElement struct{}

// Kind implements Handler.
func (LoadElement) Kind() HandlerKind { return KindLoadElement }

// ContextIndependent implements Handler.
func (LoadElement) ContextIndependent() bool { return true }

func (LoadElement) String() string { return "LoadElement" }

// StoreElement writes a dense array element by index, growing the array.
type StoreElement struct{}

// Kind implements Handler.
func (StoreElement) Kind() HandlerKind { return KindStoreElement }

// ContextIndependent implements Handler.
func (StoreElement) ContextIndependent() bool { return true }

func (StoreElement) String() string { return "StoreElement" }

// KeyedNamed is a named-property handler cached at a keyed access site:
// valid only when the runtime key equals Name. NameID is Name interned;
// the VM checks the key by ID so a keyed hit compares integers.
type KeyedNamed struct {
	Name   string
	NameID symtab.ID
	Inner  Handler
}

// Kind implements Handler.
func (KeyedNamed) Kind() HandlerKind { return KindKeyedNamed }

// ContextIndependent implements Handler.
func (k KeyedNamed) ContextIndependent() bool { return k.Inner.ContextIndependent() }

func (k KeyedNamed) String() string {
	return fmt.Sprintf("KeyedNamed[%q -> %s]", k.Name, k.Inner)
}

// CIDescriptor describes a context-independent handler in a form that can
// be persisted inside an ICRecord and rebuilt in another execution. Name
// is set for keyed handlers. Fields are ordered widest first, so the two
// kinds share the word after Offset (24 bytes, not 32).
type CIDescriptor struct {
	// Name and Inner describe KeyedNamed handlers.
	Name   string
	Offset int32
	Kind   HandlerKind
	Inner  HandlerKind
}

// DescribeCI returns the persistable descriptor of a context-independent
// handler; ok is false for context-dependent handlers.
func DescribeCI(h Handler) (CIDescriptor, bool) {
	switch t := h.(type) {
	case LoadField:
		return CIDescriptor{Kind: KindLoadField, Offset: int32(t.Offset)}, true
	case StoreField:
		return CIDescriptor{Kind: KindStoreField, Offset: int32(t.Offset)}, true
	case LoadArrayLength:
		return CIDescriptor{Kind: KindLoadArrayLength}, true
	case LoadElement:
		return CIDescriptor{Kind: KindLoadElement}, true
	case StoreElement:
		return CIDescriptor{Kind: KindStoreElement}, true
	case KeyedNamed:
		inner, ok := DescribeCI(t.Inner)
		if !ok || inner.Kind == KindKeyedNamed {
			return CIDescriptor{}, false
		}
		return CIDescriptor{Kind: KindKeyedNamed, Offset: inner.Offset, Name: t.Name, Inner: inner.Kind}, true
	default:
		return CIDescriptor{}, false
	}
}

// Rebuild reconstructs the handler a descriptor describes.
func (d CIDescriptor) Rebuild() (Handler, error) {
	switch d.Kind {
	case KindLoadField:
		return LoadField{Offset: int(d.Offset)}, nil
	case KindStoreField:
		return StoreField{Offset: int(d.Offset)}, nil
	case KindLoadArrayLength:
		return LoadArrayLength{}, nil
	case KindLoadElement:
		return LoadElement{}, nil
	case KindStoreElement:
		return StoreElement{}, nil
	case KindKeyedNamed:
		inner, err := CIDescriptor{Kind: d.Inner, Offset: d.Offset}.Rebuild()
		if err != nil {
			return nil, err
		}
		if _, nested := inner.(KeyedNamed); nested {
			return nil, fmt.Errorf("ic: nested keyed descriptor")
		}
		return KeyedNamed{Name: d.Name, NameID: symtab.Intern(d.Name), Inner: inner}, nil
	default:
		return nil, fmt.Errorf("ic: descriptor kind %v is not context-independent", d.Kind)
	}
}
