// Package symtab implements global symbol interning: every property,
// global-variable, and builtin name used anywhere in the engine maps to a
// dense uint32 SymbolID assigned on first use. The point is to make the
// IC fast path free of string hashing (paper §2.3: a hit must cost a
// compare-and-load): hidden-class layout and transition tables, feedback
// slots, and bytecode name pools all key on IDs, so the string form of a
// name is hashed exactly once — at compile or record-decode time — no
// matter how many millions of accesses use it.
//
// The table is process-global and append-only. IDs are therefore NOT
// stable across processes or even across runs within one process (they
// depend on intern order), which is why the .ric wire format (v4) never
// persists raw IDs: records carry a record-local symbol table of name
// strings, and Decode resolves each one to a live ID exactly once. All
// in-memory structures hold live IDs only.
//
// Concurrency: Intern and the read accessors are safe for concurrent use
// (ricjs.SessionPool runs engines in parallel over shared compiled
// programs). The hot read path (NameOf, resolved IDs) takes a read lock
// only; the IC fast path itself touches no symtab state at all.
package symtab

import (
	"strings"
	"sync"
)

// ID is a dense index into the global symbol table. The zero ID is
// reserved as "no symbol", so zero-valued structs are unambiguous.
type ID uint32

// None is the reserved null symbol.
const None ID = 0

// table is the global interning state.
var table = struct {
	mu    sync.RWMutex
	ids   map[string]ID
	names []string
}{
	ids: make(map[string]ID, 256),
	// names[0] backs the reserved None ID.
	names: []string{""},
}

// Well-known symbols, interned at init so engine code can use the
// constants without a lookup. The order here fixes their IDs process-wide.
var (
	// SymLength is "length".
	SymLength = Intern("length")
	// SymPrototype is "prototype".
	SymPrototype = Intern("prototype")
	// SymConstructor is "constructor".
	SymConstructor = Intern("constructor")
)

// Intern returns the ID for a name, assigning the next dense ID on first
// use. Every name — including the empty string, a legal JavaScript
// property key — interns to a non-None ID, so None never collides with a
// real layout entry.
func Intern(name string) ID {
	table.mu.RLock()
	id, ok := table.ids[name]
	table.mu.RUnlock()
	if ok {
		return id
	}
	table.mu.Lock()
	defer table.mu.Unlock()
	if id, ok := table.ids[name]; ok {
		return id
	}
	// The table keeps its own copy: a name is often a slice of a script's
	// source text, and the table lives as long as the process, so keeping
	// the caller's string would pin that whole source forever.
	name = strings.Clone(name)
	id = ID(len(table.names))
	table.names = append(table.names, name)
	table.ids[name] = id
	return id
}

// Find returns the ID of an already-interned name without interning it.
// Generic keyed accesses use it for runtime-computed keys: a key that was
// never interned cannot match any ID-keyed structure, and skipping the
// insert keeps arbitrary dynamic keys from growing the table unboundedly.
func Find(name string) (ID, bool) {
	table.mu.RLock()
	id, ok := table.ids[name]
	table.mu.RUnlock()
	return id, ok
}

// NameOf returns the string form of an ID ("" for None or out-of-range
// IDs). Trace emission, disassembly, and diagnostics resolve IDs through
// it so everything user-visible stays human-readable.
func NameOf(id ID) string {
	table.mu.RLock()
	defer table.mu.RUnlock()
	if int(id) >= len(table.names) {
		return ""
	}
	return table.names[id]
}

// Len returns the number of interned symbols including the reserved None
// slot (for tests and diagnostics).
func Len() int {
	table.mu.RLock()
	defer table.mu.RUnlock()
	return len(table.names)
}
