// Package analysis implements a static shape analysis over compiled
// bytecode: a flow-sensitive abstract interpreter that tracks an abstract
// heap of hidden-class transitions and predicts, for every object access
// site, the set of hidden classes the site can observe at runtime.
//
// The analysis mirrors the runtime transition graph of internal/objects in
// a purely static Shape graph keyed by context-independent creator
// identities (builtin names and triggering sites), exactly the identities
// the RIC record format persists. Its results feed three consumers:
//
//   - offline .ric verification (riclint / ric.Record.VerifyStatic), which
//     cross-checks a record's hidden-class table and handler offsets
//     against the graph without executing the script;
//   - the reuser, which pre-filters preloads whose hidden classes the
//     analysis proves unreachable at their site;
//   - the differential soundness harness, which asserts that every hidden
//     class observed at a site during execution is covered by the site's
//     static prediction (or widened to ⊤).
//
// Soundness discipline: every widening is toward ⊤ — merge points join,
// unknown receivers and escaped objects predict ⊤, and unresolvable
// control flow falls back to a global ⊤. The analysis may over-approximate
// (predict shapes that never materialize) but must never omit a shape a
// site can observe.
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"ricjs/internal/objects"
)

// Shape is the static mirror of a runtime hidden class: an object layout
// (property names in offset order) plus the set of context-independent
// creator identities that may create it. The runtime records exactly one
// creator per hidden class (first transition wins); the static graph keeps
// a set because execution order is not statically known.
type Shape struct {
	// ID is the creation-order id within the graph (deterministic for a
	// deterministic analysis input).
	ID int
	// Parent is the shape this one transitions from; nil for roots.
	Parent *Shape
	// Fields lists property names in slot-offset order.
	Fields []string
	// Creators is the set of creator strings (objects.Creator.String()
	// renderings) that may create this shape at runtime.
	Creators map[string]bool

	// offsets indexes Fields by name for layouts larger than
	// layoutLinearMax; nil below the threshold, where lookups scan Fields.
	offsets     map[string]int
	transitions map[string]*Shape
	// root caches the lineage root (the ancestor with Parent == nil; self
	// for roots), so lineage checks need no walking.
	root *Shape
}

// Root returns the root shape of this shape's transition lineage.
func (s *Shape) Root() *Shape { return s.root }

// layoutLinearMax is the layout size up to which property lookup scans
// Fields instead of probing an offsets map, as objects.HiddenClass does.
// Almost every shape stays below it, so most shapes carry no map.
const layoutLinearMax = 8

// HasField reports whether the layout contains a property.
func (s *Shape) HasField(name string) bool {
	_, ok := s.Offset(name)
	return ok
}

// Offset returns the slot offset of a property in the layout.
func (s *Shape) Offset(name string) (int, bool) {
	if s.offsets != nil {
		off, ok := s.offsets[name]
		return off, ok
	}
	for i, f := range s.Fields {
		if f == name {
			return i, true
		}
	}
	return 0, false
}

// NumFields returns the number of fields in the layout.
func (s *Shape) NumFields() int { return len(s.Fields) }

// TransitionTo returns the existing transition target for a property, if
// the graph has one.
func (s *Shape) TransitionTo(name string) (*Shape, bool) {
	t, ok := s.transitions[name]
	return t, ok
}

// Matches reports whether a runtime hidden class is an instance of this
// static shape: identical layout, a creator the analysis considers
// possible, and agreeing root-ness. Simulated addresses and ids do not
// participate — they are context-dependent.
func (s *Shape) Matches(hc *objects.HiddenClass) bool {
	if hc == nil {
		return false
	}
	fields := hc.Fields()
	if len(fields) != len(s.Fields) {
		return false
	}
	for i, f := range fields {
		if s.Fields[i] != f {
			return false
		}
	}
	if (hc.Parent() == nil) != (s.Parent == nil) {
		return false
	}
	return s.Creators[hc.Creator().String()]
}

// String renders the shape for diagnostics.
func (s *Shape) String() string {
	return fmt.Sprintf("shape#%d{%s}", s.ID, strings.Join(s.Fields, ","))
}

// Graph is the static hidden-class transition graph: roots keyed by
// creator identity plus transition edges keyed by (parent, property name),
// mirroring objects.HiddenClass.Transition's first-wins identity.
type Graph struct {
	shapes        []*Shape
	rootByCreator map[string]*Shape
	builtins      map[string]*Shape
}

func newGraph() *Graph {
	return &Graph{
		rootByCreator: make(map[string]*Shape),
		builtins:      make(map[string]*Shape),
	}
}

// maxShapes bounds graph growth; an analysis that exceeds it widens to the
// global ⊤ instead of building an unbounded graph.
const maxShapes = 20000

func (g *Graph) newShape(parent *Shape, fields []string) *Shape {
	s := &Shape{
		ID:       len(g.shapes),
		Parent:   parent,
		Fields:   fields,
		Creators: make(map[string]bool, 1),
	}
	if len(fields) > layoutLinearMax {
		s.offsets = make(map[string]int, len(fields))
		for i, f := range fields {
			s.offsets[f] = i
		}
	}
	if parent == nil {
		s.root = s
	} else {
		s.root = parent.root
	}
	g.shapes = append(g.shapes, s)
	return s
}

// Root returns the root (empty-layout) shape for a creator identity,
// creating it on first use. Runtime root hidden classes are allocated once
// per creator during deterministic startup or at constructor sites, so the
// creator string is a stable key.
func (g *Graph) Root(creator string) *Shape {
	if s, ok := g.rootByCreator[creator]; ok {
		return s
	}
	s := g.newShape(nil, nil)
	s.Creators[creator] = true
	g.rootByCreator[creator] = s
	return s
}

// Transition returns the shape reached by adding a property to from,
// creating the edge on first use and accumulating the creator identity.
// It reports whether anything changed (a new shape or a new creator).
func (g *Graph) Transition(from *Shape, name, creator string) (next *Shape, changed bool) {
	if t, ok := from.transitions[name]; ok {
		if !t.Creators[creator] {
			t.Creators[creator] = true
			return t, true
		}
		return t, false
	}
	fields := make([]string, len(from.Fields)+1)
	copy(fields, from.Fields)
	fields[len(from.Fields)] = name
	next = g.newShape(from, fields)
	next.Creators[creator] = true
	if from.transitions == nil {
		from.transitions = make(map[string]*Shape, 2)
	}
	from.transitions[name] = next
	return next, true
}

// Builtin returns the post-startup shape registered for a builtin object
// name ("(global)", "Object.prototype", ...), or nil.
func (g *Graph) Builtin(name string) *Shape { return g.builtins[name] }

// BuiltinNames returns the registered builtin names sorted.
func (g *Graph) BuiltinNames() []string {
	out := make([]string, 0, len(g.builtins))
	for n := range g.builtins {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Shapes returns every shape in creation order.
func (g *Graph) Shapes() []*Shape { return g.shapes }

// overflowed reports whether the graph outgrew its budget.
func (g *Graph) overflowed() bool { return len(g.shapes) > maxShapes }
