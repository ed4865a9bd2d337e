package analysis

import (
	"fmt"
	"sort"
	"strings"

	"ricjs/internal/ic"
	"ricjs/internal/objects"
	"ricjs/internal/source"
)

// SitePrediction is the analysis verdict for one object-access site.
type SitePrediction struct {
	Site source.Site
	Kind ic.AccessKind
	// Name is the accessed property for named sites ("" for keyed).
	Name string
	// Top means the site may observe any hidden class (⊤).
	Top bool
	// Shapes is the predicted hidden-class set when Top is false, sorted
	// by shape id.
	Shapes []*Shape
	// Dead marks sites the abstract interpreter proved unreachable; they
	// cannot observe anything at runtime, so preloading them is wasted.
	Dead bool
	// MegamorphicRisk marks sites predicted ⊤, or wider than the IC's
	// polymorphic capacity with hidden classes from more than one root
	// lineage. Same-root fans below that are usually store-order
	// interleavings of a single real transition sequence (an artifact of
	// flow-insensitive shape sets), so they do not count as risk.
	MegamorphicRisk bool
	// MaybeDictionary marks sites whose receiver may have been demoted to
	// dictionary mode (which bypasses ICs entirely).
	MaybeDictionary bool
}

// Covers reports whether a runtime hidden class is within the prediction.
func (p *SitePrediction) Covers(hc *objects.HiddenClass) bool {
	if p.Top {
		return true
	}
	for _, s := range p.Shapes {
		if s.Matches(hc) {
			return true
		}
	}
	return false
}

func (p *SitePrediction) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s", p.Site, p.Kind)
	if p.Name != "" {
		fmt.Fprintf(&b, " %q", p.Name)
	}
	switch {
	case p.Dead:
		b.WriteString(" dead")
	case p.Top:
		b.WriteString(" ⊤")
	default:
		fmt.Fprintf(&b, " %d shapes", len(p.Shapes))
	}
	return b.String()
}

// Result is the output of Analyze: per-site predictions over the analyzed
// scripts plus the static shape transition graph.
type Result struct {
	graph     *Graph
	sites     map[source.Site]*SitePrediction
	order     []*SitePrediction
	scripts   map[string]bool
	globalTop bool

	// slotTypes holds the typed-shape verdicts: for each shape with at
	// least one typed slot, a SlotType per slot offset (SlotTypeNone for
	// untyped slots). A typed slot is a claim: no instance of the shape
	// ever holds a value outside the type in that slot.
	slotTypes map[*Shape][]objects.SlotType

	// byCreator maps each creator identity to the one shape carrying it,
	// or to nil when several shapes do.
	byCreator map[string]*Shape
}

// buildResult expands site records into predictions. This runs after the
// fixpoint, so receivers' shape sets are final — never a stale mid-
// analysis snapshot.
func (a *analyzer) buildResult() *Result {
	r := &Result{
		graph:     a.graph,
		sites:     make(map[source.Site]*SitePrediction, len(a.sites)),
		scripts:   a.scripts,
		globalTop: a.globalTop,
	}
	for _, rec := range a.sites {
		p := &SitePrediction{
			Site: rec.site,
			Kind: rec.kind,
			Name: rec.name,
			Dead: !rec.reached,
		}
		top := rec.top || a.globalTop
		var shapes []*Shape
		for _, o := range rec.objs.list() {
			// Every receiver contributes its dictionary flag, ⊤ or not, so
			// the verdict never depends on map iteration order.
			if o.maybeDict {
				p.MaybeDictionary = true
			}
			if o.escaped || o.shapes.top {
				top = true
			}
			if top {
				continue
			}
			shapes = unionSorted(shapes, o.shapes.set)
		}
		p.Top = top
		if !top {
			p.Shapes = append(make([]*Shape, 0, len(shapes)), shapes...)
		}
		p.MegamorphicRisk = top || overPolymorphic(p.Shapes)
		r.sites[p.Site] = p
	}
	r.slotTypes = a.typedShapes()
	r.byCreator = make(map[string]*Shape)
	for _, s := range a.graph.shapes {
		for c := range s.Creators {
			if _, dup := r.byCreator[c]; dup {
				r.byCreator[c] = nil
			} else {
				r.byCreator[c] = s
			}
		}
	}
	r.order = make([]*SitePrediction, 0, len(r.sites))
	for _, p := range r.sites {
		r.order = append(r.order, p)
	}
	sort.Slice(r.order, func(i, j int) bool {
		a, b := r.order[i].Site, r.order[j].Site
		if a.Script != b.Script {
			return a.Script < b.Script
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Pos.Col < b.Pos.Col
	})
	return r
}

// overPolymorphic reports whether a finite shape set overwhelms the IC:
// more shapes than entries AND more than one root lineage among them.
func overPolymorphic(shapes []*Shape) bool {
	if len(shapes) <= ic.MaxPolymorphic {
		return false
	}
	roots := map[*Shape]bool{}
	for _, s := range shapes {
		r := s
		for r.Parent != nil {
			r = r.Parent
		}
		roots[r] = true
	}
	return len(roots) > 1
}

// At returns the prediction for a site, or nil if the site does not exist
// in the analyzed scripts.
func (r *Result) At(site source.Site) *SitePrediction { return r.sites[site] }

// Sites returns every prediction, ordered by script, line, column.
func (r *Result) Sites() []*SitePrediction { return r.order }

// Covered reports whether a script was part of the analyzed input.
// Verification must skip sites of uncovered scripts (matching
// Record.Validate's policy) instead of rejecting them.
func (r *Result) Covered(script string) bool { return r.scripts[script] }

// GlobalTop reports whether the analysis gave up and widened every
// prediction to ⊤ (fixpoint budget exhausted or graph overflow).
func (r *Result) GlobalTop() bool { return r.globalTop }

// Covers reports whether a hidden class observed (or recorded) at a site
// is within the static prediction. Sites in scripts the analysis never saw
// are vacuously covered; a missing prediction for a covered script is a
// soundness violation and reports false.
func (r *Result) Covers(site source.Site, hc *objects.HiddenClass) bool {
	if r.globalTop {
		return true
	}
	p := r.sites[site]
	if p == nil {
		return !r.scripts[site.Script]
	}
	return p.Covers(hc)
}

// Graph returns the static shape transition graph.
func (r *Result) Graph() *Graph { return r.graph }

// Builtin returns the static shape of a named builtin ("(global)",
// "Object.prototype", ...), or nil.
func (r *Result) Builtin(name string) *Shape { return r.graph.Builtin(name) }

// CtorRoot returns the root shape of instances of the constructor declared
// at declSite, if the analysis saw one.
func (r *Result) CtorRoot(declSite source.Site) *Shape {
	return r.graph.rootByCreator[objects.Creator{Site: declSite}.String()]
}

// RootByCreator returns the root shape for a creator identity string, if
// the analysis created one. It never creates shapes.
func (r *Result) RootByCreator(creator string) *Shape {
	return r.graph.rootByCreator[creator]
}

// ShapeForCreator returns the shape carrying a creator identity when
// exactly one does, and nil otherwise. Builtin transition creators (e.g.
// "builtin:FunctionPrototype.constructor") identify their shape uniquely;
// site creators may legitimately appear on several shapes and resolve to
// nil here.
func (r *Result) ShapeForCreator(creator string) *Shape { return r.byCreator[creator] }

// ShapeCount returns the size of the static graph.
func (r *Result) ShapeCount() int { return len(r.graph.shapes) }

// SlotTypes returns the typed-shape tags for a shape: one SlotType per
// slot offset (SlotTypeNone for untyped slots), or nil when the shape has
// no typed slots. The caller must not modify the returned slice.
func (r *Result) SlotTypes(s *Shape) []objects.SlotType { return r.slotTypes[s] }

// SlotTypeAt returns the static type claim for one slot of a shape, or
// SlotTypeNone when the slot is untyped.
func (r *Result) SlotTypeAt(s *Shape, offset int) objects.SlotType {
	tags := r.slotTypes[s]
	if offset < 0 || offset >= len(tags) {
		return objects.SlotTypeNone
	}
	return tags[offset]
}

// TypedStats reports how many shapes carry at least one typed slot and
// the total number of typed slots — the staticTypes figures ricbench
// publishes.
func (r *Result) TypedStats() (typedShapes, typedSlots int) {
	for _, tags := range r.slotTypes {
		n := 0
		for _, t := range tags {
			if t != objects.SlotTypeNone {
				n++
			}
		}
		if n > 0 {
			typedShapes++
			typedSlots += n
		}
	}
	return typedShapes, typedSlots
}
