package analysis

import "ricjs/internal/objects"

// typedShapes runs after the fixpoint and computes, for every shape the
// analysis can fully account for, a static value type per slot — the
// "typed shape" verdicts that specialize ICs and ship in .ric records.
//
// A slot type is a claim over runtime behavior: every object whose hidden
// class matches the shape holds a value of that type in that slot, at all
// times. The claim is justified in two steps:
//
//  1. Lineage accounting. A runtime object can only reach a hidden class
//     matching shape s by performing s's transitions, which the abstract
//     interpreter models on the absObjs holding s. Objects the analysis
//     cannot fully track — escaped into ⊤, widened shape history,
//     possible dictionary demotion, stores under unknown names — might
//     reach any shape of any lineage they ever held, so every root in
//     their accumulated root set is poisoned: no shape of a poisoned
//     lineage gets typed slots. An untrackable object with no recorded
//     lineage at all disables typed shapes entirely.
//
//  2. Store accounting. For a trackable shape, every store to a slot is
//     recorded in the field cells of the absObjs holding it (field cells
//     are monotone joins over the whole program), so the join of those
//     cells over-approximates every value the slot can ever hold. The
//     join collapses into the slot-type lattice via slotTypeOf; only
//     single-type results become claims.
func (a *analyzer) typedShapes() map[*Shape][]objects.SlotType {
	if a.globalTop {
		return nil
	}
	poisoned := map[*Shape]bool{}
	for _, o := range a.objs {
		if !(o.escaped || o.shapes.top || o.maybeDict || o.unknown != nil) {
			continue
		}
		if len(o.roots) == 0 {
			// Untrackable object of statically-unknown lineage (e.g. an
			// Object.create result): it could alias any shape, so no typed
			// claim is justifiable anywhere.
			return nil
		}
		for _, r := range o.roots {
			poisoned[r] = true
		}
	}
	holders := map[*Shape][]*absObj{}
	for _, o := range a.objs {
		if o.escaped || o.shapes.top {
			continue
		}
		for _, s := range o.shapes.set {
			holders[s] = append(holders[s], o)
		}
	}
	out := map[*Shape][]objects.SlotType{}
	for s, hs := range holders {
		if poisoned[s.root] || len(s.Fields) == 0 {
			continue
		}
		var tags []objects.SlotType
		for off, name := range s.Fields {
			v, ok := joinFieldCells(hs, name)
			if !ok {
				continue
			}
			t := slotTypeOf(v)
			if !objects.ValidSlotTag(t) {
				continue
			}
			if tags == nil {
				tags = make([]objects.SlotType, len(s.Fields))
			}
			tags[off] = t
		}
		if tags != nil {
			out[s] = tags
		}
	}
	return out
}

// joinFieldCells joins the field cells for one property across every
// holder of a shape. ok is false when a holder has no cell for the
// property — a shape field the analysis never saw stored — in which case
// no claim is made.
func joinFieldCells(holders []*absObj, name string) (absVal, bool) {
	var v absVal
	for _, o := range holders {
		c, ok := o.fields[name]
		if !ok {
			return absVal{}, false
		}
		v = v.join(c.get())
	}
	return v, true
}
