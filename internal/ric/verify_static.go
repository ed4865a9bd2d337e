package ric

import (
	"fmt"
	"sort"

	"ricjs/internal/analysis"
	"ricjs/internal/ic"
	"ricjs/internal/objects"
	"ricjs/internal/source"
)

// VerifyStatic cross-checks the record's semantic content — the HC
// validation table, the triggering-site table, and the dependent-site
// handler offsets — against a static shape analysis of the scripts,
// without executing anything. It complements Decode (integrity) and
// Validate (site existence): a record can pass both and still lie about
// *which* hidden class a site observes or *where* a field lives, which is
// exactly what a remapped or offset-skewed record does. Such a record
// degrades a Reuse run at best and must be caught before it is trusted.
//
// The check resolves every hidden-class ID the record can justify to a
// static shape: builtin-keyed TOAST entries resolve through the mirrored
// startup graph, rootless site entries through constructor roots, and
// (in, out) pairs by following the static transition edge named by the
// triggering store site. Resolution is conservative — IDs the analysis
// cannot pin down (keyed-store lineages, ⊤ sites, uncovered scripts) are
// skipped, never rejected — so a truthful record always passes, matching
// Validate's policy for a record from a multi-script session that spans
// unloaded scripts.
//
// For every resolved ID the record's claims are then recomputed from the
// static shape: field handlers must name a property the shape stores at
// exactly the recorded offset, element/length handlers must sit on an
// Array-rooted lineage, and every (site, class) dependency must be inside
// the site's predicted hidden-class set. If the analysis widened to global
// ⊤ it can certify nothing and the record is accepted vacuously.
func (r *Record) VerifyStatic(res *analysis.Result) error {
	if res == nil || res.GlobalTop() {
		return nil
	}

	shapes, err := r.resolveShapes(res)
	if err != nil {
		return err
	}

	for hcid, deps := range r.Deps {
		s := shapes[hcid]
		if s == nil {
			continue
		}
		for _, d := range deps {
			if err := checkDepAgainstShape(int32(hcid), d, s); err != nil {
				return err
			}
			if !res.Covered(d.Site.Script) {
				continue
			}
			pred := res.At(d.Site)
			if pred == nil {
				return fmt.Errorf("ric: HCID %d dependent %s: no such access site in analyzed scripts (stale record?)", hcid, d.Site)
			}
			if pred.Dead {
				return fmt.Errorf("ric: HCID %d dependent %s: statically unreachable, yet the record claims it observed a class", hcid, d.Site)
			}
			if pred.Kind != d.Kind || pred.Name != d.Name {
				return fmt.Errorf("ric: HCID %d dependent %s: record says %s %q, analysis sees %s %q",
					hcid, d.Site, d.Kind, d.Name, pred.Kind, pred.Name)
			}
			if !pred.Top && !predContains(pred, s) {
				return fmt.Errorf("ric: HCID %d dependent %s: class %s is outside the predicted set %v (remapped record?)",
					hcid, d.Site, s, pred)
			}
		}
	}
	return nil
}

// resolveShapes maps every hidden-class ID the record can statically
// justify to its analysis shape — the shared resolution step behind
// VerifyStatic, VerifyTyped, and offline claim attachment
// (AttachTypedShapes). Unresolvable IDs stay nil (conservative); an ID
// resolving to two distinct shapes is an inconsistency error.
func (r *Record) resolveShapes(res *analysis.Result) ([]*analysis.Shape, error) {
	shapes := make([]*analysis.Shape, r.HCCount)
	// assign records s for id and reports whether id already resolved to
	// a different shape. The caller describes the conflict, so the
	// description is built only on the error path.
	assign := func(id int32, s *analysis.Shape) (conflict bool) {
		if s == nil || id < 0 || int(id) >= len(shapes) {
			return false
		}
		if shapes[id] == nil {
			shapes[id] = s
			return false
		}
		return shapes[id] != s
	}
	conflictErr := func(id int32, s *analysis.Shape, how string) error {
		return fmt.Errorf("ric: HCID %d resolves to both %s and %s (%s): HC table inconsistent with static transition graph",
			id, shapes[id], s, how)
	}

	// Builtin-keyed TOAST rows anchor resolution: startup is deterministic,
	// so every builtin name the analysis knows maps to exactly one shape.
	for _, b := range r.BuiltinTOAST {
		s := res.Builtin(b.Name)
		if s == nil {
			s = res.ShapeForCreator(objects.Creator{Builtin: b.Name}.String())
		}
		if assign(b.ID, s) {
			return nil, conflictErr(b.ID, s, "builtin "+b.Name)
		}
	}

	// Sites are visited in the order of their String form; each key is
	// rendered once, not inside every comparison.
	type keyedSite struct {
		key  string
		site source.Site
	}
	keyed := make([]keyedSite, 0, len(r.SiteTOAST))
	for site := range r.SiteTOAST {
		keyed = append(keyed, keyedSite{site.String(), site})
	}
	sort.Slice(keyed, func(i, j int) bool { return keyed[i].key < keyed[j].key })

	// Site-keyed rows chain off already-resolved classes, so iterate to a
	// fixpoint: the pair giving an ID its shape may be visited after the
	// pair consuming it.
	for progress := true; progress; {
		progress = false
		for _, k := range keyed {
			site := k.site
			if !res.Covered(site.Script) {
				continue
			}
			pred := res.At(site)
			if pred != nil && pred.Dead {
				return nil, fmt.Errorf("ric: TOAST site %s: statically unreachable, yet the record claims it created hidden classes", site)
			}
			for _, p := range r.SiteTOAST[site] {
				before := shapes[p.Out]
				switch {
				case p.In < 0:
					// Rootless creation: a constructor's instance root,
					// keyed by the declaring function's site.
					root := res.RootByCreator(objects.Creator{Site: site}.String())
					if assign(p.Out, root) {
						return nil, conflictErr(p.Out, root, fmt.Sprintf("root at %s", site))
					}
				case shapes[p.In] != nil:
					if pred == nil || pred.Name == "" {
						continue // keyed store: no static identity
					}
					if !pred.Top && !predContains(pred, shapes[p.In]) {
						return nil, fmt.Errorf("ric: TOAST site %s: incoming class %s is outside the predicted set %v",
							site, shapes[p.In], pred)
					}
					next, ok := shapes[p.In].TransitionTo(pred.Name)
					if !ok {
						if pred.Top {
							continue // receiver unknown: edge may be real
						}
						return nil, fmt.Errorf("ric: TOAST site %s: no static transition %s --%q--> (stale or lying record)",
							site, shapes[p.In], pred.Name)
					}
					if assign(p.Out, next) {
						return nil, conflictErr(p.Out, next, fmt.Sprintf("transition at %s", site))
					}
				}
				if shapes[p.Out] != before {
					progress = true
				}
			}
		}
	}
	return shapes, nil
}

func predContains(p *analysis.SitePrediction, s *analysis.Shape) bool {
	for _, ps := range p.Shapes {
		if ps == s {
			return true
		}
	}
	return false
}

// checkDepAgainstShape recomputes a dependent handler's claims from the
// static shape its hidden class resolved to. This is the offline analog of
// handlerFits: offsets must match the shape's layout, and element/length
// handlers must sit on an Array lineage.
func checkDepAgainstShape(hcid int32, d DepEntry, s *analysis.Shape) error {
	checkField := func(name string) error {
		// A handler may legitimately be cached against the receiver's
		// pre-materialization class: a load miss that creates the property
		// (function .prototype) installs the post-transition offset keyed on
		// the class it observed. Accept the claim if either the shape itself
		// or its one-step transition target for the field stores it at the
		// recorded offset; the runtime preload check (handlerFits) treats
		// the stale-keyed variant as a harmless no-op.
		off, ok := s.Offset(name)
		if !ok {
			if next, edge := s.TransitionTo(name); edge {
				off, ok = next.Offset(name)
			}
		}
		if !ok {
			return fmt.Errorf("ric: HCID %d dependent %s: handler reads %q but shape %s has no such field (remapped record?)",
				hcid, d.Site, name, s)
		}
		if int32(off) != d.Desc.Offset {
			return fmt.Errorf("ric: HCID %d dependent %s: handler offset %d for %q, shape %s stores it at %d",
				hcid, d.Site, d.Desc.Offset, name, s, off)
		}
		return nil
	}
	switch d.Desc.Kind {
	case ic.KindLoadField, ic.KindStoreField:
		return checkField(d.Name)
	case ic.KindLoadArrayLength, ic.KindLoadElement, ic.KindStoreElement:
		if !arrayLineage(s) {
			return fmt.Errorf("ric: HCID %d dependent %s: %s handler on non-array shape %s",
				hcid, d.Site, d.Desc.Kind, s)
		}
	case ic.KindKeyedNamed:
		if d.Desc.Inner == ic.KindLoadField || d.Desc.Inner == ic.KindStoreField {
			return checkField(d.Desc.Name)
		}
		if d.Desc.Inner == ic.KindLoadArrayLength && !arrayLineage(s) {
			return fmt.Errorf("ric: HCID %d dependent %s: keyed length handler on non-array shape %s",
				hcid, d.Site, s)
		}
	}
	return nil
}

// arrayLineage reports whether a shape descends from the builtin Array
// root.
func arrayLineage(s *analysis.Shape) bool {
	root := s
	for root.Parent != nil {
		root = root.Parent
	}
	return root.Creators[objects.Creator{Builtin: "Array"}.String()]
}
