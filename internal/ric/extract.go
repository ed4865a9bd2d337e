package ric

import (
	"ricjs/internal/ic"
	"ricjs/internal/objects"
	"ricjs/internal/source"
	"ricjs/internal/symtab"
	"ricjs/internal/vm"
)

// Config controls extraction and reuse.
type Config struct {
	// IncludeGlobals extracts and reuses IC state for the global object.
	// Off by default: the global object's hidden-class history depends on
	// script load order (paper §6). The ablation benches turn it on.
	IncludeGlobals bool
}

// Extract runs the extraction phase (paper §5.2.1) over a completed VM:
// it enumerates the hidden-class graph, builds the HCVT dependent lists
// from the ICVectors, and builds the TOAST from each hidden class's
// recorded creator. The VM is read, not modified; extraction is the
// paper's off-line, off-critical-path step.
func Extract(v *vm.VM, label string, cfg Config) *Record {
	rec := &Record{
		Script:          label,
		SiteTOAST:       make(map[source.Site][]Pair),
		RejectedSites:   make(map[source.Site]bool),
		IncludesGlobals: cfg.IncludeGlobals,
	}
	builtins := make(map[string]int32)

	// 1. Enumerate hidden classes deterministically: roots in creation
	// order, transition subtrees in sorted-property order.
	ids := make(map[*objects.HiddenClass]int32)
	var order []*objects.HiddenClass
	for _, root := range v.Roots() {
		root.WalkTransitions(func(hc *objects.HiddenClass) {
			if _, seen := ids[hc]; seen {
				return
			}
			ids[hc] = int32(len(order))
			order = append(order, hc)
		})
	}
	rec.HCCount = int32(len(order))
	rec.Deps = make([][]DepEntry, len(order))

	// Mark the global object's shape lineage; it is excluded from reuse
	// unless configured in.
	globalShapes := make(map[*objects.HiddenClass]bool)
	if !cfg.IncludeGlobals {
		for _, root := range v.Roots() {
			if root.Creator().Builtin == "(global)#root" {
				root.WalkTransitions(func(hc *objects.HiddenClass) { globalShapes[hc] = true })
			}
		}
	}

	// 2. TOAST: one entry per triggering creator. Builtin-created classes
	// get name-keyed entries; site-created classes get site-keyed pairs
	// with the transition parent as incoming class.
	for _, hc := range order {
		creator := hc.Creator()
		switch {
		case creator.IsZero():
			// Keyed stores have no context-independent identity.
		case !cfg.IncludeGlobals && (creator.Global || globalShapes[hc]):
			// Global-object shape history is load-order dependent.
		case creator.IsBuiltin():
			if _, exists := builtins[creator.Builtin]; !exists {
				builtins[creator.Builtin] = ids[hc]
			}
		default:
			in := int32(-1)
			if p := hc.Parent(); p != nil {
				if pid, ok := ids[p]; ok {
					in = pid
				}
			}
			rec.SiteTOAST[creator.Site] = append(rec.SiteTOAST[creator.Site], Pair{In: in, Out: ids[hc]})
		}
	}

	// The post-startup hidden classes of builtin objects anchor
	// validation: the Reuse run announces them at startup (paper §4:
	// builtins validate immediately because their creation is
	// deterministic).
	for _, b := range v.Builtins() {
		if id, ok := ids[b.HC]; ok {
			if !cfg.IncludeGlobals && globalShapes[b.HC] {
				continue
			}
			builtins[b.Name] = id
		}
	}
	rec.BuiltinTOAST = builtinTable(builtins)

	// 3. HCVT dependent lists: scan every ICVector slot entry. A
	// context-independent handler makes (site, hidden class) a dependent
	// pair; a context-dependent one marks the site rejected (§4: "If the
	// handler for a would-be Dependent site is not context-independent,
	// the site is not added to the Dependent list").
	for _, vec := range v.Vectors() {
		for i := range vec.Slots {
			slot := &vec.Slots[i]
			if len(slot.Entries) == 0 || slot.Kind.IsGlobal() && !cfg.IncludeGlobals {
				continue
			}
			// The site's name is a slice of the script's source, which a
			// record must not pin; the symbol table's copy is shared.
			name := symtab.NameOf(slot.NameID)
			for _, e := range slot.Entries {
				id, ok := ids[e.HC]
				if !ok {
					continue
				}
				if !cfg.IncludeGlobals && globalShapes[e.HC] {
					continue
				}
				desc, ci := ic.DescribeCI(e.H)
				if !ci {
					rec.RejectedSites[slot.Site()] = true
					continue
				}
				rec.Deps[id] = append(rec.Deps[id], DepEntry{
					Site:   slot.Site(),
					Kind:   slot.Kind,
					Name:   name,
					NameID: slot.NameID,
					Desc:   desc,
				})
			}
		}
	}

	packDeps(rec.Deps)
	rec.resident = rec.residentBytes()

	rec.Stats = Stats{
		HiddenClasses:   int(rec.HCCount),
		TriggeringSites: len(rec.SiteTOAST),
		BuiltinEntries:  len(rec.BuiltinTOAST),
		RejectedSites:   len(rec.RejectedSites),
	}
	for _, deps := range rec.Deps {
		rec.Stats.DependentSlots += len(deps)
	}
	rec.Stats.ContextIndependentHandlers = rec.Stats.DependentSlots
	return rec
}
