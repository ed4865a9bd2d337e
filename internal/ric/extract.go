package ric

import (
	"slices"
	"strings"

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

// numbering gives the record's hidden-class IDs: roots in creation order,
// each transition subtree in sorted-property order.
type numbering struct {
	// order[id] is the class with record ID id.
	order []*objects.HiddenClass
	// ids maps a class's space ordinal to its record ID, or -1 for a class
	// no root reaches (the dictionary class).
	ids []int32
	// [globalLo, globalHi) are the record IDs of the global object's shape
	// lineage, which extraction skips unless configured in; empty when
	// none is skipped.
	globalLo, globalHi int32
}

// number enumerates the VM's hidden classes. Record IDs follow the walk,
// so a root's subtree, the global object's lineage among them, takes
// consecutive IDs.
func number(v *vm.VM, skipGlobal bool) numbering {
	n := numbering{ids: make([]int32, v.Space.HiddenClasses())}
	for i := range n.ids {
		n.ids[i] = -1
	}
	n.order = make([]*objects.HiddenClass, 0, len(n.ids))
	for _, root := range v.Roots() {
		from := int32(len(n.order))
		root.WalkTransitions(func(hc *objects.HiddenClass) {
			if n.ids[hc.Ordinal()] < 0 {
				n.ids[hc.Ordinal()] = int32(len(n.order))
				n.order = append(n.order, hc)
			}
		})
		if skipGlobal && root.Creator().Builtin == "(global)#root" {
			n.globalLo, n.globalHi = from, int32(len(n.order))
		}
	}
	return n
}

// id returns hc's record ID, or -1 when hc is not enumerated or belongs to
// the skipped global lineage.
func (n *numbering) id(hc *objects.HiddenClass) int32 {
	if hc == nil {
		return -1
	}
	id := n.ids[hc.Ordinal()]
	if n.global(id) {
		return -1
	}
	return id
}

// global reports whether record ID id belongs to the skipped global
// lineage.
func (n *numbering) global(id int32) bool { return n.globalLo <= id && id < n.globalHi }

// Extract runs the extraction phase (paper §5.2.1) over a completed VM:
// it enumerates the hidden-class graph, builds the HCVT dependent lists
// from the ICVectors, and builds the TOAST from each hidden class's
// recorded creator. The VM is read, not modified; extraction is the
// paper's off-line, off-critical-path step.
//
// Each step costs time in proportion to what it reads: classes are
// numbered through a slice indexed by their space ordinal, and the
// dependent lists are counted before they are filled, so every row is cut
// from one exactly sized array.
func Extract(v *vm.VM, label string, cfg Config) *Record {
	rec := &Record{
		Script:          label,
		IncludesGlobals: cfg.IncludeGlobals,
	}

	// 1. Enumerate hidden classes deterministically. The global object's
	// shape lineage is excluded from reuse unless configured in: its
	// history is load-order dependent.
	n := number(v, !cfg.IncludeGlobals)
	rec.HCCount = int32(len(n.order))

	// 2. TOAST: one entry per triggering creator. Builtin-created classes
	// get name-keyed entries; site-created classes get site-keyed pairs
	// with the transition parent as incoming class.
	sites, builtins := 0, 0
	for _, hc := range n.order {
		switch c := hc.Creator(); {
		case c.IsBuiltin():
			builtins++
		case !c.IsZero():
			sites++
		}
	}
	created := make([]Builtin, 0, builtins)
	rec.SiteTOAST = make(map[source.Site][]Pair, sites)
	for i, hc := range n.order {
		id := int32(i)
		creator := hc.Creator()
		switch {
		case creator.IsZero():
			// Keyed stores have no context-independent identity.
		case !cfg.IncludeGlobals && (creator.Global || n.global(id)):
			// Global-object shape history is load-order dependent.
		case creator.IsBuiltin():
			created = append(created, Builtin{Name: creator.Builtin, ID: id})
		default:
			in := int32(-1)
			if p := hc.Parent(); p != nil {
				in = n.ids[p.Ordinal()]
			}
			rec.SiteTOAST[creator.Site] = append(rec.SiteTOAST[creator.Site], Pair{In: in, Out: id})
		}
	}
	rec.BuiltinTOAST = builtinTOAST(created, v.Builtins(), &n)

	// 3. HCVT dependent lists: scan every ICVector slot entry. A
	// context-independent handler makes (site, hidden class) a dependent
	// pair; a context-dependent one marks the site rejected (§4: "If the
	// handler for a would-be Dependent site is not context-independent,
	// the site is not added to the Dependent list"). A first pass counts
	// each row and the rejected sites; the second fills both.
	vectors := v.Vectors()
	counts := make([]int32, len(n.order))
	total, nrejected := 0, 0
	for _, vec := range vectors {
		for i := range vec.Slots {
			slot := &vec.Slots[i]
			if len(slot.Entries) == 0 || slot.Kind.IsGlobal() && !cfg.IncludeGlobals {
				continue
			}
			reject := false
			for _, e := range slot.Entries {
				id := n.id(e.HC)
				if id < 0 {
					continue
				}
				if _, ci := ic.DescribeCI(e.H); !ci {
					reject = true
					continue
				}
				counts[id]++
				total++
			}
			if reject {
				nrejected++
			}
		}
	}
	flat := make([]DepEntry, total)
	rec.Deps = make([][]DepEntry, len(n.order))
	for id, c := range counts {
		if c > 0 {
			rec.Deps[id] = flat[:0:c]
			flat = flat[c:]
		}
	}
	rec.RejectedSites = make(map[source.Site]bool, nrejected)
	for _, vec := range vectors {
		for i := range vec.Slots {
			slot := &vec.Slots[i]
			if len(slot.Entries) == 0 || slot.Kind.IsGlobal() && !cfg.IncludeGlobals {
				continue
			}
			// The site's name is a slice of the script's source, which a
			// record must not pin; the symbol table's copy is shared.
			var name string
			named := false
			for _, e := range slot.Entries {
				id := n.id(e.HC)
				if id < 0 {
					continue
				}
				desc, ci := ic.DescribeCI(e.H)
				if !ci {
					rec.RejectedSites[slot.Site()] = true
					continue
				}
				if !named {
					name, named = symtab.NameOf(slot.NameID), true
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
	rec.resident = rec.residentBytes()

	rec.Stats = Stats{
		HiddenClasses:   int(rec.HCCount),
		TriggeringSites: len(rec.SiteTOAST),
		BuiltinEntries:  len(rec.BuiltinTOAST),
		DependentSlots:  total,
		RejectedSites:   len(rec.RejectedSites),
	}
	return rec
}

// builtinTOAST returns the name-keyed TOAST, sorted by name with each
// name once. created lists the builtin-created classes in record-ID order;
// the first class of a name gives its entry. finals are the VM's
// post-startup builtin classes, which override it, a later one of a name
// winning: they anchor validation, as the Reuse run announces them at
// startup (paper §4: builtins validate immediately because their creation
// is deterministic).
func builtinTOAST(created []Builtin, finals []vm.BuiltinHC, n *numbering) []Builtin {
	byName := func(a, b Builtin) int { return strings.Compare(a.Name, b.Name) }
	slices.SortStableFunc(created, byName)
	t := slices.CompactFunc(created, func(a, b Builtin) bool { return a.Name == b.Name })
	for _, f := range finals {
		id := n.id(f.HC)
		if id < 0 {
			continue
		}
		b := Builtin{Name: f.Name, ID: id}
		if i, found := slices.BinarySearchFunc(t, b, byName); found {
			t[i].ID = id
		} else {
			t = slices.Insert(t, i, b)
		}
	}
	// A resident record keeps the table; its heap charge counts what the
	// table's capacity holds, so the table is cut to size, as Decode's is.
	return slices.Clone(t)
}
