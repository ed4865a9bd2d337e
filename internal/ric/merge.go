package ric

import (
	"fmt"
	"sort"

	"ricjs/internal/objects"
	"ricjs/internal/source"
)

// Merge combines records extracted from different runs into one. The
// paper's §9 contrasts RIC with heap snapshots precisely on this ability:
// "the information is maintained for each JavaScript file; therefore, the
// IC information for a library can be shared by different applications".
// Merging per-library records builds the record of an application that
// loads those libraries together.
//
// Hidden-class IDs are per-record, so Merge renumbers them: builtin TOAST
// entries with the same name are unified (they describe the same logical
// hidden class — the builtins' creation is deterministic), and all other
// rows are appended. Site-keyed TOAST entries and dependent lists are
// concatenated and deduplicated; on a triggering-site collision between
// records (two records claiming different transitions for one site, which
// can only happen for records of *different versions* of a script), the
// earlier record wins for conflicting pairs.
//
// All inputs must agree on IncludesGlobals.
func Merge(records ...*Record) (*Record, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("ric: nothing to merge")
	}
	// Validate every input before touching it: a record whose hidden-class
	// IDs exceed its own table (a hand-built or corrupted record) would
	// otherwise index the remap tables out of range.
	for i, r := range records {
		if r == nil {
			return nil, fmt.Errorf("ric: nil record at index %d", i)
		}
		if err := r.validateShape(); err != nil {
			return nil, fmt.Errorf("ric: merge input %d (%s): %w", i, r.Script, err)
		}
	}
	if len(records) == 1 {
		return records[0], nil
	}
	for _, r := range records[1:] {
		if r.IncludesGlobals != records[0].IncludesGlobals {
			return nil, fmt.Errorf("ric: cannot merge records with different IncludesGlobals settings")
		}
	}

	out := &Record{
		Script:          mergedLabel(records),
		SiteTOAST:       make(map[source.Site][]Pair),
		RejectedSites:   make(map[source.Site]bool),
		IncludesGlobals: records[0].IncludesGlobals,
	}

	// Pass 1: assign merged IDs. Builtin-keyed rows unify by name; every
	// other row is appended. remap[i][oldID] = newID for record i.
	remap := make([][]int32, len(records))
	next := int32(0)
	builtinID := make(map[string]int32)
	for i, r := range records {
		remap[i] = make([]int32, r.HCCount)
		for j := range remap[i] {
			remap[i][j] = -1
		}
		// Builtin rows first, in the table's name order.
		for _, b := range r.BuiltinTOAST {
			name, old := b.Name, b.ID
			if unified, ok := builtinID[name]; ok {
				if remap[i][old] == -1 {
					remap[i][old] = unified
				}
				continue
			}
			if remap[i][old] == -1 {
				remap[i][old] = next
				next++
			}
			builtinID[name] = remap[i][old]
		}
		// Remaining rows append.
		for old := int32(0); old < r.HCCount; old++ {
			if remap[i][old] == -1 {
				remap[i][old] = next
				next++
			}
		}
	}
	out.HCCount = next
	out.Deps = make([][]DepEntry, next)

	// Pass 2: rebuild the tables under the merged numbering.
	builtins := make(map[string]int32)
	type pairKey struct{ in, out int32 }
	seenPairs := make(map[source.Site]map[pairKey]bool)
	seenDeps := make(map[int32]map[DepEntry]bool)
	for i, r := range records {
		for _, b := range r.BuiltinTOAST {
			if _, ok := builtins[b.Name]; !ok {
				builtins[b.Name] = remap[i][b.ID]
			}
		}
		for site, pairs := range r.SiteTOAST {
			if seenPairs[site] == nil {
				seenPairs[site] = make(map[pairKey]bool)
			}
			for _, p := range pairs {
				in := p.In
				if in >= 0 {
					in = remap[i][in]
				}
				mp := Pair{In: in, Out: remap[i][p.Out]}
				k := pairKey{mp.In, mp.Out}
				if seenPairs[site][k] {
					continue
				}
				seenPairs[site][k] = true
				out.SiteTOAST[site] = append(out.SiteTOAST[site], mp)
			}
		}
		for old, deps := range r.Deps {
			id := remap[i][int32(old)]
			if seenDeps[id] == nil {
				seenDeps[id] = make(map[DepEntry]bool)
			}
			for _, d := range deps {
				if seenDeps[id][d] {
					continue
				}
				seenDeps[id][d] = true
				out.Deps[id] = append(out.Deps[id], d)
			}
		}
		for site := range r.RejectedSites {
			out.RejectedSites[site] = true
		}
	}
	packDeps(out.Deps)
	out.BuiltinTOAST = builtinTable(builtins)

	// Typed-shape claims: an appended row keeps its claims verbatim; a
	// unified row (builtins shared by several records) keeps a claim only
	// when every contributing record makes one, joined in the lattice. A
	// record that carries no claim for a slot is treated as claiming ⊤
	// there — it may have seen stores the others did not — so the claim is
	// dropped rather than narrowed beyond what all inputs can justify.
	type offsetClaim struct {
		t objects.SlotType
		n int
	}
	rows := make(map[int32]int)                      // merged id -> contributing rows
	claims := make(map[int32]map[int32]*offsetClaim) // merged id -> offset -> joined claim
	for i, r := range records {
		for old := int32(0); old < r.HCCount; old++ {
			id := remap[i][old]
			rows[id]++
			for _, c := range r.TypedSlots[old] {
				m := claims[id]
				if m == nil {
					m = make(map[int32]*offsetClaim)
					claims[id] = m
				}
				if oc := m[c.Offset]; oc == nil {
					m[c.Offset] = &offsetClaim{t: c.Type, n: 1}
				} else {
					oc.t = oc.t.Join(c.Type)
					oc.n++
				}
			}
		}
	}
	for id, m := range claims {
		var merged []SlotClaim
		for off, oc := range m {
			if oc.n == rows[id] && objects.ValidSlotTag(oc.t) {
				merged = append(merged, SlotClaim{Offset: off, Type: oc.t})
			}
		}
		if len(merged) == 0 {
			continue
		}
		sort.Slice(merged, func(i, j int) bool { return merged[i].Offset < merged[j].Offset })
		if out.TypedSlots == nil {
			out.TypedSlots = make(map[int32][]SlotClaim)
		}
		out.TypedSlots[id] = merged
	}

	out.Stats = Stats{
		HiddenClasses:   int(out.HCCount),
		TriggeringSites: len(out.SiteTOAST),
		BuiltinEntries:  len(out.BuiltinTOAST),
		RejectedSites:   len(out.RejectedSites),
	}
	for _, deps := range out.Deps {
		out.Stats.DependentSlots += len(deps)
	}
	out.Stats.ContextIndependentHandlers = out.Stats.DependentSlots
	for _, cs := range out.TypedSlots {
		out.Stats.TypedSlotClaims += len(cs)
	}

	if err := out.validateShape(); err != nil {
		return nil, fmt.Errorf("ric: merge produced invalid record: %w", err)
	}
	out.resident = out.residentBytes()
	return out, nil
}

func mergedLabel(records []*Record) string {
	label := records[0].Script
	for _, r := range records[1:] {
		label += "+" + r.Script
	}
	return label
}
