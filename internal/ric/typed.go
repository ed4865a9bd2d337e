package ric

import (
	"fmt"
	"sort"

	"ricjs/internal/analysis"
	"ricjs/internal/objects"
)

// AttachTypedShapes computes the record's typed-shape claims (the v5 wire
// section) from a static value-type analysis of the recorded scripts. For
// every hidden-class ID the record can statically justify (resolveShapes),
// the analysis's per-slot type verdicts become SlotClaims; shapes the
// analysis could not type — or IDs it cannot resolve — simply carry no
// claims, which is always sound.
//
// This is an optional offline step: Engine.ExtractRecord never calls it,
// so served records carry no claims, and no runtime path reads them.
// Tooling that wants a typed record calls it on a freshly extracted
// record before sharing or encoding it, since the Record immutability
// contract starts once construction ends. A nil or ⊤-widened analysis
// attaches nothing and leaves the record unchanged.
func (r *Record) AttachTypedShapes(res *analysis.Result) {
	if res == nil || res.GlobalTop() {
		return
	}
	shapes, err := r.resolveShapes(res)
	if err != nil {
		// The record is inconsistent with the analysis; claims computed on
		// top of a broken resolution would be meaningless. Leave the record
		// claim-free — VerifyStatic will report the inconsistency itself.
		return
	}
	for hcid, s := range shapes {
		if s == nil {
			continue
		}
		tags := res.SlotTypes(s)
		var claims []SlotClaim
		for off, t := range tags {
			if objects.ValidSlotTag(t) {
				claims = append(claims, SlotClaim{Offset: int32(off), Type: t})
			}
		}
		if len(claims) == 0 {
			continue
		}
		sort.Slice(claims, func(i, j int) bool { return claims[i].Offset < claims[j].Offset })
		if r.TypedSlots == nil {
			r.TypedSlots = make(map[int32][]SlotClaim)
		}
		r.TypedSlots[int32(hcid)] = claims
		r.Stats.TypedSlotClaims += len(claims)
	}
}

// VerifyTyped is the fourth offline verification layer (after Decode,
// Validate, and VerifyStatic): every typed-shape claim the record carries
// is recomputed from the bytecode. A claim is sound only if the analysis's
// own verdict for the slot is at least as precise — inferred ⊑ claimed in
// the value-type lattice — because the analysis verdict is an
// over-approximation of every value the slot can ever hold. A record
// claiming SmallInt where the analysis infers ⊤ (or String) is lying or
// stale, and a Reuse run trusting it would serve unboxed reads of
// non-numeric slots.
//
// Resolution stays conservative exactly as in VerifyStatic: claims against
// IDs the analysis cannot pin down are skipped, never rejected, so a
// truthful record whose scripts are only partially supplied still passes.
// A nil or ⊤-widened analysis verifies nothing (vacuous accept).
func (r *Record) VerifyTyped(res *analysis.Result) error {
	if res == nil || res.GlobalTop() || len(r.TypedSlots) == 0 {
		return nil
	}
	shapes, err := r.resolveShapes(res)
	if err != nil {
		return err
	}
	ids := make([]int32, 0, len(r.TypedSlots))
	for id := range r.TypedSlots {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		s := shapes[id]
		if s == nil {
			continue
		}
		for _, c := range r.TypedSlots[id] {
			inferred := res.SlotTypeAt(s, int(c.Offset))
			if !inferred.Leq(c.Type) {
				return fmt.Errorf("ric: typed shape %d (%s) slot %d: record claims %s, analysis infers %s (forged or stale claim)",
					id, s, c.Offset, c.Type, inferred)
			}
		}
	}
	return nil
}
