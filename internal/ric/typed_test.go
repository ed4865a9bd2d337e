package ric

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"ricjs/internal/analysis"
	"ricjs/internal/objects"
	"ricjs/internal/vm"
	"ricjs/internal/workloads"
)

// extractTypedPointRecord records the point fixture and attaches the
// typed-shape claims its static analysis justifies.
func extractTypedPointRecord(t *testing.T) (*Record, *analysis.Result) {
	t.Helper()
	res, prog := analyzePointFixture(t)
	v := vm.New(vm.Options{})
	if _, err := v.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	rec := Extract(v, "lib.js", Config{})
	rec.AttachTypedShapes(res)
	return rec, res
}

func TestTypedClaimsRoundTrip(t *testing.T) {
	rec, res := extractTypedPointRecord(t)
	if rec.Stats.TypedSlotClaims == 0 {
		t.Fatal("fixture produced no typed-shape claims; the typed section is untested")
	}
	data := rec.Encode()
	back, err := Decode(data)
	if err != nil {
		t.Fatalf("typed record does not decode: %v", err)
	}
	if !reflect.DeepEqual(back.TypedSlots, rec.TypedSlots) {
		t.Fatalf("typed claims changed across encode/decode:\nout: %v\nin:  %v", rec.TypedSlots, back.TypedSlots)
	}
	if back.Stats.TypedSlotClaims != rec.Stats.TypedSlotClaims {
		t.Fatalf("claim count %d after decode, want %d", back.Stats.TypedSlotClaims, rec.Stats.TypedSlotClaims)
	}
	if again := back.Encode(); !bytes.Equal(again, data) {
		t.Fatal("decode → encode of a typed record is not byte-identical")
	}
	// The fourth verification layer recomputes every claim from bytecode;
	// a truthful record must pass.
	if err := back.VerifyTyped(res); err != nil {
		t.Fatalf("truthful typed record rejected: %v", err)
	}
}

// BenchmarkAttachTypedShapes times claim attachment — shape resolution
// plus slot-type lookup — on each profile's freshly extracted record.
func BenchmarkAttachTypedShapes(b *testing.B) {
	for _, p := range workloads.Profiles {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			prog := compileSrc(b, p.Script, p.Source())
			res := analysis.Analyze(prog)
			v := vm.New(vm.Options{})
			if _, err := v.RunProgram(prog); err != nil {
				b.Fatal(err)
			}
			rec := Extract(v, p.Script, Config{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec.TypedSlots, rec.Stats.TypedSlotClaims = nil, 0
				rec.AttachTypedShapes(res)
			}
		})
	}
}

// TestVerifyTypedRejectsForgedClaim flips one claim to a type the analysis
// cannot justify: the offline recomputation must catch it, because a Reuse
// run trusting it would serve unboxed reads of a differently-typed slot.
func TestVerifyTypedRejectsForgedClaim(t *testing.T) {
	rec, res := extractTypedPointRecord(t)
	forged, err := Decode(rec.Encode())
	if err != nil {
		t.Fatal(err)
	}
	changed := false
	for id, claims := range forged.TypedSlots {
		for i, c := range claims {
			// Swap the claim for a different concrete type: numbers become
			// strings, everything else becomes boolean.
			if c.Type == objects.SlotTypeString {
				claims[i].Type = objects.SlotTypeBoolean
			} else {
				claims[i].Type = objects.SlotTypeString
			}
			changed = true
			_ = id
			break
		}
		if changed {
			break
		}
	}
	if !changed {
		t.Fatal("no claim to forge")
	}
	if err := forged.VerifyTyped(res); err == nil {
		t.Fatal("forged typed claim accepted by VerifyTyped")
	} else {
		t.Logf("rejected: %v", err)
	}
}

// TestVerifyTypedRejectsClaimOnMissingSlot forges a claim for a slot
// offset past the resolved shape's layout.
func TestVerifyTypedRejectsClaimOnMissingSlot(t *testing.T) {
	rec, res := extractTypedPointRecord(t)
	forged, err := Decode(rec.Encode())
	if err != nil {
		t.Fatal(err)
	}
	for id := range forged.TypedSlots {
		forged.TypedSlots[id] = append(forged.TypedSlots[id],
			SlotClaim{Offset: 1000, Type: objects.SlotTypeFloat})
		break
	}
	if err := forged.VerifyTyped(res); err == nil {
		t.Fatal("claim on a nonexistent slot accepted by VerifyTyped")
	}
}

// TestDecodeRejectsBadTypeTag hand-crafts a v5 record whose typed-shape
// section carries a tag outside the valid claim range: the decoder must
// reject it (⊤ and ⊥ are not claims a record may make, and unknown tags
// could alias future lattice elements).
func TestDecodeRejectsBadTypeTag(t *testing.T) {
	for _, tag := range []byte{0 /* ⊤ */, 7 /* ⊥ */, 200} {
		data := wireRecord(func(w *wireWriter) {
			w.str("") // label
			w.uv(0)   // flags
			w.uv(0)   // script table: empty
			w.uv(0)   // symbol table: empty
			w.uv(1)   // one hidden class
			w.uv(0)   // ... with no dependents
			w.uv(0)   // site TOAST: empty
			w.uv(0)   // builtin TOAST: empty
			w.uv(0)   // rejected sites: empty
			w.uv(1)   // one typed shape
			w.uv(0)   // ... HCID 0
			w.uv(1)   // ... one claim
			w.uv(0)   // ... at offset 0
			w.WriteByte(tag)
		})
		if _, err := Decode(data); err == nil {
			t.Fatalf("type tag %d was accepted", tag)
		}
	}
}

// TestMergeTypedClaims: appended rows keep their claims; unified builtin
// rows keep a claim only when every contributing record makes it.
func TestMergeTypedClaims(t *testing.T) {
	rec, _ := extractTypedPointRecord(t)

	t.Run("self-merge preserves claims", func(t *testing.T) {
		merged, err := Merge(rec, rec)
		if err != nil {
			t.Fatal(err)
		}
		if merged.Stats.TypedSlotClaims == 0 {
			t.Fatal("self-merge dropped every typed claim")
		}
	})

	t.Run("claimless partner drops unified claims", func(t *testing.T) {
		// A second record with the same builtins but no typed section: its
		// rows unify with rec's builtin rows and veto their claims (absent
		// claim = ⊤ from that contributor).
		_, other := initialRun(t, "var q = {zzz: 'str'}; print(q.zzz);", Config{})
		if len(other.TypedSlots) != 0 {
			t.Fatal("claimless partner unexpectedly carries claims")
		}
		merged, err := Merge(rec, other)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range merged.BuiltinTOAST {
			name := b.Name
			if _, ok := other.BuiltinID(name); !ok {
				continue // not unified; may keep claims
			}
			if len(merged.TypedSlots[b.ID]) != 0 {
				t.Fatalf("builtin %q kept typed claims after merging with a claimless record", name)
			}
		}
		if err := merged.validateShape(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRegenerateTypedFixtures rewrites the committed typed fixtures from
// the point fixture source. Extraction and encoding are deterministic, so
// regeneration is reproducible; run it after a wire-format change:
//
//	RIC_REGEN_FIXTURES=1 go test ./internal/ric/ -run TestRegenerateTypedFixtures
func TestRegenerateTypedFixtures(t *testing.T) {
	if os.Getenv("RIC_REGEN_FIXTURES") == "" {
		t.Skip("set RIC_REGEN_FIXTURES=1 to regenerate committed typed fixtures")
	}
	rec, _ := extractTypedPointRecord(t)
	if rec.Stats.TypedSlotClaims == 0 {
		t.Fatal("fixture source yields no typed claims")
	}
	data := rec.Encode()
	write := func(name string, b []byte) {
		if err := os.WriteFile(filepath.Join("testdata", name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Accepted by all four riclint layers.
	write("point-typed.ric", data)
	// Checksum-valid, decode-valid, but one claim lies about the slot's
	// type: only the fourth layer (VerifyTyped) can reject it.
	forged, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	flipOneClaim(t, forged)
	write("point-forgedclaim.ric", forged.Encode())
	// Invalid type tag: rejected at decode (layer 1).
	bad, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range typedIDsSorted(bad) {
		bad.TypedSlots[id][0].Type = objects.SlotType(200)
		break
	}
	write("point-badtype.ric", bad.Encode())
}

// flipOneClaim swaps the first claim (in deterministic order) for a
// different concrete type the analysis cannot justify.
func flipOneClaim(t *testing.T, rec *Record) {
	t.Helper()
	for _, id := range typedIDsSorted(rec) {
		c := &rec.TypedSlots[id][0]
		if c.Type == objects.SlotTypeString {
			c.Type = objects.SlotTypeBoolean
		} else {
			c.Type = objects.SlotTypeString
		}
		return
	}
	t.Fatal("no claim to forge")
}

func typedIDsSorted(rec *Record) []int32 {
	ids := make([]int32, 0, len(rec.TypedSlots))
	for id := range rec.TypedSlots {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestAcceptsCommittedTypedFixture pins the committed v5 fixture: it
// carries claims and survives all four offline layers.
func TestAcceptsCommittedTypedFixture(t *testing.T) {
	rec := loadFixture(t, "point-typed.ric")
	if rec.Stats.TypedSlotClaims == 0 {
		t.Fatal("committed typed fixture carries no claims")
	}
	res, prog := analyzePointFixture(t)
	if err := rec.Validate(prog); err != nil {
		t.Fatalf("layer 2 rejected committed fixture: %v", err)
	}
	if err := rec.VerifyStatic(res); err != nil {
		t.Fatalf("layer 3 rejected committed fixture: %v", err)
	}
	if err := rec.VerifyTyped(res); err != nil {
		t.Fatalf("layer 4 rejected committed fixture: %v", err)
	}
}

// TestRejectsCommittedTypedLies pins the two lying fixtures: the forged
// claim survives decode and layers 2–3, and only VerifyTyped catches it;
// the invalid tag never makes it past decode.
func TestRejectsCommittedTypedLies(t *testing.T) {
	res, prog := analyzePointFixture(t)

	forged := loadFixture(t, "point-forgedclaim.ric")
	if err := forged.Validate(prog); err != nil {
		t.Fatalf("forged-claim fixture should pass layer 2, got: %v", err)
	}
	if err := forged.VerifyStatic(res); err != nil {
		t.Fatalf("forged-claim fixture should pass layer 3, got: %v", err)
	}
	if err := forged.VerifyTyped(res); err == nil {
		t.Fatal("forged-claim fixture accepted by VerifyTyped")
	}

	data, err := os.ReadFile(filepath.Join("testdata", "point-badtype.ric"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); err == nil {
		t.Fatal("bad-type-tag fixture was accepted by Decode")
	}
}
