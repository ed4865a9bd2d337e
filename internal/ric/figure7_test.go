package ric

import (
	"testing"

	"ricjs/internal/ic"
	"ricjs/internal/source"
)

// TestFigure7Walkthrough replays the paper's running example (Figures 4
// and 7) and asserts the extracted ICRecord contains exactly the
// structures the paper draws:
//
//	1: var o = {};          // creates the built-in empty-object shape (HC A)
//	2: if (...) o.x = 1;    // S1 — not taken in the Initial run
//	3: o.y = 2;             // S2 — triggering site, transitions A -> B
//	4: print(o.y);          // L1 — dependent site, CI handler H2
//
// Extraction must produce: a TOAST entry for the empty-object builtin; a
// TOAST entry for S2 with one (incoming=A, outgoing=B) pair; an HCVT
// dependent list for B containing (L1, LoadField) — the paper's (L1, H2);
// and S2 itself rejected as a dependent because its handler (H1, a store
// transition embedding hidden class B) is context-dependent.
func TestFigure7Walkthrough(t *testing.T) {
	src := `var o = {};
if (false) o.x = 1;
o.y = 2;
print(o.y);
`
	_, rec := initialRun(t, src, Config{})

	// The "Empty Obj." builtin entry (paper Figure 7(c), TOAST row 1).
	emptyID, ok := rec.BuiltinID("EmptyObject")
	if !ok {
		t.Fatal("TOAST lacks the Empty Obj. entry")
	}

	// S2 is the store at line 3; site identity anchors at the property
	// name (`y`, column 3).
	s2 := source.At("lib.js", 3, 3)
	pairs, ok := rec.SiteTOAST[s2]
	if !ok {
		t.Fatalf("TOAST lacks the S2 entry; site-keyed entries: %v", siteKeys(rec))
	}
	if len(pairs) != 1 {
		t.Fatalf("S2 has %d pairs, want 1 (monomorphic in the Initial run)", len(pairs))
	}
	if pairs[0].In != emptyID {
		t.Fatalf("S2 incoming HCID = %d, want the empty-object id %d", pairs[0].In, emptyID)
	}
	outgoingB := pairs[0].Out
	if outgoingB == emptyID {
		t.Fatal("S2 outgoing must be a fresh hidden class")
	}

	// S1 never executed: no TOAST entry anywhere on line 2.
	for site := range rec.SiteTOAST {
		if site.Pos.Line == 2 {
			t.Fatalf("untaken branch must not produce a TOAST entry, got %v", site)
		}
	}

	// HCVT row for B lists exactly one dependent: L1 (the load at line 4)
	// with the context-independent handler H2 = LoadField[0].
	deps := rec.Deps[outgoingB]
	if len(deps) != 1 {
		t.Fatalf("HCVT row for B has %d dependents, want 1 (L1): %+v", len(deps), deps)
	}
	l1 := deps[0]
	if l1.Site.Pos.Line != 4 {
		t.Fatalf("dependent site at %v, want line 4 (L1)", l1.Site)
	}
	if l1.Name != "y" || l1.Kind != ic.AccessLoad {
		t.Fatalf("dependent = %+v, want load of y", l1)
	}
	if l1.Desc.Kind != ic.KindLoadField || l1.Desc.Offset != 0 {
		t.Fatalf("dependent handler = %+v, want LoadField at offset 0 (the paper's H2)", l1.Desc)
	}

	// S2's own handler (H1) is a store transition embedding hidden class
	// B — context-dependent, so S2 is a rejected site (paper: "the
	// handler for that site is H1 ... not context-independent").
	if !rec.RejectedSites[s2] {
		t.Fatal("S2 must be rejected as a dependent (its handler embeds a hidden class)")
	}

	// And the reuse semantics of Figure 7(d): same control flow validates
	// B and averts exactly the L1 miss.
	v2, reuser := reuseRun(t, src, rec)
	if v2.Output() != "2\n" {
		t.Fatalf("output = %q", v2.Output())
	}
	if !reuser.Validated(emptyID) || !reuser.Validated(outgoingB) {
		t.Fatal("both hidden classes must validate when control flow matches")
	}
	if v2.Prof.Snapshot().MissesSaved != 1 {
		t.Fatalf("misses averted = %d, want exactly 1 (L1)", v2.Prof.Snapshot().MissesSaved)
	}

	// Figure 7(e): divergent control flow (branch taken). B cannot be
	// validated through the (A, B) pair because the incoming class at S2
	// is now {x}; L1 misses normally; execution stays correct.
	divergent := `var o = {};
if (true) o.x = 1;
o.y = 2;
print(o.y);
`
	v3, _ := reuseRun(t, divergent, rec)
	if v3.Output() != "2\n" {
		t.Fatalf("divergent output = %q", v3.Output())
	}
	if v3.Prof.Snapshot().MissesSaved != 0 {
		t.Fatal("divergent run must avert nothing at L1")
	}
	if v3.Prof.Snapshot().ValFailures == 0 {
		t.Fatal("divergent run must record validation failures")
	}
}

func siteKeys(r *Record) []source.Site {
	out := make([]source.Site, 0, len(r.SiteTOAST))
	for s := range r.SiteTOAST {
		out = append(out, s)
	}
	return out
}
