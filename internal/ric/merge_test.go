package ric

import (
	"testing"

	"ricjs/internal/ic"
	"ricjs/internal/source"
)

// makeRecord builds a small synthetic record for merge unit tests.
func makeRecord(label string, builtins map[string]int32, hcCount int32,
	sites map[source.Site][]Pair, deps map[int32][]DepEntry) *Record {
	r := &Record{
		Script:        label,
		HCCount:       hcCount,
		Deps:          make([][]DepEntry, hcCount),
		SiteTOAST:     map[source.Site][]Pair{},
		BuiltinTOAST:  builtinTable(builtins),
		RejectedSites: map[source.Site]bool{},
	}
	for k, v := range sites {
		r.SiteTOAST[k] = v
	}
	for id, d := range deps {
		r.Deps[id] = d
	}
	return r
}

func TestMergeUnifiesBuiltins(t *testing.T) {
	siteA := source.At("a.js", 1, 1)
	siteB := source.At("b.js", 1, 1)
	// Both records root their transitions at the shared "EmptyObject"
	// builtin (id 0 in each).
	a := makeRecord("a.js", map[string]int32{"EmptyObject": 0}, 2,
		map[source.Site][]Pair{siteA: {{In: 0, Out: 1}}},
		map[int32][]DepEntry{1: {{Site: siteA, Desc: ic.CIDescriptor{Kind: ic.KindLoadField}}}})
	b := makeRecord("b.js", map[string]int32{"EmptyObject": 0}, 2,
		map[source.Site][]Pair{siteB: {{In: 0, Out: 1}}},
		map[int32][]DepEntry{1: {{Site: siteB, Desc: ic.CIDescriptor{Kind: ic.KindStoreField}}}})

	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// EmptyObject unified: 2 + 2 classes collapse to 3 rows.
	if m.HCCount != 3 {
		t.Fatalf("HCCount = %d, want 3", m.HCCount)
	}
	emptyID, ok := m.BuiltinID("EmptyObject")
	if !ok {
		t.Fatal("EmptyObject entry lost")
	}
	// Both sites' pairs must reference the unified incoming id.
	for _, site := range []source.Site{siteA, siteB} {
		pairs := m.SiteTOAST[site]
		if len(pairs) != 1 || pairs[0].In != emptyID {
			t.Fatalf("site %v pairs = %+v, want In=%d", site, pairs, emptyID)
		}
		if pairs[0].Out == emptyID {
			t.Fatal("outgoing id collided with the builtin id")
		}
	}
	// The two outgoing classes stay distinct, each with its own dep.
	outA := m.SiteTOAST[siteA][0].Out
	outB := m.SiteTOAST[siteB][0].Out
	if outA == outB {
		t.Fatal("independent transitions must not unify")
	}
	if len(m.Deps[outA]) != 1 || m.Deps[outA][0].Site != siteA {
		t.Fatalf("deps[outA] = %+v", m.Deps[outA])
	}
	if len(m.Deps[outB]) != 1 || m.Deps[outB][0].Site != siteB {
		t.Fatalf("deps[outB] = %+v", m.Deps[outB])
	}
}

func TestMergeDeduplicatesOverlap(t *testing.T) {
	site := source.At("shared.js", 3, 7)
	dep := DepEntry{Site: source.At("shared.js", 9, 2), Desc: ic.CIDescriptor{Kind: ic.KindLoadField, Offset: 1}}
	mk := func() *Record {
		return makeRecord("shared.js", map[string]int32{"EmptyObject": 0}, 2,
			map[source.Site][]Pair{site: {{In: 0, Out: 1}}},
			map[int32][]DepEntry{1: {dep, dep}})
	}
	m, err := Merge(mk(), mk())
	if err != nil {
		t.Fatal(err)
	}
	// Identical records merge to the original shape... except appended
	// rows are not unified (only builtins are), so HCCount is 3, but the
	// site's pair list and the dep lists must be deduplicated.
	if got := len(m.SiteTOAST[site]); got != 2 {
		// Two pairs: (empty, out1) and (empty, out2) — one per record's
		// appended row. Both are retained because the outgoing ids differ.
		t.Fatalf("pairs = %d, want 2", got)
	}
	for id := int32(0); id < m.HCCount; id++ {
		seen := map[DepEntry]bool{}
		for _, d := range m.Deps[id] {
			if seen[d] {
				t.Fatalf("duplicate dep %+v under id %d", d, id)
			}
			seen[d] = true
		}
	}
}

func TestMergeRejectedSitesUnion(t *testing.T) {
	s1, s2 := source.At("a.js", 1, 1), source.At("b.js", 2, 2)
	a := makeRecord("a.js", nil, 0, nil, nil)
	a.RejectedSites[s1] = true
	b := makeRecord("b.js", nil, 0, nil, nil)
	b.RejectedSites[s2] = true
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !m.RejectedSites[s1] || !m.RejectedSites[s2] {
		t.Fatalf("rejected sites not unioned: %+v", m.RejectedSites)
	}
	if m.Stats.RejectedSites != 2 {
		t.Fatalf("stats = %+v", m.Stats)
	}
}

func TestMergeDeterministic(t *testing.T) {
	site := source.At("x.js", 1, 1)
	a := makeRecord("a.js", map[string]int32{"Math": 0, "Array": 1}, 3,
		map[source.Site][]Pair{site: {{In: -1, Out: 2}}}, nil)
	b := makeRecord("b.js", map[string]int32{"Array": 0}, 2,
		map[source.Site][]Pair{}, nil)
	m1, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if string(m1.Encode()) != string(m2.Encode()) {
		t.Fatal("merge must be deterministic")
	}
}

func TestMergedRecordEncodesAndValidates(t *testing.T) {
	_, recA := initialRun(t, "var o = {a: 1}; print(o.a);", Config{})
	_, recB := initialRun(t, "var p = {b: 2}; print(p.b);", Config{})
	m, err := Merge(recA, recB)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(m.Encode())
	if err != nil {
		t.Fatalf("merged record does not round trip: %v", err)
	}
	if back.HCCount != m.HCCount {
		t.Fatal("round trip changed HC count")
	}
}

func TestMergeErrorPaths(t *testing.T) {
	good := func() *Record {
		site := source.At("a.js", 1, 1)
		return makeRecord("a.js", map[string]int32{"EmptyObject": 0}, 2,
			map[source.Site][]Pair{site: {{In: 0, Out: 1}}},
			map[int32][]DepEntry{1: {{Site: site, Desc: ic.CIDescriptor{Kind: ic.KindLoadField}}}})
	}

	t.Run("empty", func(t *testing.T) {
		if _, err := Merge(); err == nil {
			t.Fatal("empty merge must fail")
		}
	})
	t.Run("nil-record", func(t *testing.T) {
		if _, err := Merge(good(), nil); err == nil {
			t.Fatal("nil record must fail, not panic")
		}
		if _, err := Merge(nil); err == nil {
			t.Fatal("single nil record must fail")
		}
	})
	t.Run("globals-conflict", func(t *testing.T) {
		g := good()
		g.IncludesGlobals = true
		if _, err := Merge(good(), g); err == nil {
			t.Fatal("IncludesGlobals conflict must fail")
		}
	})
	t.Run("builtin-id-exceeds-table", func(t *testing.T) {
		// A record claiming a builtin hidden class beyond its own table
		// used to drive the remap tables out of range and panic.
		bad := good()
		bad.BuiltinTOAST = builtinTable(map[string]int32{"Array": bad.HCCount + 3})
		if _, err := Merge(good(), bad); err == nil {
			t.Fatal("out-of-range builtin id must fail, not panic")
		}
	})
	t.Run("builtin-table-unsorted", func(t *testing.T) {
		// Lookups binary-search the builtin table, so one out of name
		// order, or naming a builtin twice, must be rejected: as a merge
		// input, and when decoded.
		for _, table := range [][]Builtin{
			{{Name: "Object", ID: 0}, {Name: "Array", ID: 1}},
			{{Name: "Array", ID: 0}, {Name: "Array", ID: 1}},
		} {
			bad := good()
			bad.BuiltinTOAST = table
			if _, err := Merge(good(), bad); err == nil {
				t.Fatalf("merge accepted builtin table %v", table)
			}
			if _, err := Decode(bad.Encode()); err == nil {
				t.Fatalf("decode accepted builtin table %v", table)
			}
		}
	})
	t.Run("toast-id-exceeds-table", func(t *testing.T) {
		bad := good()
		bad.SiteTOAST[source.At("a.js", 2, 2)] = []Pair{{In: -1, Out: bad.HCCount}}
		if _, err := Merge(good(), bad); err == nil {
			t.Fatal("out-of-range TOAST id must fail, not panic")
		}
	})
	t.Run("dep-rows-mismatch", func(t *testing.T) {
		bad := good()
		bad.Deps = bad.Deps[:1]
		if _, err := Merge(good(), bad); err == nil {
			t.Fatal("dep row count mismatch must fail")
		}
	})
	t.Run("same-label-records-stay-legal", func(t *testing.T) {
		// Two records carrying the same script label (two sessions of the
		// same library) are not a conflict: they merge with dedup.
		m, err := Merge(good(), good())
		if err != nil {
			t.Fatal(err)
		}
		if m.Script != "a.js+a.js" {
			t.Fatalf("merged label = %q", m.Script)
		}
	})
}

func TestReplayPreloadsIdempotent(t *testing.T) {
	_, rec := initialRun(t, pointLib, Config{})
	v, reuser := reuseRun(t, pointLib, rec)
	preloadsAfterRun := v.Prof.Snapshot().Preloads
	// Replaying again must not add preloads: everything applicable was
	// applied (done-tracking) and duplicates are rejected anyway.
	reuser.ReplayPreloads()
	if got := v.Prof.Snapshot().Preloads; got != preloadsAfterRun {
		t.Fatalf("replay added preloads: %d -> %d", preloadsAfterRun, got)
	}
}
