package ric

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ricjs/internal/analysis"
	"ricjs/internal/bytecode"
	"ricjs/internal/ic"
	"ricjs/internal/vm"
	"ricjs/internal/workloads"
)

// pointFixtureSrc is the source behind the committed point*.ric fixtures
// (it must stay byte-identical to fuzzLib in the repo root and to
// testdata/point.js).
const pointFixtureSrc = `
	function Point(x, y) { this.x = x; this.y = y; }
	Point.prototype.norm2 = function () { return this.x * this.x + this.y * this.y; };
	var pts = [];
	for (var i = 0; i < 8; i++) pts.push(new Point(i, i + 1));
	var total = 0;
	for (var j = 0; j < pts.length; j++) total += pts[j].norm2();
	var bag = {};
	bag['k' + 0] = total;
	print('total', bag.k0);
`

func analyzePointFixture(t *testing.T) (*analysis.Result, *bytecode.Program) {
	t.Helper()
	prog := compileSrc(t, "lib.js", pointFixtureSrc)
	return analysis.Analyze(prog), prog
}

func loadFixture(t *testing.T, name string) *Record {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Decode(data)
	if err != nil {
		t.Fatalf("decode %s: %v", name, err)
	}
	return rec
}

func TestVerifyStaticAcceptsFreshRecord(t *testing.T) {
	res, prog := analyzePointFixture(t)
	v := vm.New(vm.Options{})
	if _, err := v.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	rec := Extract(v, "lib.js", Config{})
	if err := rec.VerifyStatic(res); err != nil {
		t.Fatalf("fresh record rejected: %v", err)
	}
}

func TestVerifyStaticAcceptsCommittedFixture(t *testing.T) {
	res, _ := analyzePointFixture(t)
	rec := loadFixture(t, "point.ric")
	if err := rec.VerifyStatic(res); err != nil {
		t.Fatalf("committed point.ric rejected: %v", err)
	}
}

func TestVerifyStaticRejectsLyingFixtures(t *testing.T) {
	res, _ := analyzePointFixture(t)
	for _, name := range []string{"point-remap.ric", "point-offsets.ric"} {
		t.Run(name, func(t *testing.T) {
			rec := loadFixture(t, name)
			err := rec.VerifyStatic(res)
			if err == nil {
				t.Fatalf("%s accepted: the analysis cross-check must catch checksum-valid lies", name)
			}
			t.Logf("rejected: %v", err)
		})
	}
}

// TestVerifyStaticScriptless checks the uncovered-script policy: array.ric
// was recorded from a script the analysis never saw, so its site-level
// claims are skipped (matching Validate) and only builtin-anchored claims
// are checked — the record is accepted.
func TestVerifyStaticScriptless(t *testing.T) {
	res, _ := analyzePointFixture(t)
	rec := loadFixture(t, "array.ric")
	if err := rec.VerifyStatic(res); err != nil {
		t.Fatalf("array.ric rejected despite its script being uncovered: %v", err)
	}
}

// TestVerifyStaticWorkloads runs the full loop on every workload: record
// an initial run, then cross-check the record against the analysis of the
// same script. Every fresh record must be accepted.
func TestVerifyStaticWorkloads(t *testing.T) {
	for _, p := range workloads.Profiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			prog := compileSrc(t, p.Script, p.Source())
			res := analysis.Analyze(prog)
			v := vm.New(vm.Options{})
			if _, err := v.RunProgram(prog); err != nil {
				t.Fatal(err)
			}
			rec := Extract(v, p.Script, Config{})
			if err := rec.VerifyStatic(res); err != nil {
				t.Fatalf("fresh %s record rejected: %v", p.Name, err)
			}
		})
	}
}

// TestVerifyStaticCatchesInjectedLies applies the semantic fault modes to
// a fresh record and checks the analysis cross-check rejects the result
// (ids remapped between dep-carrying classes, offsets skewed) — without
// ever executing the record.
func TestVerifyStaticCatchesInjectedLies(t *testing.T) {
	res, prog := analyzePointFixture(t)
	v := vm.New(vm.Options{})
	if _, err := v.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	rec := Extract(v, "lib.js", Config{})

	t.Run("offset-skew", func(t *testing.T) {
		skewed, err := Decode(rec.Encode())
		if err != nil {
			t.Fatal(err)
		}
		changed := false
		for _, deps := range skewed.Deps {
			for k := range deps {
				if deps[k].Desc.Kind == ic.KindLoadField || deps[k].Desc.Kind == ic.KindStoreField {
					deps[k].Desc.Offset++
					changed = true
				}
			}
		}
		if !changed {
			t.Skip("no field handlers in record")
		}
		if err := skewed.VerifyStatic(res); err == nil {
			t.Fatal("offset-skewed record accepted")
		} else if !strings.Contains(err.Error(), "offset") {
			t.Fatalf("unexpected rejection reason: %v", err)
		}
	})
}

// TestVerifyStaticConflictMessages points one TOAST row's outgoing id at
// a class a builtin row already resolved, for each kind of row, and pins
// the rejection text: both shapes and the row that named the second.
func TestVerifyStaticConflictMessages(t *testing.T) {
	res, prog := analyzePointFixture(t)
	v := vm.New(vm.Options{})
	if _, err := v.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	rec := Extract(v, "lib.js", Config{})
	shapes, err := rec.resolveShapes(res)
	if err != nil {
		t.Fatal(err)
	}
	var resolved []int // indices of builtin rows the analysis resolved, in name order
	for i, b := range rec.BuiltinTOAST {
		if shapes[b.ID] != nil {
			resolved = append(resolved, i)
		}
	}
	if len(resolved) < 2 {
		t.Fatalf("need two resolved builtin rows, have %d", len(resolved))
	}
	anchor := rec.BuiltinTOAST[resolved[0]].ID
	want := func(s *analysis.Shape, how string) string {
		return fmt.Sprintf("ric: HCID %d resolves to both %s and %s (%s): HC table inconsistent with static transition graph",
			anchor, shapes[anchor], s, how)
	}
	forge := func(t *testing.T, edit func(*Record)) error {
		forged, err := Decode(rec.Encode())
		if err != nil {
			t.Fatal(err)
		}
		edit(forged)
		return forged.VerifyStatic(res)
	}
	check := func(t *testing.T, err error, want string) {
		if err == nil {
			t.Fatal("conflicting record accepted")
		}
		if err.Error() != want {
			t.Fatalf("rejection text:\n got: %s\nwant: %s", err, want)
		}
	}

	t.Run("builtin", func(t *testing.T) {
		last := rec.BuiltinTOAST[resolved[len(resolved)-1]]
		err := forge(t, func(r *Record) { r.BuiltinTOAST[resolved[len(resolved)-1]].ID = anchor })
		check(t, err, want(shapes[last.ID], "builtin "+last.Name))
	})
	for _, rootless := range []bool{true, false} {
		kind := map[bool]string{true: "root", false: "transition"}[rootless]
		t.Run(kind, func(t *testing.T) {
			for site, pairs := range rec.SiteTOAST {
				for k, p := range pairs {
					if (p.In < 0) != rootless || shapes[p.Out] == nil || shapes[p.Out] == shapes[anchor] {
						continue
					}
					err := forge(t, func(r *Record) { r.SiteTOAST[site][k].Out = anchor })
					check(t, err, want(shapes[p.Out], fmt.Sprintf("%s at %s", kind, site)))
					return
				}
			}
			t.Skipf("no resolved %s row in the fixture record", kind)
		})
	}
}
