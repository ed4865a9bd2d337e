package analysis_test

import (
	"fmt"
	"testing"

	"ricjs/internal/analysis"
	"ricjs/internal/bytecode"
	"ricjs/internal/ic"
	"ricjs/internal/objects"
	"ricjs/internal/parser"
	"ricjs/internal/source"
	"ricjs/internal/vm"
	"ricjs/internal/workloads"
)

func compile(t testing.TB, script, src string) *bytecode.Program {
	t.Helper()
	ast, err := parser.Parse(script, src)
	if err != nil {
		t.Fatalf("parse %s: %v", script, err)
	}
	prog, err := bytecode.Compile(ast)
	if err != nil {
		t.Fatalf("compile %s: %v", script, err)
	}
	return prog
}

// checkSoundness executes the programs on a fresh VM with a site observer
// and asserts the differential soundness property: every hidden class
// observed at a site at runtime is covered by the site's static
// prediction (exact set or ⊤).
func checkSoundness(t *testing.T, res *analysis.Result, progs ...*bytecode.Program) (observed, covered int) {
	t.Helper()
	type obs struct {
		site source.Site
		kind ic.AccessKind
		hc   *objects.HiddenClass
	}
	var failures []string
	v := vm.New(vm.Options{
		AddressSeed: 7,
		SiteObserver: func(site source.Site, kind ic.AccessKind, hc *objects.HiddenClass) {
			observed++
			if res.Covers(site, hc) {
				covered++
				return
			}
			if len(failures) < 20 {
				pred := res.At(site)
				failures = append(failures, fmt.Sprintf("site %s (%s): observed %s creator=%s not in prediction %v",
					site, kind, hc, hc.Creator(), pred))
			}
		},
	})
	for _, p := range progs {
		if _, err := v.RunProgram(p); err != nil {
			t.Fatalf("run %s: %v", p.Script, err)
		}
	}
	for _, f := range failures {
		t.Errorf("unsound prediction: %s", f)
	}
	if observed != covered {
		t.Errorf("%d/%d observations covered", covered, observed)
	}
	return observed, covered
}

func TestSoundnessWorkloads(t *testing.T) {
	for _, p := range workloads.Profiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			prog := compile(t, p.Script, p.Source())
			res := analysis.Analyze(prog)
			if res.GlobalTop() {
				t.Logf("%s: analysis widened to global ⊤", p.Name)
			}
			obs, _ := checkSoundness(t, res, prog)
			if obs == 0 {
				t.Fatalf("no site observations — harness is not exercising the ICs")
			}
		})
	}
}

// TestSoundnessWebsite analyzes all scripts of a website together (shared
// abstract global) and runs them in both website orders against the one
// analysis, mirroring cross-context record reuse.
func TestSoundnessWebsite(t *testing.T) {
	var progs []*bytecode.Program
	for _, ref := range workloads.Website(1) {
		progs = append(progs, compile(t, ref.Name, ref.Source))
	}
	res := analysis.Analyze(progs...)
	for n := 1; n <= 2; n++ {
		ordered := make([]*bytecode.Program, 0, len(progs))
		for _, ref := range workloads.Website(n) {
			for _, p := range progs {
				if p.Script == ref.Name {
					ordered = append(ordered, p)
					break
				}
			}
		}
		t.Run(fmt.Sprintf("order%d", n), func(t *testing.T) {
			checkSoundness(t, res, ordered...)
		})
	}
}

// pointSrc matches testdata/point.js (the source behind the committed
// point*.ric fixtures).
const pointSrc = `
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

func TestSoundnessPoint(t *testing.T) {
	prog := compile(t, "lib.js", pointSrc)
	res := analysis.Analyze(prog)
	if res.GlobalTop() {
		t.Fatalf("analysis widened to global ⊤ on point.js")
	}
	checkSoundness(t, res, prog)
}

// TestPrecisionPoint pins down that the analysis is not trivially sound:
// on point.js the instance-field and prototype-method sites must get
// finite, small predictions, not ⊤.
func TestPrecisionPoint(t *testing.T) {
	prog := compile(t, "lib.js", pointSrc)
	res := analysis.Analyze(prog)
	var finite, total int
	for _, p := range res.Sites() {
		if p.Dead {
			continue
		}
		total++
		if !p.Top {
			finite++
			if p.MegamorphicRisk {
				t.Errorf("site %s: megamorphic risk flagged on a monomorphic program (%d shapes)", p.Site, len(p.Shapes))
			}
			// 2-field constructor: worst case is every store interleaving,
			// root + x + y + xy + yx = 5 shapes.
			if len(p.Shapes) > 5 {
				t.Errorf("site %s: %d shapes predicted, expected ≤ 5 on point.js", p.Site, len(p.Shapes))
			}
		}
	}
	if finite == 0 {
		t.Fatalf("all %d predictions are ⊤ — analysis is trivially sound but useless", total)
	}
	t.Logf("point.js: %d/%d live sites predicted finitely", finite, total)
}
