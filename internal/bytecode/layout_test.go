package bytecode

import (
	"fmt"
	"testing"

	"ricjs/internal/ic"
	"ricjs/internal/parser"
	"ricjs/internal/progen"
	"ricjs/internal/source"
	"ricjs/internal/symtab"
	"ricjs/internal/workloads"
)

// TestCompiledTablesExactlySized checks that every table of every compiled
// proto has no spare capacity: a cached program keeps its tables for as
// long as it is served, so capacity left over from the appends that built
// them would be resident waste. It covers every workload profile and the
// progen seeds of the differential sweep.
func TestCompiledTablesExactlySized(t *testing.T) {
	type script struct{ name, src string }
	var scripts []script
	for _, p := range workloads.Profiles {
		scripts = append(scripts, script{p.Script, p.Source()})
	}
	for seed := uint64(200); seed <= 260; seed++ {
		scripts = append(scripts, script{fmt.Sprintf("progen-%d.js", seed), progen.New(seed).Program()})
	}
	for _, s := range scripts {
		ast, err := parser.Parse(s.name, s.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", s.name, err)
		}
		prog, err := Compile(ast)
		if err != nil {
			t.Fatalf("%s: compile: %v", s.name, err)
		}
		prog.Toplevel.WalkProtos(func(fp *FuncProto) {
			for _, tab := range []struct {
				name     string
				len, cap int
			}{
				{"Code", len(fp.Code), cap(fp.Code)},
				{"Consts", len(fp.Consts), cap(fp.Consts)},
				{"Names", len(fp.Names), cap(fp.Names)},
				{"NameIDs", len(fp.NameIDs), cap(fp.NameIDs)},
				{"Protos", len(fp.Protos), cap(fp.Protos)},
				{"Sites", len(fp.Sites), cap(fp.Sites)},
			} {
				if tab.cap != tab.len {
					t.Errorf("%s: %s: %s has len %d, cap %d", s.name, fp.FunctionName(), tab.name, tab.len, tab.cap)
				}
			}
			for i := range fp.Sites {
				if fp.Sites[i].Script != &fp.Script {
					t.Errorf("%s: %s: site %d does not point at its proto's script", s.name, fp.FunctionName(), i)
				}
			}
		})
	}
}

// TestSealFillsHandBuiltSites checks that Seal gives a hand-built proto's
// sites their script and name symbol, and that a second Seal changes
// nothing.
func TestSealFillsHandBuiltSites(t *testing.T) {
	p := &FuncProto{Name: "f", Script: "h.js", Sites: []ic.SiteInfo{
		{Pos: source.Pos{Line: 2, Col: 3}, Kind: ic.AccessLoad, Name: "x"},
	}}
	p.Seal()
	si := &p.Sites[0]
	if got, want := si.Site(), source.At("h.js", 2, 3); got != want {
		t.Errorf("sealed site = %v, want %v", got, want)
	}
	if si.NameID != symtab.Intern("x") {
		t.Errorf("sealed site NameID = %d, want the symbol of %q", si.NameID, "x")
	}
	sealed := *si
	p.Seal()
	if p.Sites[0] != sealed {
		t.Errorf("second Seal changed the site: %+v, was %+v", p.Sites[0], sealed)
	}
}
