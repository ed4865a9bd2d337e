// Command ricdis compiles JavaScript files and prints their bytecode,
// constant pools, and object-access-site tables — the feedback slots the
// ICVector is built from.
//
// With -analyze, the static shape analysis runs over all files jointly
// (scripts share the global object) and each site's predicted hidden-class
// set is printed alongside the site table, each hidden class annotated
// with the slot types the value-type lattice inferred for it ("typed
// shapes" — the claims a .ric record would carry). Predictions are listed
// deterministically: sites in table order, hidden classes by shape id.
//
// Usage:
//
//	ricdis script.js [more.js ...]
//	ricdis -sites script.js        # only the site table
//	ricdis -analyze lib.js app.js  # site tables with shape predictions
//
// Every file is processed even when an earlier one fails; the exit status
// is 1 if any did.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ricjs/internal/analysis"
	"ricjs/internal/bytecode"
	"ricjs/internal/objects"
	"ricjs/internal/parser"
)

func main() {
	sitesOnly := flag.Bool("sites", false, "print only the object access site tables")
	analyze := flag.Bool("analyze", false, "run the static shape analysis and print per-site predictions")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: ricdis [-sites] [-analyze] script.js [more.js ...]")
		os.Exit(2)
	}
	os.Exit(run(os.Stdout, os.Stderr, *sitesOnly, *analyze, flag.Args()))
}

// run is main minus the process plumbing, so the golden test can drive it.
func run(out, errw io.Writer, sitesOnly, analyze bool, paths []string) int {
	// Compile everything first: -analyze needs the whole program, and a
	// broken file must not hide errors in the ones after it.
	type unit struct {
		path string
		prog *bytecode.Program
	}
	var units []unit
	failed := false
	for _, path := range paths {
		prog, err := compileFile(path)
		if err != nil {
			fmt.Fprintln(errw, "ricdis:", err)
			failed = true
			continue
		}
		units = append(units, unit{path: path, prog: prog})
	}

	var res *analysis.Result
	if analyze && len(units) > 0 {
		progs := make([]*bytecode.Program, len(units))
		for i, u := range units {
			progs[i] = u.prog
		}
		res = analysis.Analyze(progs...)
		if res.GlobalTop() {
			fmt.Fprintln(errw, "ricdis: warning: analysis widened to ⊤; predictions are vacuous")
		}
	}

	for _, u := range units {
		u.prog.Toplevel.WalkProtos(func(p *bytecode.FuncProto) {
			if !sitesOnly && !analyze {
				fmt.Fprint(out, p.Disassemble())
			}
			printSites(out, p, res)
			if !sitesOnly && !analyze {
				fmt.Fprintln(out)
			}
		})
	}
	if failed {
		return 1
	}
	return 0
}

func compileFile(path string) (*bytecode.Program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	prog, err := parser.Parse(filepath.Base(path), string(src))
	if err != nil {
		return nil, err
	}
	return bytecode.Compile(prog)
}

func printSites(out io.Writer, p *bytecode.FuncProto, res *analysis.Result) {
	if len(p.Sites) == 0 {
		return
	}
	fmt.Fprintf(out, "sites of %s:\n", p.FunctionName())
	for i, s := range p.Sites {
		fmt.Fprintf(out, "  [%d] %s %s %q", i, s.Site(), s.Kind, s.Name)
		if res != nil {
			fmt.Fprintf(out, "  %s", predictionText(res, res.At(s.Site())))
		}
		fmt.Fprintln(out)
	}
}

// predictionText renders one site prediction for the -analyze listing:
// the predicted hidden classes by shape id, each with its inferred slot
// types.
func predictionText(res *analysis.Result, pred *analysis.SitePrediction) string {
	if pred == nil {
		return "(no prediction)"
	}
	switch {
	case pred.Dead:
		return "dead"
	case pred.Top:
		return "⊤"
	}
	shapes := append([]*analysis.Shape(nil), pred.Shapes...)
	sort.Slice(shapes, func(i, j int) bool { return shapes[i].ID < shapes[j].ID })
	names := make([]string, len(shapes))
	for i, s := range shapes {
		names[i] = s.String() + typedText(res, s)
	}
	text := "{" + strings.Join(names, ", ") + "}"
	if pred.MegamorphicRisk {
		text += " megamorphic-risk"
	}
	if pred.MaybeDictionary {
		text += " maybe-dictionary"
	}
	return text
}

// typedText renders a shape's inferred slot types ("<x:smallint,y:float>"),
// or "" when no slot is typed. Fields print in offset order.
func typedText(res *analysis.Result, s *analysis.Shape) string {
	tags := res.SlotTypes(s)
	var parts []string
	for off, t := range tags {
		if off < s.NumFields() && objects.ValidSlotTag(t) {
			parts = append(parts, s.Fields[off]+":"+t.String())
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return "<" + strings.Join(parts, ",") + ">"
}
