package opcheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"ricjs/internal/lint/analysis"
)

// runOn feeds synthetic package sources (name -> file source) through a
// fresh analyzer in map-independent order and returns End's diagnostics
// plus any reported during Run.
func runOn(t *testing.T, pkgs map[string]string) []string {
	t.Helper()
	a := NewAnalyzer()
	fset := token.NewFileSet()
	var msgs []string
	report := func(d analysis.Diagnostic) { msgs = append(msgs, d.Message) }
	for name, src := range pkgs {
		f, err := parser.ParseFile(fset, name+".go", src, 0)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		pass := &analysis.Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    []*ast.File{f},
			Pkg:      name,
			Report:   report,
		}
		if _, err := a.Run(pass); err != nil {
			t.Fatalf("run %s: %v", name, err)
		}
	}
	for _, d := range a.End() {
		msgs = append(msgs, d.Message)
	}
	return msgs
}

const goodBytecode = `package bytecode
type Op uint32
const (
	OpNop Op = iota
	OpHalt
	numOps
)
var opNames = [numOps]string{OpNop: "Nop", OpHalt: "Halt"}
`

const goodVM = `package vm
import "ricjs/internal/bytecode"
func step(op bytecode.Op) {
	switch op {
	case bytecode.OpNop:
	case bytecode.OpHalt:
	}
}
`

const goodAnalysis = `package analysis
import "ricjs/internal/bytecode"
func transfer(op bytecode.Op) {
	switch op {
	case bytecode.OpNop, bytecode.OpHalt:
	}
}
`

func TestOpcheckClean(t *testing.T) {
	msgs := runOn(t, map[string]string{
		"bytecode": goodBytecode,
		"vm":       goodVM,
		"analysis": goodAnalysis,
	})
	if len(msgs) != 0 {
		t.Fatalf("clean packages produced diagnostics: %v", msgs)
	}
}

func TestOpcheckMissingHandlers(t *testing.T) {
	msgs := runOn(t, map[string]string{
		"bytecode": `package bytecode
type Op uint32
const (
	OpNop Op = iota
	OpHalt
	OpNew
	numOps
)
var opNames = [numOps]string{OpNop: "Nop", OpNew: "New"}
`,
		"vm": goodVM, // no OpNew case
		"analysis": `package analysis
import "ricjs/internal/bytecode"
func transfer(op bytecode.Op) {
	switch op {
	case bytecode.OpNop:
	}
}
`,
	})
	want := []string{
		`OpHalt has no opNames disassembly entry`,
		`OpNew has no "case bytecode.OpNew" in package vm`,
		`OpHalt has no "case bytecode.OpHalt" in package analysis`,
		`OpNew has no "case bytecode.OpNew" in package analysis`,
	}
	all := strings.Join(msgs, "\n")
	for _, w := range want {
		if !strings.Contains(all, w) {
			t.Errorf("missing diagnostic %q in:\n%s", w, all)
		}
	}
	if strings.Contains(all, `OpNop has no`) {
		t.Errorf("false positive on fully handled OpNop:\n%s", all)
	}
}

func TestOpcheckMissingPackages(t *testing.T) {
	msgs := runOn(t, map[string]string{"bytecode": goodBytecode})
	all := strings.Join(msgs, "\n")
	for _, pkg := range []string{"vm", "analysis"} {
		if !strings.Contains(all, "package "+pkg+" was not analyzed") {
			t.Errorf("expected a missing-package diagnostic for %s, got:\n%s", pkg, all)
		}
	}
	if len(runOn(t, map[string]string{"vm": goodVM})) == 0 {
		t.Error("running without package bytecode must be diagnosed")
	}
}

// TestOpcheckRealPackages runs the analyzer over the actual repo packages
// the CI invocation targets; the live instruction set must be clean.
func TestOpcheckRealPackages(t *testing.T) {
	a := NewAnalyzer()
	fset := token.NewFileSet()
	var msgs []string
	report := func(d analysis.Diagnostic) {
		pos := ""
		if d.Pos.IsValid() {
			pos = fset.Position(d.Pos).String() + ": "
		}
		msgs = append(msgs, pos+d.Message)
	}
	for pkg, dir := range map[string]string{
		"bytecode": "../../bytecode",
		"vm":       "../../vm",
		"analysis": "../../analysis",
	} {
		pkgs, err := parser.ParseDir(fset, dir, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files := []*ast.File{}
		for _, p := range pkgs {
			for _, f := range p.Files {
				files = append(files, f)
			}
		}
		pass := &analysis.Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, Report: report}
		if _, err := a.Run(pass); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range a.End() {
		report(d)
	}
	if len(msgs) != 0 {
		t.Fatalf("live instruction set is not exhaustively handled:\n%s", strings.Join(msgs, "\n"))
	}
}
