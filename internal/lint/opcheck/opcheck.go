// Package opcheck verifies that the bytecode instruction set is handled
// exhaustively everywhere it must be: every bytecode.Op constant needs a
// disassembly mnemonic (an opNames entry), a dispatch case in the VM
// interpreter, and a transfer-function case in the static shape analysis.
//
// A new opcode that misses any of the three still compiles: the VM would
// hit its default "unknown opcode" panic only when the op executes, the
// disassembler would print a raw number, and — worst — the abstract
// interpreter would silently treat the op as a no-op, breaking the
// soundness invariant the whole riclint pipeline rests on. opcheck turns
// each omission into a CI failure at analysis time.
//
// Run it over the defining package and every dispatching package:
//
//	opcheck ./internal/bytecode ./internal/vm ./internal/analysis
package opcheck

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"ricjs/internal/lint/analysis"
)

// dispatchPkgs are the package names that must each hold a
// "case bytecode.OpX:" for every opcode.
var dispatchPkgs = []string{"vm", "analysis"}

// NewAnalyzer builds a fresh opcheck analyzer. The whole-program state
// lives in the closure, so independent runs (tests) do not share facts.
func NewAnalyzer() *analysis.Analyzer {
	c := &checker{
		ops:    map[string]token.Pos{},
		named:  map[string]bool{},
		cases:  map[string]map[string]bool{},
		sawPkg: map[string]bool{},
	}
	return &analysis.Analyzer{
		Name: "opcheck",
		Doc: "check that every bytecode.Op has a disassembly entry, a VM dispatch case, and an analysis transfer function\n\n" +
			"Pass the defining package (internal/bytecode) and the dispatching packages (internal/vm, internal/analysis).",
		Run: c.run,
		End: c.end,
	}
}

type checker struct {
	ops    map[string]token.Pos       // Op constants declared in package bytecode
	named  map[string]bool            // ops with an opNames entry
	cases  map[string]map[string]bool // package name -> ops with a case label
	sawPkg map[string]bool            // package names analyzed
}

func (c *checker) run(pass *analysis.Pass) (interface{}, error) {
	c.sawPkg[pass.Pkg] = true
	if pass.Pkg == "bytecode" {
		c.collectOps(pass)
		return nil, nil
	}
	set := c.cases[pass.Pkg]
	if set == nil {
		set = map[string]bool{}
		c.cases[pass.Pkg] = set
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			cc, ok := n.(*ast.CaseClause)
			if !ok {
				return true
			}
			for _, e := range cc.List {
				if sel, ok := e.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == "bytecode" && strings.HasPrefix(sel.Sel.Name, "Op") {
						set[sel.Sel.Name] = true
					}
				}
			}
			return true
		})
	}
	return nil, nil
}

// collectOps records the Op constants and the opNames index keys from the
// defining package. It works on syntax alone: the Op iota block types only
// its first ValueSpec, later specs inherit the type, and a different
// explicit type ends the run.
func (c *checker) collectOps(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			inOps := false
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if vs.Type != nil {
					id, isIdent := vs.Type.(*ast.Ident)
					inOps = isIdent && id.Name == "Op"
				}
				if !inOps {
					continue
				}
				for _, name := range vs.Names {
					if strings.HasPrefix(name.Name, "Op") {
						c.ops[name.Name] = name.Pos()
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			vs, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			for i, nm := range vs.Names {
				if i >= len(vs.Values) || nm.Name != "opNames" {
					continue
				}
				cl, ok := vs.Values[i].(*ast.CompositeLit)
				if !ok {
					continue
				}
				for _, elt := range cl.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							c.named[id.Name] = true
						}
					}
				}
			}
			return true
		})
	}
}

func (c *checker) end() []analysis.Diagnostic {
	var ds []analysis.Diagnostic
	if !c.sawPkg["bytecode"] {
		return []analysis.Diagnostic{{Message: "package bytecode was not analyzed: pass its directory so the Op set is known"}}
	}
	if len(c.ops) == 0 {
		return []analysis.Diagnostic{{Message: "no bytecode.Op constants found in package bytecode"}}
	}
	for _, pkg := range dispatchPkgs {
		if !c.sawPkg[pkg] {
			ds = append(ds, analysis.Diagnostic{
				Message: "package " + pkg + " was not analyzed: pass its directory so dispatch coverage is checked",
			})
		}
	}
	names := make([]string, 0, len(c.ops))
	for op := range c.ops {
		names = append(names, op)
	}
	sort.Strings(names)
	for _, op := range names {
		if !c.named[op] {
			ds = append(ds, analysis.Diagnostic{Pos: c.ops[op], Message: op + " has no opNames disassembly entry"})
		}
		for _, pkg := range dispatchPkgs {
			if c.sawPkg[pkg] && !c.cases[pkg][op] {
				ds = append(ds, analysis.Diagnostic{
					Pos:     c.ops[op],
					Message: op + " has no \"case bytecode." + op + "\" in package " + pkg,
				})
			}
		}
	}
	return ds
}
