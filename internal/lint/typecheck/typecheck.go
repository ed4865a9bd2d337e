// Package typecheck verifies that the value-type half of the abstract
// transfer function is exhaustive: every bytecode.Op with an opNames
// disassembly entry must have a case in analysis.opValueKind, the table
// that decides which primitive kind (if any) an opcode's result is fixed
// to.
//
// opValueKind degrades safely — its fallthrough returns "no fixed kind" —
// so a missing case never produces an unsound claim, only a silently
// weaker one: the slot fed by the new opcode would stay untyped and no
// record would ever claim a type for it. That is exactly the kind of
// quiet precision loss that survives every runtime test; this analyzer
// turns it into a CI failure, mirroring the opcheck rule for the main
// transfer switch.
//
// Run it alongside opcheck over the same packages:
//
//	opcheck ./internal/bytecode ./internal/vm ./internal/analysis
package typecheck

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"ricjs/internal/lint/analysis"
)

// NewAnalyzer builds a fresh typecheck-transfer analyzer. Whole-program
// state lives in the closure so independent runs do not share facts.
func NewAnalyzer() *analysis.Analyzer {
	c := &checker{
		named:  map[string]token.Pos{},
		cases:  map[string]bool{},
		sawPkg: map[string]bool{},
	}
	return &analysis.Analyzer{
		Name: "typecheck-transfer",
		Doc: "check that every named bytecode.Op has a case in the opValueKind value-type table\n\n" +
			"Pass the defining package (internal/bytecode) and the analysis package (internal/analysis).",
		Run: c.run,
		End: c.end,
	}
}

type checker struct {
	named  map[string]token.Pos // ops with an opNames entry, at their key position
	cases  map[string]bool      // ops with a case label inside opValueKind
	sawKnd bool                 // an opValueKind function declaration was seen
	sawPkg map[string]bool      // package names analyzed
}

func (c *checker) run(pass *analysis.Pass) (interface{}, error) {
	c.sawPkg[pass.Pkg] = true
	switch pass.Pkg {
	case "bytecode":
		c.collectNamed(pass)
	case "analysis":
		c.collectKindCases(pass)
	}
	return nil, nil
}

// collectNamed records the opNames index keys: the set of opcodes the
// repo considers part of the public instruction set. Keying the check on
// opNames (rather than the raw const block) keeps the two analyzers'
// obligations aligned — opcheck already guarantees every Op constant has
// an opNames entry.
func (c *checker) collectNamed(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			vs, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			for i, nm := range vs.Names {
				if nm.Name != "opNames" || i >= len(vs.Values) {
					continue
				}
				cl, ok := vs.Values[i].(*ast.CompositeLit)
				if !ok {
					continue
				}
				for _, elt := range cl.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok && strings.HasPrefix(id.Name, "Op") {
							c.named[id.Name] = id.Pos()
						}
					}
				}
			}
			return true
		})
	}
}

// collectKindCases records the "case bytecode.OpX" labels that appear
// inside the opValueKind function — not anywhere in the package, so the
// main transfer switch cannot mask a hole in the value-type table.
func (c *checker) collectKindCases(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "opValueKind" || fd.Recv != nil {
				continue
			}
			c.sawKnd = true
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				cc, ok := n.(*ast.CaseClause)
				if !ok {
					return true
				}
				for _, e := range cc.List {
					if sel, ok := e.(*ast.SelectorExpr); ok {
						if id, ok := sel.X.(*ast.Ident); ok && id.Name == "bytecode" && strings.HasPrefix(sel.Sel.Name, "Op") {
							c.cases[sel.Sel.Name] = true
						}
					}
				}
				return true
			})
		}
	}
}

func (c *checker) end() []analysis.Diagnostic {
	if !c.sawPkg["bytecode"] {
		return []analysis.Diagnostic{{Message: "package bytecode was not analyzed: pass its directory so the Op set is known"}}
	}
	if !c.sawPkg["analysis"] {
		return []analysis.Diagnostic{{Message: "package analysis was not analyzed: pass its directory so the value-type table is checked"}}
	}
	if !c.sawKnd {
		return []analysis.Diagnostic{{Message: "package analysis has no opValueKind function: the value-type table is gone"}}
	}
	if len(c.named) == 0 {
		return []analysis.Diagnostic{{Message: "no opNames entries found in package bytecode"}}
	}
	names := make([]string, 0, len(c.named))
	for op := range c.named {
		names = append(names, op)
	}
	sort.Strings(names)
	var ds []analysis.Diagnostic
	for _, op := range names {
		if !c.cases[op] {
			ds = append(ds, analysis.Diagnostic{
				Pos:     c.named[op],
				Message: op + " has no case in opValueKind: its result kind is silently unfixed and slots it feeds will never be typed",
			})
		}
	}
	return ds
}
