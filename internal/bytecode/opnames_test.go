package bytecode

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"
)

// opNameGaps reports, in declaration order, every Op constant declared in
// f whose mnemonic in names is not the constant's name without its "Op"
// prefix, and returns how many Op constants f declares. The constants are
// one iota run, so the i-th declared is Op(i). The run is read from
// syntax: the block types only its first spec, later specs inherit the
// type, and a different explicit type ends the run.
func opNameGaps(f *ast.File, names []string) (gaps []string, nops int) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		inOps := false
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if vs.Type != nil {
				id, isIdent := vs.Type.(*ast.Ident)
				inOps = isIdent && id.Name == "Op"
			}
			for _, n := range vs.Names {
				if !inOps || !strings.HasPrefix(n.Name, "Op") {
					continue
				}
				got, want := "", strings.TrimPrefix(n.Name, "Op")
				if nops < len(names) {
					got = names[nops]
				}
				if got != want {
					gaps = append(gaps, fmt.Sprintf("%s has mnemonic %q, want %q", n.Name, got, want))
				}
				nops++
			}
		}
	}
	return gaps, nops
}

// TestOpNameTableCoversEveryOp checks that every opcode has a mnemonic
// and that OpX's mnemonic is "X", so tests elsewhere can name an opcode's
// constant as "Op"+op.String(). A missing entry still compiles; the
// disassembler would print a raw number.
func TestOpNameTableCoversEveryOp(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "ops.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	gaps, nops := opNameGaps(f, opNames[:])
	if nops != NumOps {
		t.Errorf("ops.go declares %d Op constants, NumOps is %d", nops, NumOps)
	}
	for _, g := range gaps {
		t.Error(g)
	}
}

// TestOpNameTableCoverageReportsMissingOp feeds opNameGaps a table
// that lacks one mnemonic and misspells another.
func TestOpNameTableCoverageReportsMissingOp(t *testing.T) {
	const src = `package bytecode
type Op uint32
const (
	OpNop Op = iota
	OpHalt
	OpNew
	numOps
)
`
	f, err := parser.ParseFile(token.NewFileSet(), "synthetic.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	gaps, nops := opNameGaps(f, []string{"Nop", "", "Make"})
	want := []string{
		`OpHalt has mnemonic "", want "Halt"`,
		`OpNew has mnemonic "Make", want "New"`,
	}
	if nops != 3 || !reflect.DeepEqual(gaps, want) {
		t.Fatalf("opNameGaps = %q, %d; want %q, 3", gaps, nops, want)
	}
}
