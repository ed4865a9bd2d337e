package vm

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ricjs/internal/bytecode"
)

// missingOpCases returns, in opcode order, "OpX" for each opcode with no
// "case bytecode.OpX" label under any of nodes. The bytecode package's
// tests pin OpX's String to "X".
func missingOpCases(nodes ...ast.Node) []string {
	cases := map[string]bool{}
	for _, n := range nodes {
		ast.Inspect(n, func(n ast.Node) bool {
			if cc, ok := n.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					if sel, ok := e.(*ast.SelectorExpr); ok {
						if id, ok := sel.X.(*ast.Ident); ok && id.Name == "bytecode" {
							cases[sel.Sel.Name] = true
						}
					}
				}
			}
			return true
		})
	}
	var missing []string
	for op := bytecode.Op(0); int(op) < bytecode.NumOps; op++ {
		if name := "Op" + op.String(); !cases[name] {
			missing = append(missing, name)
		}
	}
	return missing
}

// TestDispatchCoversEveryOp checks that the package's non-test files hold
// a dispatch case for every opcode. A missing case still compiles; the
// opcode would reach exec's "unknown opcode" error only when it runs.
func TestDispatchCoversEveryOp(t *testing.T) {
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []ast.Node
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if missing := missingOpCases(files...); len(missing) > 0 {
		t.Fatalf("no dispatch case for %v", missing)
	}
}

// TestDispatchCoverageReportsMissingOp feeds missingOpCases a switch over
// every opcode but OpNew.
func TestDispatchCoverageReportsMissingOp(t *testing.T) {
	var src strings.Builder
	src.WriteString("package vm\nfunc exec(op bytecode.Op) {\n\tswitch op {\n")
	for op := bytecode.Op(0); int(op) < bytecode.NumOps; op++ {
		if op != bytecode.OpNew {
			fmt.Fprintf(&src, "\tcase bytecode.Op%s:\n", op)
		}
	}
	src.WriteString("\t}\n}\n")
	f, err := parser.ParseFile(token.NewFileSet(), "synthetic.go", src.String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := missingOpCases(f), []string{"OpNew"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("missingOpCases = %v, want %v", got, want)
	}
}
