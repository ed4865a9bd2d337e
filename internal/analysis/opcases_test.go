package analysis_test

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
// "case bytecode.OpX" label under n. The bytecode package's tests pin
// OpX's String to "X".
func missingOpCases(n ast.Node) []string {
	cases := map[string]bool{}
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
	var missing []string
	for op := bytecode.Op(0); int(op) < bytecode.NumOps; op++ {
		if name := "Op" + op.String(); !cases[name] {
			missing = append(missing, name)
		}
	}
	return missing
}

// funcBody returns the body of the function or method called name in
// files, or nil. Each rule reads one function, so a case in one switch
// never masks a gap in the other.
func funcBody(files []*ast.File, name string) *ast.BlockStmt {
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == name {
				return fd.Body
			}
		}
	}
	return nil
}

// packageFiles parses the package's non-test files.
func packageFiles(t *testing.T) []*ast.File {
	t.Helper()
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
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
	return files
}

// checkCoversEveryOp fails t unless function fn in the package's non-test
// files has a case for every opcode.
func checkCoversEveryOp(t *testing.T, fn string) {
	body := funcBody(packageFiles(t), fn)
	if body == nil {
		t.Fatalf("no function %s in package analysis", fn)
	}
	if missing := missingOpCases(body); len(missing) > 0 {
		t.Fatalf("%s has no case for %v", fn, missing)
	}
}

// TestTransferCoversEveryOp checks that the abstract interpreter's step
// has a transfer case for every opcode. A missing case compiles and
// degrades the whole analysis to ⊤ on the first function using the op.
func TestTransferCoversEveryOp(t *testing.T) { checkCoversEveryOp(t, "step") }

// TestOpValueKindCoversEveryOp checks that the value-type table has a case
// for every opcode. A missing case is sound but silently weaker: slots fed
// by the op would never be typed.
func TestOpValueKindCoversEveryOp(t *testing.T) { checkCoversEveryOp(t, "opValueKind") }

// checkReportsMissingOp builds a source where fn switches over every
// opcode but skip and other switches over skip alone, and checks that
// fn's rule reports exactly skip.
func checkReportsMissingOp(t *testing.T, fn, other string, skip bytecode.Op) {
	var src strings.Builder
	fmt.Fprintf(&src, "package analysis\nfunc %s(op bytecode.Op) {\n\tswitch op {\n", fn)
	for op := bytecode.Op(0); int(op) < bytecode.NumOps; op++ {
		if op != skip {
			fmt.Fprintf(&src, "\tcase bytecode.Op%s:\n", op)
		}
	}
	fmt.Fprintf(&src, "\t}\n}\nfunc %s(op bytecode.Op) {\n\tswitch op {\n\tcase bytecode.Op%s:\n\t}\n}\n", other, skip)
	f, err := parser.ParseFile(token.NewFileSet(), "synthetic.go", src.String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	got := missingOpCases(funcBody([]*ast.File{f}, fn))
	if want := []string{"Op" + skip.String()}; !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: missingOpCases = %v, want %v", fn, got, want)
	}
}

func TestTransferCoverageReportsMissingOp(t *testing.T) {
	checkReportsMissingOp(t, "step", "opValueKind", bytecode.OpNew)
}

func TestOpValueKindCoverageReportsMissingOp(t *testing.T) {
	checkReportsMissingOp(t, "opValueKind", "step", bytecode.OpTypeOf)
}
