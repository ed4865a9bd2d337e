package bytecode

import (
	"strings"
	"testing"

	"ricjs/internal/ic"
	"ricjs/internal/parser"
)

func compile(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := parser.Parse("t.js", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	bc, err := Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return bc
}

func disasm(t *testing.T, src string) string {
	t.Helper()
	var b strings.Builder
	compile(t, src).Toplevel.WalkProtos(func(p *FuncProto) {
		b.WriteString(p.Disassemble())
	})
	return b.String()
}

func TestToplevelVarBecomesGlobal(t *testing.T) {
	out := disasm(t, "var x = 1; x;")
	for _, want := range []string{"DeclGlobal", "StoreGlobal", "LoadGlobal"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %s in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "LoadLocal") {
		t.Errorf("toplevel var must not be a local:\n%s", out)
	}
}

func TestFunctionLocalsAndParams(t *testing.T) {
	p := compile(t, "function f(a, b) { var c = a + b; return c; }")
	fn := p.Toplevel.Protos[0]
	if fn.NumParams != 2 {
		t.Fatalf("params = %d", fn.NumParams)
	}
	if fn.NumLocals != 3 { // a, b, c
		t.Fatalf("locals = %d", fn.NumLocals)
	}
	if fn.NumCtxSlots != 0 {
		t.Fatalf("ctx slots = %d", fn.NumCtxSlots)
	}
	out := fn.Disassemble()
	if !strings.Contains(out, "LoadLocal") || !strings.Contains(out, "StoreLocal") {
		t.Errorf("locals not used:\n%s", out)
	}
	if strings.Contains(out, "Global") {
		t.Errorf("function vars must not be globals:\n%s", out)
	}
}

func TestClosureCapture(t *testing.T) {
	p := compile(t, `
		function counter() {
			var n = 0;
			return function () { n = n + 1; return n; };
		}
	`)
	outer := p.Toplevel.Protos[0]
	if outer.NumCtxSlots != 1 {
		t.Fatalf("outer ctx slots = %d, want 1 (n captured)", outer.NumCtxSlots)
	}
	inner := outer.Protos[0]
	innerOut := inner.Disassemble()
	if !strings.Contains(innerOut, "LoadCtx 0 0") {
		t.Errorf("inner must read n from ctx depth 0:\n%s", innerOut)
	}
	if !strings.Contains(innerOut, "StoreCtx 0 0") {
		t.Errorf("inner must write n to ctx depth 0:\n%s", innerOut)
	}
}

func TestNestedCaptureDepth(t *testing.T) {
	p := compile(t, `
		function a() {
			var x = 1;
			return function b() {
				var y = 2;
				return function c() { return x + y; };
			};
		}
	`)
	aProto := p.Toplevel.Protos[0]
	bProto := aProto.Protos[0]
	cProto := bProto.Protos[0]
	if aProto.NumCtxSlots != 1 || bProto.NumCtxSlots != 1 {
		t.Fatalf("ctx slots a=%d b=%d", aProto.NumCtxSlots, bProto.NumCtxSlots)
	}
	out := cProto.Disassemble()
	// c has no own ctx; its chain head is b's context (depth 0), a is depth 1.
	if !strings.Contains(out, "LoadCtx 1 0") {
		t.Errorf("x must be at depth 1:\n%s", out)
	}
	if !strings.Contains(out, "LoadCtx 0 0") {
		t.Errorf("y must be at depth 0:\n%s", out)
	}
}

func TestCapturedParamPrologue(t *testing.T) {
	p := compile(t, "function f(a) { return function () { return a; }; }")
	fn := p.Toplevel.Protos[0]
	if fn.NumCtxSlots != 1 {
		t.Fatalf("ctx slots = %d", fn.NumCtxSlots)
	}
	out := fn.Disassemble()
	// Prologue copies local 0 into ctx slot 0.
	if !strings.Contains(out, "LoadLocal 0") || !strings.Contains(out, "StoreCtx 0 0") {
		t.Errorf("captured param prologue missing:\n%s", out)
	}
}

func TestMemberSitesGetFeedbackSlots(t *testing.T) {
	p := compile(t, "function f(o) { o.x = 1; return o.x + o.y; }")
	fn := p.Toplevel.Protos[0]
	if len(fn.Sites) != 3 {
		t.Fatalf("sites = %d, want 3", len(fn.Sites))
	}
	if fn.Sites[0].Kind != ic.AccessStore || fn.Sites[0].Name != "x" {
		t.Errorf("site 0 = %+v", fn.Sites[0])
	}
	if fn.Sites[1].Kind != ic.AccessLoad || fn.Sites[1].Name != "x" {
		t.Errorf("site 1 = %+v", fn.Sites[1])
	}
	if fn.Sites[2].Kind != ic.AccessLoad || fn.Sites[2].Name != "y" {
		t.Errorf("site 2 = %+v", fn.Sites[2])
	}
	// Sites carry distinct positions.
	if fn.Sites[0].Site() == fn.Sites[1].Site() {
		t.Error("store and load sites must differ")
	}
}

func TestObjectLiteralStoresThroughICSites(t *testing.T) {
	p := compile(t, "var o = {a: 1, b: 2};")
	top := p.Toplevel
	var stores int
	for _, s := range top.Sites {
		if s.Kind == ic.AccessStore {
			stores++
		}
	}
	if stores != 2 {
		t.Fatalf("object literal produced %d store sites, want 2", stores)
	}
	out := top.Disassemble()
	if !strings.Contains(out, "NewObject") {
		t.Errorf("missing NewObject:\n%s", out)
	}
}

func TestGlobalAccessesAreGlobalSites(t *testing.T) {
	p := compile(t, "var g = 1; function f() { return g; }")
	fn := p.Toplevel.Protos[0]
	if len(fn.Sites) != 1 || fn.Sites[0].Kind != ic.AccessLoadGlobal {
		t.Fatalf("sites = %+v", fn.Sites)
	}
}

func TestMethodCallShape(t *testing.T) {
	out := disasm(t, "o.m(1, 2);")
	// obj; Dup; LoadNamed m; args; Call 2
	if !strings.Contains(out, "Dup") || !strings.Contains(out, "Call 2") {
		t.Errorf("method call shape wrong:\n%s", out)
	}
}

func TestHoistedFunctionsCallableBeforeDecl(t *testing.T) {
	out := disasm(t, "f(); function f() {}")
	// MakeClosure and StoreGlobal must appear before the Call.
	mk := strings.Index(out, "MakeClosure")
	call := strings.Index(out, "Call")
	if mk == -1 || call == -1 || mk > call {
		t.Errorf("function not hoisted:\n%s", out)
	}
}

func TestLoopsCompile(t *testing.T) {
	out := disasm(t, `
		for (var i = 0; i < 3; i++) { if (i == 1) continue; if (i == 2) break; }
		while (x) { y; }
		do { z; } while (w);
		for (k in obj) { use(k); }
	`)
	for _, want := range []string{"JumpIfFalse", "Jump", "JumpIfTrue", "ForInKeys", "LoadKeyed"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %s:\n%s", want, out)
		}
	}
}

func TestBreakOutsideLoopFails(t *testing.T) {
	prog, err := parser.Parse("t.js", "break;")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(prog); err == nil {
		t.Fatal("break outside loop must fail")
	}
	prog2, _ := parser.Parse("t.js", "continue;")
	if _, err := Compile(prog2); err == nil {
		t.Fatal("continue outside loop must fail")
	}
}

func TestTryCatchCompiles(t *testing.T) {
	out := disasm(t, "function f() { try { g(); } catch (e) { return e; } finally { h(); } }")
	for _, want := range []string{"TryPush", "TryPop"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %s:\n%s", want, out)
		}
	}
}

func TestConstPoolDeduplication(t *testing.T) {
	p := compile(t, "var a = 5; var b = 5; var c = 'x'; var d = 'x';")
	if len(p.Toplevel.Consts) != 2 {
		t.Fatalf("consts = %v", p.Toplevel.Consts)
	}
}

func TestCountSites(t *testing.T) {
	p := compile(t, "o.a; function f() { return o.b + o.c; }")
	// Toplevel: o.a load, global o load, global store of hoisted f.
	// In f: o.b, o.c loads plus two global o loads.
	if got := p.CountSites(); got != 7 {
		t.Fatalf("CountSites = %d, want 7", got)
	}
}

func TestDeleteCompiles(t *testing.T) {
	out := disasm(t, "delete o.p; delete o[k]; delete 5;")
	if !strings.Contains(out, "DeleteNamed") || !strings.Contains(out, "DeleteKeyed") {
		t.Errorf("delete forms missing:\n%s", out)
	}
}

func TestOperandCountsConsistent(t *testing.T) {
	// Walk all generated code of a program exercising most opcodes; the
	// decoder must land exactly on opcode boundaries (Disassemble panics
	// or misreads otherwise).
	src := `
		var g = {a: 1};
		function f(p) {
			var local = [1, 2, 3];
			var s = '';
			for (var i = 0; i < local.length; i++) { s += local[i]; }
			if (p in g && g instanceof Object) { s = typeof s; }
			try { throw s; } catch (e) { s = e ? e : null; }
			return function () { return s; };
		}
		f(1)();
	`
	p := compile(t, src)
	p.Toplevel.WalkProtos(func(fp *FuncProto) {
		pc := 0
		for pc < len(fp.Code) {
			op := Op(fp.Code[pc])
			if op >= numOps {
				t.Fatalf("bad opcode %d at %d in %s", op, pc, fp.FunctionName())
			}
			pc += 1 + op.OperandCount()
		}
		if pc != len(fp.Code) {
			t.Fatalf("decoder overran in %s", fp.FunctionName())
		}
		_ = fp.Disassemble() // must not panic
	})
}
