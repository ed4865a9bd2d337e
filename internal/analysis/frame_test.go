package analysis

import (
	"testing"

	"ricjs/internal/bytecode"
	"ricjs/internal/parser"
)

func compileFn(t *testing.T, src string) *bytecode.FuncProto {
	t.Helper()
	ast, err := parser.Parse("t.js", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := bytecode.Compile(ast)
	if err != nil {
		t.Fatal(err)
	}
	return prog.Toplevel.Protos[0]
}

// TestBlockLeaders checks where states live: a do-while back-edge makes
// the body's first instruction a leader in the middle of straight-line
// code, a TryPush makes its handler and fall-through leaders, and the
// instruction after a Return starts a block.
func TestBlockLeaders(t *testing.T) {
	fn := compileFn(t, `function f(o) {
		var i = 0;
		do { i = i + 1; } while (i < 3);
		try { i = 2; } catch (e) { i = 3; }
		if (i) { return o.a; }
		return i;
	}`)
	code := fn.Code
	lead := blockLeaders(code)
	var backEdge, handler, afterReturn bool
	for pc := 0; pc < len(code); {
		op := bytecode.Op(code[pc])
		next := pc + 1 + op.OperandCount()
		switch op {
		case bytecode.OpJumpIfTrue, bytecode.OpJumpIfFalse:
			if target := int(code[pc+1]); target < pc {
				backEdge = true
				if !lead[target] {
					t.Errorf("back-edge target %d is not a leader", target)
				}
			}
		case bytecode.OpTryPush:
			handler = true
			if target := int(code[pc+1]); !lead[target] || !lead[next] {
				t.Errorf("TryPush at %d: handler %d leader=%v, fall-through %d leader=%v", pc, target, lead[target], next, lead[next])
			}
		case bytecode.OpReturn:
			if next < len(code) {
				afterReturn = true
				if !lead[next] {
					t.Errorf("instruction after Return at %d is not a leader", pc)
				}
			}
		}
		pc = next
	}
	if !backEdge || !handler || !afterReturn {
		t.Fatalf("fixture lacks a case: back-edge %v, handler %v, after return %v", backEdge, handler, afterReturn)
	}
	for pc := range code {
		if lead[pc] != (pc == 0 || isTarget(code, pc) || followsBranch(code, pc)) {
			t.Errorf("pc %d: leader=%v disagrees with the control flow", pc, lead[pc])
		}
	}
}

// isTarget reports whether any jump or TryPush in code targets pc.
func isTarget(code []uint32, pc int) bool {
	for at := 0; at < len(code); {
		op := bytecode.Op(code[at])
		switch op {
		case bytecode.OpJump, bytecode.OpJumpIfFalse, bytecode.OpJumpIfTrue, bytecode.OpTryPush:
			if int(code[at+1]) == pc {
				return true
			}
		}
		at += 1 + op.OperandCount()
	}
	return false
}

// followsBranch reports whether the instruction before pc ends a block.
func followsBranch(code []uint32, pc int) bool {
	for at := 0; at < len(code); {
		op := bytecode.Op(code[at])
		next := at + 1 + op.OperandCount()
		if next == pc {
			switch op {
			case bytecode.OpJump, bytecode.OpJumpIfFalse, bytecode.OpJumpIfTrue, bytecode.OpTryPush,
				bytecode.OpReturn, bytecode.OpReturnUndef, bytecode.OpThrow:
				return true
			}
			return false
		}
		at = next
	}
	return false
}

func same(x, y absVal) bool { return x.leq(y) && y.leq(x) }

// TestFrameStateCopyOnWrite checks that clones share chunks until one
// side writes, that a write copies only the chunk it touches, and that a
// merge never writes through to a state sharing the chunk.
func TestFrameStateCopyOnWrite(t *testing.T) {
	a := &analyzer{}
	undef := filledChunk(primVal(pUndef))
	base := newFrameState(40, undef)
	if len(base.chunks) != 2 {
		t.Fatalf("40 locals in %d chunks, want 2", len(base.chunks))
	}
	base.setLocal(35, primVal(pStr))
	left, right := base.clone(), base.clone()
	left.setLocal(3, primVal(pNull))
	right.setLocal(36, primVal(pBool))

	if left.chunks[1] != base.chunks[1] || right.chunks[0] != base.chunks[0] {
		t.Error("a write copied a chunk it did not touch")
	}
	if !same(base.local(3), primVal(pUndef)) || !same(right.local(3), primVal(pUndef)) {
		t.Error("a write to a clone reached a state sharing its chunk")
	}
	if !same(base.local(36), primVal(pUndef)) || !same(left.local(36), primVal(pUndef)) {
		t.Error("a write to a clone reached a state sharing its chunk")
	}
	if !same(left.local(35), primVal(pStr)) || !same(right.local(35), primVal(pStr)) {
		t.Error("clones lost a local set before cloning")
	}
	if !same(left.local(40), topVal) || !same(left.local(-1), topVal) {
		t.Error("out-of-frame locals must read as ⊤")
	}

	states := []*frameState{left}
	if !a.mergeState(states, 0, right) {
		t.Fatal("merge of a state with new values reported no growth")
	}
	if !same(left.local(36), primVal(pUndef|pBool)) || !same(left.local(3), primVal(pNull|pUndef)) {
		t.Errorf("merge lost a value: l3=%v l36=%v", left.local(3), left.local(36))
	}
	if !same(base.local(36), primVal(pUndef)) || !same(right.local(3), primVal(pUndef)) {
		t.Error("merge wrote through to a state sharing the chunk")
	}
	if a.mergeState(states, 0, right) {
		t.Error("second identical merge reported growth")
	}
	if !same(undef.vals[3], primVal(pUndef)) {
		t.Error("the shared fill chunk was written")
	}
}
