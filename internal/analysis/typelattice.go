package analysis

import "ricjs/internal/bytecode"

// opValueKind is the value-type half of the transfer function: for every
// opcode it states the primitive-kind component the abstract transfer
// pushes, when that component is fixed by the opcode alone. ok is false
// for opcodes whose result type depends on operands, the abstract heap,
// or callee summaries (loads, calls, allocation, Add's string overload),
// and for opcodes that push nothing.
//
// The switch must be exhaustive over every opcode:
// TestOpValueKindCoversEveryOp fails when an opcode has no case here,
// mirroring TestTransferCoversEveryOp for the main transfer switch. The
// fixed-kind cases are live code — step() pushes primVal(fixedOpKind(op))
// for them — so the table cannot drift from the interpreter.
func opValueKind(op bytecode.Op) (kind uint8, ok bool) {
	switch op {

	// Fixed result kinds.
	case bytecode.OpLoadUndef:
		return pUndef, true
	case bytecode.OpLoadNull:
		return pNull, true
	case bytecode.OpLoadTrue, bytecode.OpLoadFalse:
		return pBool, true
	case bytecode.OpSub, bytecode.OpMul, bytecode.OpDiv, bytecode.OpMod,
		bytecode.OpNeg:
		// General arithmetic is any-number: no bounded integer class is
		// closed under these (overflow to non-int32, division, NaN from
		// mod), so SmallInt never survives them.
		return pNum, true
	case bytecode.OpBitAnd, bytecode.OpBitOr, bytecode.OpBitXor,
		bytecode.OpShl, bytecode.OpShr:
		// ToInt32 semantics: the result is always int32, i.e. SmallInt.
		return pInt, true
	case bytecode.OpNot:
		return pBool, true
	case bytecode.OpTypeOf:
		return pStr, true
	case bytecode.OpEq, bytecode.OpNe, bytecode.OpStrictEq, bytecode.OpStrictNe,
		bytecode.OpLt, bytecode.OpLe, bytecode.OpGt, bytecode.OpGe,
		bytecode.OpIn, bytecode.OpInstanceOf:
		return pBool, true
	case bytecode.OpDeleteNamed, bytecode.OpDeleteKeyed:
		return pBool, true

	// Result type depends on the constant pool (number vs string, and
	// SmallInt vs Float for numbers).
	case bytecode.OpLoadConst:
		return 0, false

	// Result type flows from operands, cells, or summaries.
	case bytecode.OpLoadThis, bytecode.OpLoadLocal, bytecode.OpStoreLocal,
		bytecode.OpLoadCtx, bytecode.OpStoreCtx,
		bytecode.OpLoadGlobal, bytecode.OpStoreGlobal,
		bytecode.OpLoadNamed, bytecode.OpStoreNamed,
		bytecode.OpLoadKeyed, bytecode.OpStoreKeyed,
		bytecode.OpAdd,
		bytecode.OpCall, bytecode.OpNew,
		bytecode.OpDup, bytecode.OpDup2, bytecode.OpSwap:
		return 0, false

	// Object-valued results (the object component is not a prim kind).
	case bytecode.OpNewObject, bytecode.OpNewArray, bytecode.OpMakeClosure,
		bytecode.OpForInKeys:
		return 0, false

	// No pushed result.
	case bytecode.OpDeclGlobal, bytecode.OpPop,
		bytecode.OpJump, bytecode.OpJumpIfFalse, bytecode.OpJumpIfTrue,
		bytecode.OpReturn, bytecode.OpReturnUndef,
		bytecode.OpThrow, bytecode.OpTryPush, bytecode.OpTryPop:
		return 0, false
	}
	return 0, false
}

// fixedOpKind returns the fixed result kind of an opcode, degrading to
// the all-primitives component (never claimable as any single type) if
// asked about an opcode without one — which step() never does.
func fixedOpKind(op bytecode.Op) uint8 {
	if k, ok := opValueKind(op); ok {
		return k
	}
	return pUndef | pNull | pBool | pNum | pStr
}
