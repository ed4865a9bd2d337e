// Package bytecode defines the engine's bytecode format and the compiler
// from AST to bytecode.
//
// Instructions are words in a []uint32 stream: one opcode word followed by
// a fixed number of operand words. Property-access instructions carry a
// feedback-slot operand indexing the function's site table; the VM
// materializes an ICVector with one slot per site-table entry, which is
// the paper's per-function ICVector (Figure 3).
package bytecode

import "fmt"

// Op is a bytecode opcode.
type Op uint32

// Opcodes. The comment gives the operands and stack effect
// (before -- after).
const (
	// OpLoadConst k: ( -- v) pushes constant pool entry k.
	OpLoadConst Op = iota
	// OpLoadUndef: ( -- undefined)
	OpLoadUndef
	// OpLoadNull: ( -- null)
	OpLoadNull
	// OpLoadTrue: ( -- true)
	OpLoadTrue
	// OpLoadFalse: ( -- false)
	OpLoadFalse
	// OpLoadThis: ( -- this)
	OpLoadThis

	// OpLoadLocal i: ( -- v)
	OpLoadLocal
	// OpStoreLocal i: (v -- v) stores without popping.
	OpStoreLocal
	// OpLoadCtx depth idx: ( -- v) loads from the context chain.
	OpLoadCtx
	// OpStoreCtx depth idx: (v -- v)
	OpStoreCtx
	// OpLoadGlobal name fb: ( -- v) loads a global through the global IC.
	OpLoadGlobal
	// OpStoreGlobal name fb: (v -- v)
	OpStoreGlobal
	// OpDeclGlobal name: ( -- ) declares a global as undefined if absent.
	OpDeclGlobal

	// OpLoadNamed name fb: (obj -- v) named property load through the IC.
	OpLoadNamed
	// OpStoreNamed name fb: (obj v -- v) named property store through the IC.
	OpStoreNamed
	// OpLoadKeyed fb: (obj key -- v) computed property load through the
	// keyed IC.
	OpLoadKeyed
	// OpStoreKeyed fb: (obj key v -- v) computed property store through
	// the keyed IC.
	OpStoreKeyed
	// OpDeleteNamed name: (obj -- bool)
	OpDeleteNamed
	// OpDeleteKeyed: (obj key -- bool)
	OpDeleteKeyed

	// OpNewObject: ( -- obj) allocates an empty object.
	OpNewObject
	// OpNewArray n: (e1..en -- arr)
	OpNewArray
	// OpMakeClosure p: ( -- fn) instantiates nested proto p with the
	// current context.
	OpMakeClosure

	// Arithmetic and logic.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpNeg
	OpNot
	OpTypeOf
	OpBitAnd
	OpBitOr
	OpBitXor
	OpShl
	OpShr

	// Comparisons.
	OpEq
	OpNe
	OpStrictEq
	OpStrictNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpIn         // (key obj -- bool)
	OpInstanceOf // (obj ctor -- bool)

	// Stack shuffling.
	OpPop
	OpDup
	OpDup2 // (a b -- a b a b)
	OpSwap

	// Control flow. Targets are absolute code offsets.
	OpJump
	OpJumpIfFalse // (v -- ) jumps when falsy
	OpJumpIfTrue  // (v -- ) jumps when truthy

	// Calls.
	// OpCall argc: (this fn a1..an -- result)
	OpCall
	// OpNew argc: (ctor a1..an -- obj)
	OpNew
	// OpReturn: (v -- ) returns v from the frame.
	OpReturn
	// OpReturnUndef: ( -- ) returns undefined.
	OpReturnUndef

	// OpForInKeys: (obj -- keysArray) collects enumerable own keys.
	OpForInKeys

	// Exceptions.
	// OpThrow: (v -- ) raises v.
	OpThrow
	// OpTryPush catchPC local: ( -- ) arms a catch handler; on throw the
	// VM resets the operand stack, stores the value in the local, and
	// jumps to catchPC.
	OpTryPush
	// OpTryPop: ( -- ) disarms the innermost handler.
	OpTryPop

	numOps
)

// NumOps is the size of the opcode space, for the tests outside this
// package that check every opcode has a dispatch or transfer case.
const NumOps = int(numOps)

// operandCounts[op] is the number of operand words following the opcode.
var operandCounts = [numOps]int{
	OpLoadConst: 1, OpLoadLocal: 1, OpStoreLocal: 1,
	OpLoadCtx: 2, OpStoreCtx: 2,
	OpLoadGlobal: 2, OpStoreGlobal: 2, OpDeclGlobal: 1,
	OpLoadNamed: 2, OpStoreNamed: 2,
	OpLoadKeyed: 1, OpStoreKeyed: 1,
	OpDeleteNamed: 1,
	OpNewArray:    1, OpMakeClosure: 1,
	OpJump: 1, OpJumpIfFalse: 1, OpJumpIfTrue: 1,
	OpCall: 1, OpNew: 1,
	OpTryPush: 2,
}

// OperandCount returns the number of operand words for an opcode.
func (o Op) OperandCount() int {
	if int(o) < len(operandCounts) {
		return operandCounts[o]
	}
	return 0
}

var opNames = [numOps]string{
	OpLoadConst: "LoadConst", OpLoadUndef: "LoadUndef", OpLoadNull: "LoadNull",
	OpLoadTrue: "LoadTrue", OpLoadFalse: "LoadFalse", OpLoadThis: "LoadThis",
	OpLoadLocal: "LoadLocal", OpStoreLocal: "StoreLocal",
	OpLoadCtx: "LoadCtx", OpStoreCtx: "StoreCtx",
	OpLoadGlobal: "LoadGlobal", OpStoreGlobal: "StoreGlobal", OpDeclGlobal: "DeclGlobal",
	OpLoadNamed: "LoadNamed", OpStoreNamed: "StoreNamed",
	OpLoadKeyed: "LoadKeyed", OpStoreKeyed: "StoreKeyed",
	OpDeleteNamed: "DeleteNamed", OpDeleteKeyed: "DeleteKeyed",
	OpNewObject: "NewObject", OpNewArray: "NewArray", OpMakeClosure: "MakeClosure",
	OpAdd: "Add", OpSub: "Sub", OpMul: "Mul", OpDiv: "Div", OpMod: "Mod",
	OpNeg: "Neg", OpNot: "Not", OpTypeOf: "TypeOf",
	OpBitAnd: "BitAnd", OpBitOr: "BitOr", OpBitXor: "BitXor",
	OpShl: "Shl", OpShr: "Shr",
	OpEq: "Eq", OpNe: "Ne", OpStrictEq: "StrictEq", OpStrictNe: "StrictNe",
	OpLt: "Lt", OpLe: "Le", OpGt: "Gt", OpGe: "Ge",
	OpIn: "In", OpInstanceOf: "InstanceOf",
	OpPop: "Pop", OpDup: "Dup", OpDup2: "Dup2", OpSwap: "Swap",
	OpJump: "Jump", OpJumpIfFalse: "JumpIfFalse", OpJumpIfTrue: "JumpIfTrue",
	OpCall: "Call", OpNew: "New",
	OpReturn: "Return", OpReturnUndef: "ReturnUndef",
	OpForInKeys: "ForInKeys",
	OpThrow:     "Throw", OpTryPush: "TryPush", OpTryPop: "TryPop",
}

// String returns the opcode mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint32(o))
}
