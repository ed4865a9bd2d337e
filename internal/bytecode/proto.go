package bytecode

import (
	"fmt"
	"strings"
	"sync/atomic"

	"ricjs/internal/heapsize"
	"ricjs/internal/ic"
	"ricjs/internal/source"
	"ricjs/internal/symtab"
)

// ConstKind discriminates constant-pool entries.
type ConstKind uint8

const (
	// ConstNumber is a numeric constant.
	ConstNumber ConstKind = iota
	// ConstString is a string constant.
	ConstString
)

// Const is a constant-pool entry.
type Const struct {
	Kind ConstKind
	Num  float64
	Str  string
}

// String renders the constant for disassembly.
func (c Const) String() string {
	if c.Kind == ConstString {
		return fmt.Sprintf("%q", c.Str)
	}
	return fmt.Sprintf("%g", c.Num)
}

// FuncProto is a compiled function: the shared, context-independent part
// of a function (V8's SharedFunctionInfo + bytecode). FuncProtos are what
// the code cache persists between runs.
type FuncProto struct {
	// Name is the function name, "" for anonymous functions,
	// "<main>" for the script toplevel.
	Name string
	// Script is the owning script name.
	Script string
	// DeclPos is the function's declaration position; constructor initial
	// hidden classes are keyed to it (paper Figure 2's Constructor HC).
	DeclPos source.Pos
	// CallLabel is the pre-rendered "name (script)" stack-trace label, so
	// pushing a call frame allocates nothing.
	CallLabel string

	NumParams int
	// NumLocals counts parameter, variable and temporary slots.
	NumLocals int
	// NumCtxSlots counts variables captured by nested closures; when
	// non-zero the function allocates a Context frame on entry.
	NumCtxSlots int

	Code   []uint32
	Consts []Const
	Names  []string
	// NameIDs holds the interned symbol for each Names entry, in lockstep:
	// the interpreter indexes it with the same operand it would use for
	// Names, so named access never hashes a string at run time.
	NameIDs []symtab.ID
	Protos  []*FuncProto
	Sites   []ic.SiteInfo
}

// FunctionName implements a human-readable identity for diagnostics.
func (p *FuncProto) FunctionName() string {
	if p.Name == "" {
		return "<anonymous>"
	}
	return p.Name
}

// Disassemble renders the function's bytecode for tests and debugging.
func (p *FuncProto) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, "function %s params=%d locals=%d ctx=%d\n",
		p.FunctionName(), p.NumParams, p.NumLocals, p.NumCtxSlots)
	for pc := 0; pc < len(p.Code); {
		op := Op(p.Code[pc])
		fmt.Fprintf(&b, "  %4d  %s", pc, op)
		n := op.OperandCount()
		for i := 1; i <= n; i++ {
			fmt.Fprintf(&b, " %d", p.Code[pc+i])
		}
		switch op {
		case OpLoadConst:
			fmt.Fprintf(&b, "  ; %s", p.Consts[p.Code[pc+1]])
		case OpLoadNamed, OpStoreNamed, OpLoadGlobal, OpStoreGlobal:
			fmt.Fprintf(&b, "  ; %s @%s", p.Names[p.Code[pc+1]], p.Sites[p.Code[pc+2]].Site())
		case OpLoadKeyed, OpStoreKeyed:
			fmt.Fprintf(&b, "  ; @%s", p.Sites[p.Code[pc+1]].Site())
		case OpDeclGlobal, OpDeleteNamed:
			fmt.Fprintf(&b, "  ; %s", p.Names[p.Code[pc+1]])
		case OpMakeClosure:
			fmt.Fprintf(&b, "  ; %s", p.Protos[p.Code[pc+1]].FunctionName())
		}
		b.WriteByte('\n')
		pc += 1 + n
	}
	return b.String()
}

// WalkProtos visits p and every nested function proto depth-first.
func (p *FuncProto) WalkProtos(fn func(*FuncProto)) {
	fn(p)
	for _, nested := range p.Protos {
		nested.WalkProtos(fn)
	}
}

// Seal fills the fields derived from the rest of a proto, for p and
// every nested proto: the interned name pool (NameIDs), the interned site
// names, each site's script and the stack-trace label. Compile seals
// every program it returns; a proto built by hand must be sealed before a
// VM runs it, because VMs share protos read-only and never fill them in.
// Sealing a sealed proto changes nothing.
func (p *FuncProto) Seal() {
	p.WalkProtos(func(fp *FuncProto) {
		if len(fp.NameIDs) != len(fp.Names) {
			fp.NameIDs = make([]symtab.ID, len(fp.Names))
			for i, n := range fp.Names {
				fp.NameIDs[i] = symtab.Intern(n)
			}
		}
		for i := range fp.Sites {
			si := &fp.Sites[i]
			if si.NameID == symtab.None && si.Name != "" {
				si.NameID = symtab.Intern(si.Name)
			}
			if si.Script == nil {
				si.Script = &fp.Script
			}
		}
		if fp.CallLabel == "" {
			fp.CallLabel = fp.FunctionName() + " (" + fp.Script + ")"
		}
	})
}

// Program is a compiled script: its toplevel function and metadata.
type Program struct {
	Script   string
	Toplevel *FuncProto

	// serial identifies this compile for as long as the process runs; see
	// Serial.
	serial atomic.Uint64
	// resident is the heap the program keeps alive, fixed by Compile; see
	// ResidentBytes.
	resident int
}

// lastSerial is the last serial number handed to a program.
var lastSerial atomic.Uint64

// Serial returns a number that identifies this program among every
// program of the process, assigned on first use. Two compiles of the same
// source get different serials. A cache keyed by the serial, unlike one
// keyed by the pointer, does not keep the program alive once nothing else
// holds it.
func (p *Program) Serial() uint64 {
	if s := p.serial.Load(); s != 0 {
		return s
	}
	p.serial.CompareAndSwap(0, lastSerial.Add(1))
	return p.serial.Load()
}

// ResidentBytes is the heap the compiled program keeps alive: every
// proto and the capacity of each of its tables, and the strings the
// compiler allocated (string constants and stack-trace labels), each
// rounded to its allocation size class. Identifiers and the script name
// are not counted: they point into the caller's name and source text.
// Compile computes the figure once; a hand-built program reports 0.
func (p *Program) ResidentBytes() int { return p.resident }

// residentBytes computes ResidentBytes.
func (p *Program) residentBytes() int {
	n := heapsize.Alloc(heapsize.Of[Program]())
	p.Toplevel.WalkProtos(func(fp *FuncProto) {
		n += heapsize.Alloc(heapsize.Of[FuncProto]()) +
			heapsize.Slice(fp.Code) + heapsize.Slice(fp.Consts) + heapsize.Slice(fp.Names) +
			heapsize.Slice(fp.NameIDs) + heapsize.Slice(fp.Protos) + heapsize.Slice(fp.Sites) +
			heapsize.String(fp.CallLabel)
		for _, c := range fp.Consts {
			if c.Kind == ConstString {
				n += heapsize.String(c.Str)
			}
		}
	})
	return n
}

// CountSites returns the total number of feedback sites across all
// functions in the program.
func (p *Program) CountSites() int {
	total := 0
	p.Toplevel.WalkProtos(func(fp *FuncProto) { total += len(fp.Sites) })
	return total
}
