package bytecode

import (
	"fmt"

	"ricjs/internal/ast"
	"ricjs/internal/ic"
	"ricjs/internal/source"
	"ricjs/internal/symtab"
)

// CompileError is a semantic error found during compilation.
type CompileError struct {
	Script string
	Pos    source.Pos
	Msg    string
}

// Error implements the error interface.
func (e *CompileError) Error() string {
	return fmt.Sprintf("%s:%s: %s", e.Script, e.Pos, e.Msg)
}

// Compile lowers a parsed program to bytecode. The toplevel becomes a
// function proto named "<main>"; script-level var and function
// declarations become global-object properties, exactly as in JavaScript.
func Compile(prog *ast.Program) (*Program, error) {
	res := newResolver(prog.Script)
	top := res.analyzeFunction(nil, nil, nil, prog.Body)
	fc := &funcCompiler{
		script: prog.Script,
		scope:  top,
		res:    res,
		proto: res.begin(&FuncProto{
			Name:   "<main>",
			Script: prog.Script,
		}),
	}
	if err := fc.compileBody(prog.Body); err != nil {
		return nil, err
	}
	res.finish(fc.proto)
	// Protos are shared read-only across VMs afterwards (codecache), so
	// every derived field, the per-call stack labels included, is fixed
	// here, not lazily on the call path.
	fc.proto.Seal()
	p := &Program{Script: prog.Script, Toplevel: fc.proto}
	p.resident = p.residentBytes()
	return p, nil
}

// ---- Resolution (pass 1) ----

// varInfo is one declared variable of a function scope.
type varInfo struct {
	name     string
	paramIdx int // parameter position, or -1
	captured bool
	// slot is the local slot (uncaptured) or context slot (captured),
	// assigned after analysis.
	slot int
	// localSlot is valid for captured parameters, which arrive in a local
	// slot and are copied into the context by the prologue.
	localSlot int
}

// fnScope is the analysis result for one function (nil fn = toplevel).
type fnScope struct {
	parent   *fnScope
	fn       *ast.FunctionLit
	toplevel bool

	vars  map[string]*varInfo
	order []*varInfo

	allocCtx    bool
	numLocals   int
	numCtxSlots int
}

type resolver struct {
	script string
	scopes map[*ast.FunctionLit]*fnScope
	// spare holds the table buffers of finished functions (see begin).
	spare []tables
}

// tables is one function's six tables while it compiles.
type tables struct {
	code    []uint32
	consts  []Const
	names   []string
	nameIDs []symtab.ID
	protos  []*FuncProto
	sites   []ic.SiteInfo
}

// begin points a new proto's tables at spare buffers, so the appends that
// build them reuse memory an earlier function of the script grew instead
// of allocating afresh.
func (r *resolver) begin(p *FuncProto) *FuncProto {
	if n := len(r.spare); n > 0 {
		t := r.spare[n-1]
		r.spare = r.spare[:n-1]
		p.Code, p.Consts, p.Names = t.code[:0], t.consts[:0], t.names[:0]
		p.NameIDs, p.Protos, p.Sites = t.nameIDs[:0], t.protos[:0], t.sites[:0]
	}
	return p
}

// finish copies a compiled function's tables into exactly sized slices,
// which the proto keeps for as long as the program is cached, and hands
// the buffers they grew in to the next function.
func (r *resolver) finish(p *FuncProto) {
	r.spare = append(r.spare, tables{p.Code, p.Consts, p.Names, p.NameIDs, p.Protos, p.Sites})
	p.Code, p.Consts, p.Names = clone(p.Code), clone(p.Consts), clone(p.Names)
	p.NameIDs, p.Protos, p.Sites = clone(p.NameIDs), clone(p.Protos), clone(p.Sites)
}

// clone copies s into a slice whose capacity equals its length, or
// returns nil when s is empty.
func clone[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	t := make([]T, len(s))
	copy(t, s)
	return t
}

func newResolver(script string) *resolver {
	return &resolver{script: script, scopes: make(map[*ast.FunctionLit]*fnScope)}
}

// analyzeFunction builds the scope for one function: declaration hoisting,
// capture marking (recursing into nested functions), then slot assignment.
func (r *resolver) analyzeFunction(parent *fnScope, fn *ast.FunctionLit, params []string, body []ast.Stmt) *fnScope {
	sc := &fnScope{
		parent:   parent,
		fn:       fn,
		toplevel: fn == nil,
		vars:     make(map[string]*varInfo),
	}
	if fn != nil {
		r.scopes[fn] = sc
		for i, p := range params {
			sc.declare(p, i)
		}
		hoistDecls(body, sc)
	}
	// Toplevel declarations are global-object properties, not scope vars,
	// so the toplevel scope stays empty and lookups fall through to the
	// global object.
	r.markUses(sc, body)
	sc.assignSlots()
	return sc
}

// declare adds a variable if not already declared (JS var semantics:
// redeclaration is a no-op).
func (sc *fnScope) declare(name string, paramIdx int) {
	if _, ok := sc.vars[name]; ok {
		return
	}
	v := &varInfo{name: name, paramIdx: paramIdx}
	sc.vars[name] = v
	sc.order = append(sc.order, v)
}

// hoistDecls collects var, function, for-in and catch declarations from a
// statement list without entering nested function bodies.
func hoistDecls(stmts []ast.Stmt, sc *fnScope) {
	for _, s := range stmts {
		hoistStmt(s, sc)
	}
}

func hoistStmt(s ast.Stmt, sc *fnScope) {
	switch t := s.(type) {
	case *ast.VarDecl:
		for _, n := range t.Names {
			sc.declare(n, -1)
		}
	case *ast.FunctionDecl:
		sc.declare(t.Fn.Name, -1)
	case *ast.IfStmt:
		hoistStmt(t.Then, sc)
		if t.Else != nil {
			hoistStmt(t.Else, sc)
		}
	case *ast.WhileStmt:
		hoistStmt(t.Body, sc)
	case *ast.DoWhileStmt:
		hoistStmt(t.Body, sc)
	case *ast.ForStmt:
		if t.Init != nil {
			hoistStmt(t.Init, sc)
		}
		hoistStmt(t.Body, sc)
	case *ast.ForInStmt:
		if t.Decl {
			sc.declare(t.Name, -1)
		}
		hoistStmt(t.Body, sc)
	case *ast.BlockStmt:
		hoistDecls(t.Body, sc)
	case *ast.SwitchStmt:
		for _, c := range t.Cases {
			hoistDecls(c.Body, sc)
		}
	case *ast.TryStmt:
		hoistDecls(t.Body, sc)
		if t.CatchName != "" {
			sc.declare(t.CatchName, -1)
		}
		hoistDecls(t.Catch, sc)
		hoistDecls(t.Finally, sc)
	}
}

// markUses walks a function body, resolving identifier uses. A use that
// resolves to a variable of an enclosing function marks that variable
// captured and forces the declaring function to allocate a context.
// Nested function literals are analyzed recursively here.
func (r *resolver) markUses(sc *fnScope, stmts []ast.Stmt) {
	for _, s := range stmts {
		r.markStmt(sc, s)
	}
}

func (r *resolver) markStmt(sc *fnScope, s ast.Stmt) {
	switch t := s.(type) {
	case *ast.VarDecl:
		for i := range t.Names {
			if t.Inits[i] != nil {
				r.markExpr(sc, t.Inits[i])
				r.useVar(sc, t.Names[i])
			}
		}
	case *ast.FunctionDecl:
		r.useVar(sc, t.Fn.Name)
		r.analyzeFunction(sc, t.Fn, t.Fn.Params, t.Fn.Body)
	case *ast.ExprStmt:
		r.markExpr(sc, t.X)
	case *ast.ReturnStmt:
		if t.Value != nil {
			r.markExpr(sc, t.Value)
		}
	case *ast.IfStmt:
		r.markExpr(sc, t.Cond)
		r.markStmt(sc, t.Then)
		if t.Else != nil {
			r.markStmt(sc, t.Else)
		}
	case *ast.WhileStmt:
		r.markExpr(sc, t.Cond)
		r.markStmt(sc, t.Body)
	case *ast.DoWhileStmt:
		r.markStmt(sc, t.Body)
		r.markExpr(sc, t.Cond)
	case *ast.ForStmt:
		if t.Init != nil {
			r.markStmt(sc, t.Init)
		}
		if t.Cond != nil {
			r.markExpr(sc, t.Cond)
		}
		if t.Post != nil {
			r.markExpr(sc, t.Post)
		}
		r.markStmt(sc, t.Body)
	case *ast.ForInStmt:
		r.useVar(sc, t.Name)
		r.markExpr(sc, t.Subject)
		r.markStmt(sc, t.Body)
	case *ast.BlockStmt:
		r.markUses(sc, t.Body)
	case *ast.ThrowStmt:
		r.markExpr(sc, t.Value)
	case *ast.SwitchStmt:
		r.markExpr(sc, t.Subject)
		for _, c := range t.Cases {
			if c.Test != nil {
				r.markExpr(sc, c.Test)
			}
			r.markUses(sc, c.Body)
		}
	case *ast.TryStmt:
		r.markUses(sc, t.Body)
		if t.CatchName != "" {
			r.useVar(sc, t.CatchName)
		}
		r.markUses(sc, t.Catch)
		r.markUses(sc, t.Finally)
	}
}

func (r *resolver) markExpr(sc *fnScope, e ast.Expr) {
	switch t := e.(type) {
	case *ast.Ident:
		r.useVar(sc, t.Name)
	case *ast.FunctionLit:
		r.analyzeFunction(sc, t, t.Params, t.Body)
	case *ast.ObjectLit:
		for _, p := range t.Props {
			r.markExpr(sc, p.Value)
		}
	case *ast.ArrayLit:
		for _, el := range t.Elems {
			r.markExpr(sc, el)
		}
	case *ast.MemberExpr:
		r.markExpr(sc, t.Obj)
	case *ast.IndexExpr:
		r.markExpr(sc, t.Obj)
		r.markExpr(sc, t.Index)
	case *ast.CallExpr:
		r.markExpr(sc, t.Callee)
		for _, a := range t.Args {
			r.markExpr(sc, a)
		}
	case *ast.NewExpr:
		r.markExpr(sc, t.Callee)
		for _, a := range t.Args {
			r.markExpr(sc, a)
		}
	case *ast.UnaryExpr:
		r.markExpr(sc, t.Operand)
	case *ast.PostfixExpr:
		r.markExpr(sc, t.Operand)
	case *ast.BinaryExpr:
		r.markExpr(sc, t.L)
		r.markExpr(sc, t.R)
	case *ast.LogicalExpr:
		r.markExpr(sc, t.L)
		r.markExpr(sc, t.R)
	case *ast.CondExpr:
		r.markExpr(sc, t.Cond)
		r.markExpr(sc, t.Then)
		r.markExpr(sc, t.Else)
	case *ast.AssignExpr:
		r.markExpr(sc, t.Target)
		r.markExpr(sc, t.Value)
	}
}

// useVar resolves a name from scope sc; a hit in an enclosing function
// marks the variable captured there.
func (r *resolver) useVar(sc *fnScope, name string) {
	for s := sc; s != nil; s = s.parent {
		if v, ok := s.vars[name]; ok {
			if s != sc {
				v.captured = true
				s.allocCtx = true
			}
			return
		}
	}
	// Unresolved: global access; nothing to mark.
}

// assignSlots numbers locals and context slots once capture analysis is
// complete. Parameters always own their arrival local slot; captured
// parameters additionally get a context slot filled by the prologue.
func (sc *fnScope) assignSlots() {
	nparams := 0
	for _, v := range sc.order {
		if v.paramIdx >= 0 {
			nparams++
		}
	}
	nextLocal := nparams
	nextCtx := 0
	for _, v := range sc.order {
		switch {
		case v.captured:
			v.slot = nextCtx
			nextCtx++
			if v.paramIdx >= 0 {
				v.localSlot = v.paramIdx
			}
		case v.paramIdx >= 0:
			v.slot = v.paramIdx
		default:
			v.slot = nextLocal
			nextLocal++
		}
	}
	sc.numLocals = nextLocal
	sc.numCtxSlots = nextCtx
}

// ---- Code generation (pass 2) ----

type loopInfo struct {
	// isSwitch marks a switch construct: break targets it, continue
	// bypasses it and binds to the enclosing loop.
	isSwitch      bool
	breakJumps    []int
	continueJumps []int
}

type funcCompiler struct {
	script string
	parent *funcCompiler
	scope  *fnScope
	proto  *FuncProto
	res    *resolver
	loops  []*loopInfo
}

func (fc *funcCompiler) errf(pos source.Pos, format string, args ...any) error {
	return &CompileError{Script: fc.script, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// emit appends an instruction and returns the offset of its first operand.
func (fc *funcCompiler) emit(op Op, operands ...uint32) int {
	fc.proto.Code = append(fc.proto.Code, uint32(op))
	at := len(fc.proto.Code)
	fc.proto.Code = append(fc.proto.Code, operands...)
	return at
}

// here returns the current code offset.
func (fc *funcCompiler) here() int { return len(fc.proto.Code) }

// patch stores the current offset into a previously emitted operand.
func (fc *funcCompiler) patch(operandAt int) {
	fc.proto.Code[operandAt] = uint32(fc.here())
}

func (fc *funcCompiler) constNum(f float64) uint32 {
	for i, c := range fc.proto.Consts {
		if c.Kind == ConstNumber && c.Num == f {
			return uint32(i)
		}
	}
	fc.proto.Consts = append(fc.proto.Consts, Const{Kind: ConstNumber, Num: f})
	return uint32(len(fc.proto.Consts) - 1)
}

func (fc *funcCompiler) constStr(s string) uint32 {
	for i, c := range fc.proto.Consts {
		if c.Kind == ConstString && c.Str == s {
			return uint32(i)
		}
	}
	fc.proto.Consts = append(fc.proto.Consts, Const{Kind: ConstString, Str: s})
	return uint32(len(fc.proto.Consts) - 1)
}

func (fc *funcCompiler) nameIdx(n string) uint32 {
	for i, existing := range fc.proto.Names {
		if existing == n {
			return uint32(i)
		}
	}
	fc.proto.Names = append(fc.proto.Names, n)
	// The name pool is pre-interned at compile time: the interpreter
	// reaches property symbols by index, never hashing the string again.
	fc.proto.NameIDs = append(fc.proto.NameIDs, symtab.Intern(n))
	return uint32(len(fc.proto.Names) - 1)
}

// addSite allocates a feedback slot for an object access site. Keyed
// sites have no static name and keep the None symbol.
func (fc *funcCompiler) addSite(pos source.Pos, kind ic.AccessKind, name string) uint32 {
	nameID := symtab.None
	if name != "" {
		nameID = symtab.Intern(name)
	}
	// Seal points the site at the proto's Script.
	fc.proto.Sites = append(fc.proto.Sites, ic.SiteInfo{
		Pos:    pos,
		Kind:   kind,
		Name:   name,
		NameID: nameID,
	})
	return uint32(len(fc.proto.Sites) - 1)
}

// newTemp allocates an anonymous local slot.
func (fc *funcCompiler) newTemp() uint32 {
	slot := fc.proto.NumLocals
	fc.proto.NumLocals++
	return uint32(slot)
}

// compileBody compiles a function body: prologue (captured-parameter
// copies, hoisted function declarations), statements, implicit return.
func (fc *funcCompiler) compileBody(body []ast.Stmt) error {
	fc.proto.NumLocals = fc.scope.numLocals
	fc.proto.NumCtxSlots = fc.scope.numCtxSlots

	// Prologue: copy captured parameters into the context.
	for _, v := range fc.scope.order {
		if v.captured && v.paramIdx >= 0 {
			fc.emit(OpLoadLocal, uint32(v.localSlot))
			fc.emit(OpStoreCtx, 0, uint32(v.slot))
			fc.emit(OpPop)
		}
	}
	// Hoisted function declarations, in source order.
	if err := fc.hoistFunctions(body); err != nil {
		return err
	}
	for _, s := range body {
		if err := fc.stmt(s); err != nil {
			return err
		}
	}
	fc.emit(OpReturnUndef)
	return nil
}

// hoistFunctions emits closure creation for function declarations in a
// statement list (without entering nested functions), so that functions
// are callable before their declaration, as in JavaScript.
func (fc *funcCompiler) hoistFunctions(stmts []ast.Stmt) error {
	var walk func(s ast.Stmt) error
	walk = func(s ast.Stmt) error {
		switch t := s.(type) {
		case *ast.FunctionDecl:
			if err := fc.makeClosure(t.Fn); err != nil {
				return err
			}
			if err := fc.storeVar(t.P, t.Fn.Name); err != nil {
				return err
			}
			fc.emit(OpPop)
		case *ast.IfStmt:
			if err := walk(t.Then); err != nil {
				return err
			}
			if t.Else != nil {
				return walk(t.Else)
			}
		case *ast.WhileStmt:
			return walk(t.Body)
		case *ast.DoWhileStmt:
			return walk(t.Body)
		case *ast.ForStmt:
			return walk(t.Body)
		case *ast.ForInStmt:
			return walk(t.Body)
		case *ast.BlockStmt:
			for _, inner := range t.Body {
				if err := walk(inner); err != nil {
					return err
				}
			}
		case *ast.SwitchStmt:
			for _, c := range t.Cases {
				for _, inner := range c.Body {
					if err := walk(inner); err != nil {
						return err
					}
				}
			}
		case *ast.TryStmt:
			for _, inner := range t.Body {
				if err := walk(inner); err != nil {
					return err
				}
			}
			for _, inner := range t.Catch {
				if err := walk(inner); err != nil {
					return err
				}
			}
			for _, inner := range t.Finally {
				if err := walk(inner); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, s := range stmts {
		if err := walk(s); err != nil {
			return err
		}
	}
	return nil
}

// makeClosure compiles a nested function literal and emits OpMakeClosure.
func (fc *funcCompiler) makeClosure(fn *ast.FunctionLit) error {
	sc := fc.res.scopeOf(fn)
	nested := &funcCompiler{
		script: fc.script,
		parent: fc,
		scope:  sc,
		res:    fc.res,
		proto: fc.res.begin(&FuncProto{
			Name:      fn.Name,
			Script:    fc.script,
			DeclPos:   fn.P,
			NumParams: len(fn.Params),
		}),
	}
	if err := nested.compileBody(fn.Body); err != nil {
		return err
	}
	fc.res.finish(nested.proto)
	fc.proto.Protos = append(fc.proto.Protos, nested.proto)
	fc.emit(OpMakeClosure, uint32(len(fc.proto.Protos)-1))
	return nil
}

// scopeOf returns the analysis scope of a nested function literal.
func (r *resolver) scopeOf(fn *ast.FunctionLit) *fnScope { return r.scopes[fn] }

// ---- Variable access ----

type resKind uint8

const (
	resLocal resKind = iota
	resCtx
	resGlobal
)

type resolution struct {
	kind  resKind
	slot  uint32
	depth uint32
}

// resolve finds a name from the current function outward. Context depth is
// the number of context-allocating functions on the path from the current
// function to the defining one, minus one (the VM's context register
// already points at the innermost allocated context).
func (fc *funcCompiler) resolve(name string) resolution {
	for f := fc; f != nil; f = f.parent {
		sc := f.scope
		if v, ok := sc.vars[name]; ok {
			if v.captured {
				return resolution{kind: resCtx, slot: uint32(v.slot), depth: uint32(fc.ctxDepthTo(f))}
			}
			if f == fc {
				return resolution{kind: resLocal, slot: uint32(v.slot)}
			}
			// An uncaptured variable of an enclosing function can only be
			// reached if capture analysis marked it; reaching here would
			// be a resolver bug.
			panic(fmt.Sprintf("bytecode: unmarked capture of %q", name))
		}
	}
	return resolution{kind: resGlobal}
}

// ctxDepthTo computes the runtime context-chain depth from the current
// function to the defining function def: the number of context-allocating
// functions on the path fc..def inclusive, minus one.
func (fc *funcCompiler) ctxDepthTo(def *funcCompiler) int {
	count := 0
	for f := fc; ; f = f.parent {
		if f.scope.allocCtx {
			count++
		}
		if f == def {
			break
		}
	}
	return count - 1
}

// loadVar pushes a variable's value.
func (fc *funcCompiler) loadVar(pos source.Pos, name string) {
	switch r := fc.resolve(name); r.kind {
	case resLocal:
		fc.emit(OpLoadLocal, r.slot)
	case resCtx:
		fc.emit(OpLoadCtx, r.depth, r.slot)
	default:
		fb := fc.addSite(pos, ic.AccessLoadGlobal, name)
		fc.emit(OpLoadGlobal, fc.nameIdx(name), fb)
	}
}

// storeVar stores the stack top into a variable, leaving the value.
func (fc *funcCompiler) storeVar(pos source.Pos, name string) error {
	switch r := fc.resolve(name); r.kind {
	case resLocal:
		fc.emit(OpStoreLocal, r.slot)
	case resCtx:
		fc.emit(OpStoreCtx, r.depth, r.slot)
	default:
		fb := fc.addSite(pos, ic.AccessStoreGlobal, name)
		fc.emit(OpStoreGlobal, fc.nameIdx(name), fb)
	}
	return nil
}

// ---- Statements ----

func (fc *funcCompiler) stmt(s ast.Stmt) error {
	switch t := s.(type) {
	case *ast.VarDecl:
		return fc.varDecl(t)
	case *ast.FunctionDecl:
		return nil // handled by hoisting
	case *ast.ExprStmt:
		if err := fc.expr(t.X); err != nil {
			return err
		}
		fc.emit(OpPop)
		return nil
	case *ast.ReturnStmt:
		if t.Value == nil {
			fc.emit(OpReturnUndef)
			return nil
		}
		if err := fc.expr(t.Value); err != nil {
			return err
		}
		fc.emit(OpReturn)
		return nil
	case *ast.IfStmt:
		return fc.ifStmt(t)
	case *ast.WhileStmt:
		return fc.whileStmt(t)
	case *ast.DoWhileStmt:
		return fc.doWhileStmt(t)
	case *ast.ForStmt:
		return fc.forStmt(t)
	case *ast.ForInStmt:
		return fc.forInStmt(t)
	case *ast.BlockStmt:
		for _, inner := range t.Body {
			if err := fc.stmt(inner); err != nil {
				return err
			}
		}
		return nil
	case *ast.BreakStmt:
		if len(fc.loops) == 0 {
			return fc.errf(t.P, "break outside loop")
		}
		l := fc.loops[len(fc.loops)-1]
		l.breakJumps = append(l.breakJumps, fc.emit(OpJump, 0))
		return nil
	case *ast.ContinueStmt:
		for i := len(fc.loops) - 1; i >= 0; i-- {
			if !fc.loops[i].isSwitch {
				fc.loops[i].continueJumps = append(fc.loops[i].continueJumps, fc.emit(OpJump, 0))
				return nil
			}
		}
		return fc.errf(t.P, "continue outside loop")
	case *ast.ThrowStmt:
		if err := fc.expr(t.Value); err != nil {
			return err
		}
		fc.emit(OpThrow)
		return nil
	case *ast.SwitchStmt:
		return fc.switchStmt(t)
	case *ast.TryStmt:
		return fc.tryStmt(t)
	default:
		return fc.errf(s.Pos(), "unsupported statement %T", s)
	}
}

func (fc *funcCompiler) varDecl(t *ast.VarDecl) error {
	for i, name := range t.Names {
		if fc.scope.toplevel {
			fc.emit(OpDeclGlobal, fc.nameIdx(name))
		}
		if t.Inits[i] == nil {
			continue
		}
		if err := fc.expr(t.Inits[i]); err != nil {
			return err
		}
		if err := fc.storeVar(t.P, name); err != nil {
			return err
		}
		fc.emit(OpPop)
	}
	return nil
}

func (fc *funcCompiler) ifStmt(t *ast.IfStmt) error {
	if err := fc.expr(t.Cond); err != nil {
		return err
	}
	elseJump := fc.emit(OpJumpIfFalse, 0)
	if err := fc.stmt(t.Then); err != nil {
		return err
	}
	if t.Else == nil {
		fc.patch(elseJump)
		return nil
	}
	endJump := fc.emit(OpJump, 0)
	fc.patch(elseJump)
	if err := fc.stmt(t.Else); err != nil {
		return err
	}
	fc.patch(endJump)
	return nil
}

func (fc *funcCompiler) beginLoop() *loopInfo {
	l := &loopInfo{}
	fc.loops = append(fc.loops, l)
	return l
}

// endLoop patches break jumps to the current offset and continue jumps to
// continueTarget.
func (fc *funcCompiler) endLoop(l *loopInfo, continueTarget int) {
	fc.loops = fc.loops[:len(fc.loops)-1]
	for _, at := range l.breakJumps {
		fc.patch(at)
	}
	for _, at := range l.continueJumps {
		fc.proto.Code[at] = uint32(continueTarget)
	}
}

func (fc *funcCompiler) whileStmt(t *ast.WhileStmt) error {
	start := fc.here()
	if err := fc.expr(t.Cond); err != nil {
		return err
	}
	exit := fc.emit(OpJumpIfFalse, 0)
	l := fc.beginLoop()
	if err := fc.stmt(t.Body); err != nil {
		return err
	}
	fc.emit(OpJump, uint32(start))
	fc.patch(exit)
	fc.endLoop(l, start)
	return nil
}

func (fc *funcCompiler) doWhileStmt(t *ast.DoWhileStmt) error {
	start := fc.here()
	l := fc.beginLoop()
	if err := fc.stmt(t.Body); err != nil {
		return err
	}
	cont := fc.here()
	if err := fc.expr(t.Cond); err != nil {
		return err
	}
	fc.emit(OpJumpIfTrue, uint32(start))
	fc.endLoop(l, cont)
	return nil
}

func (fc *funcCompiler) forStmt(t *ast.ForStmt) error {
	if t.Init != nil {
		if err := fc.stmt(t.Init); err != nil {
			return err
		}
	}
	start := fc.here()
	var exit int
	if t.Cond != nil {
		if err := fc.expr(t.Cond); err != nil {
			return err
		}
		exit = fc.emit(OpJumpIfFalse, 0)
	}
	l := fc.beginLoop()
	if err := fc.stmt(t.Body); err != nil {
		return err
	}
	cont := fc.here()
	if t.Post != nil {
		if err := fc.expr(t.Post); err != nil {
			return err
		}
		fc.emit(OpPop)
	}
	fc.emit(OpJump, uint32(start))
	if t.Cond != nil {
		fc.patch(exit)
	}
	fc.endLoop(l, cont)
	return nil
}

// forInStmt desugars `for (k in o) body` into an index loop over the
// subject's enumerable own keys:
//
//	keys = ForInKeys(o); i = 0
//	while (i < keys.length) { k = keys[i]; body; i = i + 1 }
//
// The keys.length load goes through a normal IC site at the statement's
// position, as V8's for-in does through its own feedback slots.
func (fc *funcCompiler) forInStmt(t *ast.ForInStmt) error {
	keysTmp := fc.newTemp()
	idxTmp := fc.newTemp()
	if err := fc.expr(t.Subject); err != nil {
		return err
	}
	fc.emit(OpForInKeys)
	fc.emit(OpStoreLocal, keysTmp)
	fc.emit(OpPop)
	fc.emit(OpLoadConst, fc.constNum(0))
	fc.emit(OpStoreLocal, idxTmp)
	fc.emit(OpPop)

	start := fc.here()
	fc.emit(OpLoadLocal, idxTmp)
	fc.emit(OpLoadLocal, keysTmp)
	fb := fc.addSite(t.P, ic.AccessLoad, "length")
	fc.emit(OpLoadNamed, fc.nameIdx("length"), fb)
	fc.emit(OpLt)
	exit := fc.emit(OpJumpIfFalse, 0)

	fc.emit(OpLoadLocal, keysTmp)
	fc.emit(OpLoadLocal, idxTmp)
	fc.emit(OpLoadKeyed, fc.addSite(t.P, ic.AccessKeyedLoad, ""))
	if err := fc.storeVar(t.P, t.Name); err != nil {
		return err
	}
	fc.emit(OpPop)

	l := fc.beginLoop()
	if err := fc.stmt(t.Body); err != nil {
		return err
	}
	cont := fc.here()
	fc.emit(OpLoadLocal, idxTmp)
	fc.emit(OpLoadConst, fc.constNum(1))
	fc.emit(OpAdd)
	fc.emit(OpStoreLocal, idxTmp)
	fc.emit(OpPop)
	fc.emit(OpJump, uint32(start))
	fc.patch(exit)
	fc.endLoop(l, cont)
	return nil
}

// switchStmt compiles a switch: the subject lands in a temp, each case
// test compares with strict equality in source order, and bodies run with
// fallthrough until a break.
func (fc *funcCompiler) switchStmt(t *ast.SwitchStmt) error {
	if err := fc.expr(t.Subject); err != nil {
		return err
	}
	tmp := fc.newTemp()
	fc.emit(OpStoreLocal, tmp)
	fc.emit(OpPop)

	l := &loopInfo{isSwitch: true}
	fc.loops = append(fc.loops, l)

	// Dispatch chain.
	caseJumps := make([]int, len(t.Cases))
	defaultIdx := -1
	for i, c := range t.Cases {
		if c.Test == nil {
			defaultIdx = i
			continue
		}
		fc.emit(OpLoadLocal, tmp)
		if err := fc.expr(c.Test); err != nil {
			return err
		}
		fc.emit(OpStrictEq)
		caseJumps[i] = fc.emit(OpJumpIfTrue, 0)
	}
	var noMatch int
	if defaultIdx >= 0 {
		noMatch = fc.emit(OpJump, 0) // patched to the default body
	} else {
		noMatch = fc.emit(OpJump, 0) // patched to the end
	}

	// Bodies with fallthrough.
	for i, c := range t.Cases {
		if c.Test != nil {
			fc.patch(caseJumps[i])
		} else {
			fc.proto.Code[noMatch] = uint32(fc.here())
		}
		for _, s := range c.Body {
			if err := fc.stmt(s); err != nil {
				return err
			}
		}
	}
	if defaultIdx < 0 {
		fc.patch(noMatch)
	}

	fc.loops = fc.loops[:len(fc.loops)-1]
	for _, at := range l.breakJumps {
		fc.patch(at)
	}
	return nil
}

// tryStmt compiles try/catch/finally. A finally clause protects both the
// body and the catch clause: it is emitted on the normal path and in a
// dedicated rethrow handler, so exceptions escaping the construct still
// run it (finally code is duplicated, the classic lowering). Known
// simplification: a `return` inside try transfers out without running
// finally.
func (fc *funcCompiler) tryStmt(t *ast.TryStmt) error {
	hasFinally := len(t.Finally) > 0
	var finTryPush int
	var finSlot uint32
	if hasFinally {
		finSlot = fc.newTemp()
		finTryPush = fc.emit(OpTryPush, 0, finSlot)
	}

	if err := fc.tryCatchCore(t); err != nil {
		return err
	}

	if hasFinally {
		fc.emit(OpTryPop)
		// Normal completion: run finally, skip the rethrow handler.
		for _, s := range t.Finally {
			if err := fc.stmt(s); err != nil {
				return err
			}
		}
		endJump := fc.emit(OpJump, 0)
		// Exceptional completion: run finally, rethrow.
		fc.proto.Code[finTryPush] = uint32(fc.here())
		for _, s := range t.Finally {
			if err := fc.stmt(s); err != nil {
				return err
			}
		}
		fc.emit(OpLoadLocal, finSlot)
		fc.emit(OpThrow)
		fc.patch(endJump)
	}
	return nil
}

// tryCatchCore compiles the try body with its catch clause (if any).
func (fc *funcCompiler) tryCatchCore(t *ast.TryStmt) error {
	if t.CatchName == "" {
		for _, s := range t.Body {
			if err := fc.stmt(s); err != nil {
				return err
			}
		}
		return nil
	}
	r := fc.resolve(t.CatchName)
	var catchSlot uint32
	if r.kind == resLocal {
		catchSlot = r.slot
	} else {
		// Captured or global catch variable: land the value in a temp and
		// copy it at catch entry.
		catchSlot = fc.newTemp()
	}

	tryPush := fc.emit(OpTryPush, 0, catchSlot)
	for _, s := range t.Body {
		if err := fc.stmt(s); err != nil {
			return err
		}
	}
	fc.emit(OpTryPop)
	endJump := fc.emit(OpJump, 0)

	fc.proto.Code[tryPush] = uint32(fc.here()) // catch PC
	if r.kind != resLocal {
		fc.emit(OpLoadLocal, catchSlot)
		if err := fc.storeVar(t.P, t.CatchName); err != nil {
			return err
		}
		fc.emit(OpPop)
	}
	for _, s := range t.Catch {
		if err := fc.stmt(s); err != nil {
			return err
		}
	}
	fc.patch(endJump)
	return nil
}

// ---- Expressions ----

func (fc *funcCompiler) expr(e ast.Expr) error {
	switch t := e.(type) {
	case *ast.NumberLit:
		fc.emit(OpLoadConst, fc.constNum(t.Value))
	case *ast.StringLit:
		fc.emit(OpLoadConst, fc.constStr(t.Value))
	case *ast.BoolLit:
		if t.Value {
			fc.emit(OpLoadTrue)
		} else {
			fc.emit(OpLoadFalse)
		}
	case *ast.NullLit:
		fc.emit(OpLoadNull)
	case *ast.UndefinedLit:
		fc.emit(OpLoadUndef)
	case *ast.ThisExpr:
		fc.emit(OpLoadThis)
	case *ast.Ident:
		fc.loadVar(t.P, t.Name)
	case *ast.FunctionLit:
		return fc.makeClosure(t)
	case *ast.ObjectLit:
		return fc.objectLit(t)
	case *ast.ArrayLit:
		for _, el := range t.Elems {
			if err := fc.expr(el); err != nil {
				return err
			}
		}
		fc.emit(OpNewArray, uint32(len(t.Elems)))
	case *ast.MemberExpr:
		if err := fc.expr(t.Obj); err != nil {
			return err
		}
		fb := fc.addSite(t.P, ic.AccessLoad, t.Name)
		fc.emit(OpLoadNamed, fc.nameIdx(t.Name), fb)
	case *ast.IndexExpr:
		if err := fc.expr(t.Obj); err != nil {
			return err
		}
		if err := fc.expr(t.Index); err != nil {
			return err
		}
		fc.emit(OpLoadKeyed, fc.addSite(t.P, ic.AccessKeyedLoad, ""))
	case *ast.CallExpr:
		return fc.callExpr(t)
	case *ast.NewExpr:
		return fc.newExpr(t)
	case *ast.UnaryExpr:
		return fc.unaryExpr(t)
	case *ast.PostfixExpr:
		return fc.postfixExpr(t)
	case *ast.BinaryExpr:
		return fc.binaryExpr(t)
	case *ast.LogicalExpr:
		return fc.logicalExpr(t)
	case *ast.CondExpr:
		if err := fc.expr(t.Cond); err != nil {
			return err
		}
		elseJump := fc.emit(OpJumpIfFalse, 0)
		if err := fc.expr(t.Then); err != nil {
			return err
		}
		endJump := fc.emit(OpJump, 0)
		fc.patch(elseJump)
		if err := fc.expr(t.Else); err != nil {
			return err
		}
		fc.patch(endJump)
	case *ast.AssignExpr:
		return fc.assignExpr(t)
	default:
		return fc.errf(e.Pos(), "unsupported expression %T", e)
	}
	return nil
}

func (fc *funcCompiler) objectLit(t *ast.ObjectLit) error {
	fc.emit(OpNewObject)
	for _, p := range t.Props {
		fc.emit(OpDup)
		if err := fc.expr(p.Value); err != nil {
			return err
		}
		fb := fc.addSite(p.P, ic.AccessStore, p.Key)
		fc.emit(OpStoreNamed, fc.nameIdx(p.Key), fb)
		fc.emit(OpPop)
	}
	return nil
}

func (fc *funcCompiler) callExpr(t *ast.CallExpr) error {
	switch callee := t.Callee.(type) {
	case *ast.MemberExpr:
		if err := fc.expr(callee.Obj); err != nil {
			return err
		}
		fc.emit(OpDup)
		fb := fc.addSite(callee.P, ic.AccessLoad, callee.Name)
		fc.emit(OpLoadNamed, fc.nameIdx(callee.Name), fb)
	case *ast.IndexExpr:
		if err := fc.expr(callee.Obj); err != nil {
			return err
		}
		fc.emit(OpDup)
		if err := fc.expr(callee.Index); err != nil {
			return err
		}
		fc.emit(OpLoadKeyed, fc.addSite(callee.P, ic.AccessKeyedLoad, ""))
	default:
		fc.emit(OpLoadUndef)
		if err := fc.expr(t.Callee); err != nil {
			return err
		}
	}
	for _, a := range t.Args {
		if err := fc.expr(a); err != nil {
			return err
		}
	}
	fc.emit(OpCall, uint32(len(t.Args)))
	return nil
}

func (fc *funcCompiler) newExpr(t *ast.NewExpr) error {
	if err := fc.expr(t.Callee); err != nil {
		return err
	}
	for _, a := range t.Args {
		if err := fc.expr(a); err != nil {
			return err
		}
	}
	fc.emit(OpNew, uint32(len(t.Args)))
	return nil
}

func (fc *funcCompiler) unaryExpr(t *ast.UnaryExpr) error {
	switch t.Op {
	case "!":
		if err := fc.expr(t.Operand); err != nil {
			return err
		}
		fc.emit(OpNot)
	case "-":
		if err := fc.expr(t.Operand); err != nil {
			return err
		}
		fc.emit(OpNeg)
	case "+":
		// Unary plus is ToNumber: double negation avoids a dedicated op.
		if err := fc.expr(t.Operand); err != nil {
			return err
		}
		fc.emit(OpNeg)
		fc.emit(OpNeg)
	case "typeof":
		if err := fc.expr(t.Operand); err != nil {
			return err
		}
		fc.emit(OpTypeOf)
	case "delete":
		return fc.deleteExpr(t)
	case "++", "--":
		return fc.incDec(t.Operand, t.Op, false, t.P)
	default:
		return fc.errf(t.P, "unsupported unary operator %q", t.Op)
	}
	return nil
}

func (fc *funcCompiler) deleteExpr(t *ast.UnaryExpr) error {
	switch target := t.Operand.(type) {
	case *ast.MemberExpr:
		if err := fc.expr(target.Obj); err != nil {
			return err
		}
		fc.emit(OpDeleteNamed, fc.nameIdx(target.Name))
	case *ast.IndexExpr:
		if err := fc.expr(target.Obj); err != nil {
			return err
		}
		if err := fc.expr(target.Index); err != nil {
			return err
		}
		fc.emit(OpDeleteKeyed)
	default:
		// delete on a non-reference evaluates the operand and yields true.
		if err := fc.expr(t.Operand); err != nil {
			return err
		}
		fc.emit(OpPop)
		fc.emit(OpLoadTrue)
	}
	return nil
}

func (fc *funcCompiler) postfixExpr(t *ast.PostfixExpr) error {
	return fc.incDec(t.Operand, t.Op, true, t.P)
}

// incDec compiles ++x/--x/x++/x-- for identifier, member and index
// targets. postfix selects whether the old or new value is left on the
// stack.
func (fc *funcCompiler) incDec(target ast.Expr, op string, postfix bool, pos source.Pos) error {
	binop := OpAdd
	if op == "--" {
		binop = OpSub
	}
	one := fc.constNum(1)

	switch tg := target.(type) {
	case *ast.Ident:
		fc.loadVar(tg.P, tg.Name)
		// Numeric coercion first so postfix returns a number, like JS.
		fc.emit(OpNeg)
		fc.emit(OpNeg)
		var oldTmp uint32
		if postfix {
			oldTmp = fc.newTemp()
			fc.emit(OpStoreLocal, oldTmp)
		}
		fc.emit(OpLoadConst, one)
		fc.emit(binop)
		if err := fc.storeVar(tg.P, tg.Name); err != nil {
			return err
		}
		if postfix {
			fc.emit(OpPop)
			fc.emit(OpLoadLocal, oldTmp)
		}
	case *ast.MemberExpr:
		if err := fc.expr(tg.Obj); err != nil {
			return err
		}
		fc.emit(OpDup)
		loadFB := fc.addSite(tg.P, ic.AccessLoad, tg.Name)
		fc.emit(OpLoadNamed, fc.nameIdx(tg.Name), loadFB)
		fc.emit(OpNeg)
		fc.emit(OpNeg)
		var oldTmp uint32
		if postfix {
			oldTmp = fc.newTemp()
			fc.emit(OpStoreLocal, oldTmp)
		}
		fc.emit(OpLoadConst, one)
		fc.emit(binop)
		storeFB := fc.addSite(tg.P, ic.AccessStore, tg.Name)
		fc.emit(OpStoreNamed, fc.nameIdx(tg.Name), storeFB)
		if postfix {
			fc.emit(OpPop)
			fc.emit(OpLoadLocal, oldTmp)
		}
	case *ast.IndexExpr:
		if err := fc.expr(tg.Obj); err != nil {
			return err
		}
		if err := fc.expr(tg.Index); err != nil {
			return err
		}
		fc.emit(OpDup2)
		fc.emit(OpLoadKeyed, fc.addSite(tg.P, ic.AccessKeyedLoad, ""))
		fc.emit(OpNeg)
		fc.emit(OpNeg)
		var oldTmp uint32
		if postfix {
			oldTmp = fc.newTemp()
			fc.emit(OpStoreLocal, oldTmp)
		}
		fc.emit(OpLoadConst, one)
		fc.emit(binop)
		fc.emit(OpStoreKeyed, fc.addSite(tg.P, ic.AccessKeyedStore, ""))
		if postfix {
			fc.emit(OpPop)
			fc.emit(OpLoadLocal, oldTmp)
		}
	default:
		return fc.errf(pos, "invalid %s target", op)
	}
	return nil
}

var binOps = map[string]Op{
	"+": OpAdd, "-": OpSub, "*": OpMul, "/": OpDiv, "%": OpMod,
	"==": OpEq, "!=": OpNe, "===": OpStrictEq, "!==": OpStrictNe,
	"<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
	"&": OpBitAnd, "|": OpBitOr, "^": OpBitXor, "<<": OpShl, ">>": OpShr,
	"in": OpIn, "instanceof": OpInstanceOf,
}

func (fc *funcCompiler) binaryExpr(t *ast.BinaryExpr) error {
	op, ok := binOps[t.Op]
	if !ok {
		return fc.errf(t.P, "unsupported binary operator %q", t.Op)
	}
	if err := fc.expr(t.L); err != nil {
		return err
	}
	if err := fc.expr(t.R); err != nil {
		return err
	}
	fc.emit(op)
	return nil
}

func (fc *funcCompiler) logicalExpr(t *ast.LogicalExpr) error {
	if err := fc.expr(t.L); err != nil {
		return err
	}
	fc.emit(OpDup)
	var shortcut int
	if t.Op == "&&" {
		shortcut = fc.emit(OpJumpIfFalse, 0)
	} else {
		shortcut = fc.emit(OpJumpIfTrue, 0)
	}
	fc.emit(OpPop)
	if err := fc.expr(t.R); err != nil {
		return err
	}
	fc.patch(shortcut)
	return nil
}

func (fc *funcCompiler) assignExpr(t *ast.AssignExpr) error {
	if t.Op == "=" {
		return fc.plainAssign(t)
	}
	binop, ok := binOps[t.Op[:len(t.Op)-1]]
	if !ok {
		return fc.errf(t.P, "unsupported assignment operator %q", t.Op)
	}
	switch target := t.Target.(type) {
	case *ast.Ident:
		fc.loadVar(target.P, target.Name)
		if err := fc.expr(t.Value); err != nil {
			return err
		}
		fc.emit(binop)
		return fc.storeVar(target.P, target.Name)
	case *ast.MemberExpr:
		if err := fc.expr(target.Obj); err != nil {
			return err
		}
		fc.emit(OpDup)
		loadFB := fc.addSite(target.P, ic.AccessLoad, target.Name)
		fc.emit(OpLoadNamed, fc.nameIdx(target.Name), loadFB)
		if err := fc.expr(t.Value); err != nil {
			return err
		}
		fc.emit(binop)
		storeFB := fc.addSite(target.P, ic.AccessStore, target.Name)
		fc.emit(OpStoreNamed, fc.nameIdx(target.Name), storeFB)
		return nil
	case *ast.IndexExpr:
		if err := fc.expr(target.Obj); err != nil {
			return err
		}
		if err := fc.expr(target.Index); err != nil {
			return err
		}
		fc.emit(OpDup2)
		fc.emit(OpLoadKeyed, fc.addSite(target.P, ic.AccessKeyedLoad, ""))
		if err := fc.expr(t.Value); err != nil {
			return err
		}
		fc.emit(binop)
		fc.emit(OpStoreKeyed, fc.addSite(target.P, ic.AccessKeyedStore, ""))
		return nil
	default:
		return fc.errf(t.P, "invalid assignment target %T", t.Target)
	}
}

func (fc *funcCompiler) plainAssign(t *ast.AssignExpr) error {
	switch target := t.Target.(type) {
	case *ast.Ident:
		if err := fc.expr(t.Value); err != nil {
			return err
		}
		return fc.storeVar(target.P, target.Name)
	case *ast.MemberExpr:
		if err := fc.expr(target.Obj); err != nil {
			return err
		}
		if err := fc.expr(t.Value); err != nil {
			return err
		}
		fb := fc.addSite(target.P, ic.AccessStore, target.Name)
		fc.emit(OpStoreNamed, fc.nameIdx(target.Name), fb)
		return nil
	case *ast.IndexExpr:
		if err := fc.expr(target.Obj); err != nil {
			return err
		}
		if err := fc.expr(target.Index); err != nil {
			return err
		}
		if err := fc.expr(t.Value); err != nil {
			return err
		}
		fc.emit(OpStoreKeyed, fc.addSite(target.P, ic.AccessKeyedStore, ""))
		return nil
	default:
		return fc.errf(t.P, "invalid assignment target %T", t.Target)
	}
}
