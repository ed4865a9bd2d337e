package objects

// NativeFunc is the signature of builtin functions implemented in Go. rt
// is the engine making the call (the VM passes itself), so a native
// closes over no engine and one function value serves every engine
// instantiated from the same builtin template.
type NativeFunc func(rt any, this Value, args []Value) (Value, error)

// FunctionData carries the callable payload of a function object.
//
// Per the paper's Figure 2, a function object owns a Constructor Hidden
// Class: the initial (empty-layout) hidden class assigned to objects the
// function constructs with `new`. It is created lazily at the first
// construction, keyed to the function's declaration site, and invalidated
// if the function's prototype property is reassigned.
type FunctionData struct {
	// Name is the function's name, or "" for anonymous functions.
	Name string

	// Native implements builtin functions; nil for JavaScript functions.
	Native NativeFunc

	// Code points at the compiled function (a *bytecode.FuncProto). It is
	// typed loosely so the object model stays independent of the bytecode
	// format; the VM owns the assertion.
	Code any

	// Ctx is the closure environment captured at MakeClosure time.
	Ctx *Context

	// CtorHC is the cached Constructor Hidden Class, nil until the first
	// `new` of this function (or after prototype reassignment).
	CtorHC *HiddenClass
}

// Context is a closure environment: a chain of frames holding the
// variables captured by nested functions.
type Context struct {
	// Parent is the enclosing environment, nil at function nesting depth 0.
	Parent *Context
	// Slots holds the captured variables.
	Slots []Value
}

// NewContext allocates a closure environment with n slots chained to a
// parent environment.
func NewContext(parent *Context, n int) *Context {
	return &Context{Parent: parent, Slots: make([]Value, n)}
}

// At returns the context frame depth hops up the chain.
func (c *Context) At(depth int) *Context {
	for ; depth > 0; depth-- {
		c = c.Parent
	}
	return c
}
