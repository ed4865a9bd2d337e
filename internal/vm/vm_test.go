package vm

import (
	"strings"
	"testing"

	"ricjs/internal/bytecode"
	"ricjs/internal/objects"
	"ricjs/internal/parser"
)

// run executes a script on a fresh VM and returns the VM and the printed
// output.
func run(t *testing.T, src string) (*VM, string) {
	t.Helper()
	vm, out, err := tryRun(src)
	if err != nil {
		t.Fatalf("run: %v\noutput so far: %s", err, out)
	}
	return vm, out
}

func tryRun(src string) (*VM, string, error) {
	prog, err := parser.Parse("test.js", src)
	if err != nil {
		return nil, "", err
	}
	bc, err := bytecode.Compile(prog)
	if err != nil {
		return nil, "", err
	}
	v := New(Options{AddressSeed: 1})
	_, err = v.RunProgram(bc)
	return v, v.Output(), err
}

func expectOut(t *testing.T, src, want string) {
	t.Helper()
	_, out := run(t, src)
	if out != want {
		t.Fatalf("output = %q, want %q\nsource: %s", out, want, src)
	}
}

func TestArithmetic(t *testing.T) {
	expectOut(t, "print(1 + 2 * 3, 10 / 4, 7 % 3, -5);", "7 2.5 1 -5\n")
	expectOut(t, "print(1 + '2', 'a' + 1, 'x' + {});", "12 a1 x[object Object]\n")
	expectOut(t, "print(5 & 3, 5 | 3, 5 ^ 3, 1 << 4, -8 >> 1);", "1 7 6 16 -4\n")
	expectOut(t, "print(3 < 4, 'b' < 'a', 4 <= 4, 5 > 1, 2 >= 3);", "true false true true false\n")
}

func TestEqualityAndLogic(t *testing.T) {
	expectOut(t, "print(1 == '1', 1 === '1', null == undefined, null === undefined);", "true false true false\n")
	expectOut(t, "print(true && 'yes', false && 'yes', 0 || 'dflt', 'v' || 'dflt');", "yes false dflt v\n")
	expectOut(t, "print(1 ? 'a' : 'b', 0 ? 'a' : 'b');", "a b\n")
	expectOut(t, "print(!0, !'', !'x', typeof 1, typeof 'a', typeof undefined, typeof {});", "true true false number string undefined object\n")
}

func TestVariablesAndScope(t *testing.T) {
	expectOut(t, "var x = 1; x = x + 2; print(x);", "3\n")
	expectOut(t, `
		function f() { var local = 10; return local * 2; }
		print(f());
	`, "20\n")
	// Globals visible in functions.
	expectOut(t, "var g = 5; function f() { return g + 1; } print(f());", "6\n")
	// Assignment to undeclared creates a global.
	expectOut(t, "function f() { leaked = 9; } f(); print(leaked);", "9\n")
}

func TestClosures(t *testing.T) {
	expectOut(t, `
		function counter() {
			var n = 0;
			return function () { n = n + 1; return n; };
		}
		var c1 = counter();
		var c2 = counter();
		print(c1(), c1(), c1(), c2());
	`, "1 2 3 1\n")
	// Deep capture across two levels.
	expectOut(t, `
		function a(x) {
			return function b(y) {
				return function c() { return x + y; };
			};
		}
		print(a(10)(4)());
	`, "14\n")
	// Captured parameter mutation.
	expectOut(t, `
		function make(start) {
			return function () { start = start + 1; return start; };
		}
		var inc = make(100);
		inc(); print(inc());
	`, "102\n")
}

func TestConstructorsAndPrototypes(t *testing.T) {
	expectOut(t, `
		function Point(x, y) { this.x = x; this.y = y; }
		Point.prototype.norm2 = function () { return this.x * this.x + this.y * this.y; };
		var p1 = new Point(3, 4);
		var p2 = new Point(1, 2);
		print(p1.norm2(), p2.norm2(), p1.x, p2.y);
	`, "25 5 3 2\n")
	// Both instances share a hidden class.
	vm, _ := run(t, `
		function P(a) { this.a = a; }
		var o1 = new P(1);
		var o2 = new P(2);
		check = (o1.a + o2.a);
	`)
	v, _ := vm.Global().GetNamed("check")
	if v.Num() != 3 {
		t.Fatalf("check = %v", v)
	}
}

func TestPrototypeChainLookup(t *testing.T) {
	expectOut(t, `
		function Base() {}
		Base.prototype.kind = function () { return 'base'; };
		function Derived() {}
		Derived.prototype = Object.create(Base.prototype);
		Derived.prototype.name = function () { return 'derived'; };
		var d = new Derived();
		print(d.name(), d.kind());
		print(d instanceof Derived, d instanceof Base);
	`, "derived base\ntrue true\n")
}

func TestObjectAndArrayLiterals(t *testing.T) {
	expectOut(t, `
		var o = {a: 1, b: 'two', c: {d: 3}};
		print(o.a, o.b, o.c.d);
		var arr = [1, 2, 3];
		print(arr[0], arr[2], arr.length);
		arr[5] = 9;
		print(arr.length, arr[4], arr[5]);
	`, "1 two 3\n1 3 3\n6 undefined 9\n")
}

func TestArrayBuiltins(t *testing.T) {
	expectOut(t, `
		var a = [3, 1, 2];
		a.push(4);
		print(a.length, a.join('-'), a.indexOf(2), a.indexOf(99));
		print(a.pop(), a.length);
		var b = a.slice(1);
		print(b.join(','));
		var c = a.concat([7, 8], 9);
		print(c.join(','));
		var sum = 0;
		a.forEach(function (x) { sum += x; });
		print(sum);
		print(a.map(function (x) { return x * 10; }).join(','));
		print(Array.isArray(a), Array.isArray(1), new Array(3).length, Array(1, 2).join('+'));
	`, "4 3-1-2-4 2 -1\n4 3\n1,2\n3,1,2,7,8,9\n6\n30,10,20\ntrue false 3 1+2\n")
}

func TestStringMethods(t *testing.T) {
	expectOut(t, `
		var s = 'Hello World';
		print(s.length, s.charAt(1), s.charCodeAt(0), s.indexOf('World'));
		print(s.slice(0, 5), s.substring(6), s.toUpperCase(), s.toLowerCase());
		print('a,b,c'.split(',').length, '  x '.trim(), 'aaa'.replace('a', 'b'));
		print(s[0], s[99]);
	`, "11 e 72 6\nHello World HELLO WORLD hello world\n3 x baa\nH undefined\n")
}

func TestMathBuiltins(t *testing.T) {
	expectOut(t, `
		print(Math.floor(2.7), Math.ceil(2.1), Math.round(2.5), Math.abs(-3));
		print(Math.sqrt(16), Math.pow(2, 10), Math.min(3, 1, 2), Math.max(3, 1, 2));
		var r = Math.random();
		print(r >= 0 && r < 1);
	`, "2 3 3 3\n4 1024 1 3\ntrue\n")
}

func TestMathRandomDeterministic(t *testing.T) {
	_, out1 := run(t, "print(Math.random(), Math.random());")
	_, out2 := run(t, "print(Math.random(), Math.random());")
	if out1 != out2 {
		t.Fatalf("Math.random must be deterministic across runs: %q vs %q", out1, out2)
	}
}

func TestControlFlow(t *testing.T) {
	expectOut(t, `
		var s = '';
		for (var i = 0; i < 5; i++) {
			if (i == 2) continue;
			if (i == 4) break;
			s += i;
		}
		print(s);
		var n = 0;
		while (n < 3) n++;
		print(n);
		var m = 10;
		do { m--; } while (m > 7);
		print(m);
	`, "013\n3\n7\n")
}

func TestForIn(t *testing.T) {
	expectOut(t, `
		var o = {a: 1, b: 2, c: 3};
		var keys = '';
		for (var k in o) keys += k;
		print(keys);
		var arr = [10, 20];
		var idx = '';
		for (var j in arr) idx += j;
		print(idx);
	`, "abc\n01\n")
}

func TestIncDec(t *testing.T) {
	expectOut(t, `
		var i = 5;
		print(i++, i, ++i, i--, --i);
		var o = {n: 1};
		print(o.n++, o.n, ++o.n);
		var a = [1];
		print(a[0]++, a[0], --a[0]);
	`, "5 6 7 7 5\n1 2 3\n1 2 1\n")
}

func TestCompoundAssign(t *testing.T) {
	expectOut(t, `
		var x = 10;
		x += 5; x -= 3; x *= 2; x /= 4; x %= 4;
		print(x);
		var o = {v: 1};
		o.v += 10;
		print(o.v);
		var a = [2];
		a[0] *= 3;
		print(a[0]);
	`, "2\n11\n6\n")
}

func TestThisBinding(t *testing.T) {
	expectOut(t, `
		var obj = {
			name: 'obj',
			who: function () { return this.name; }
		};
		print(obj.who());
		var f = obj.who;
		print(f.call({name: 'other'}), f.apply({name: 'third'}, []));
	`, "obj\nother third\n")
}

func TestDeleteAndIn(t *testing.T) {
	expectOut(t, `
		var o = {a: 1, b: 2};
		print('a' in o, 'z' in o);
		print(delete o.a, 'a' in o, o.b);
		print(o.hasOwnProperty('b'), o.hasOwnProperty('a'));
		print(delete 5);
	`, "true false\ntrue false 2\ntrue false\ntrue\n")
}

func TestTryCatchThrow(t *testing.T) {
	expectOut(t, `
		function boom() { throw 'bang'; }
		try { boom(); print('not reached'); } catch (e) { print('caught', e); }
		print('after');
	`, "caught bang\nafter\n")
	// Finally runs after both paths.
	expectOut(t, `
		try { print('body'); } catch (e) { print('no'); } finally { print('fin'); }
		try { throw 1; } catch (e2) { print('yes'); } finally { print('fin2'); }
	`, "body\nfin\nyes\nfin2\n")
	// Runtime errors are catchable.
	expectOut(t, `
		var u;
		try { u.x; } catch (e) { print('te'); }
		try { u(); } catch (e) { print('nf'); }
	`, "te\nnf\n")
}

func TestUncaughtThrowSurfaces(t *testing.T) {
	_, _, err := tryRun("throw 'kaboom';")
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v", err)
	}
}

func TestHoistedFunctions(t *testing.T) {
	expectOut(t, `
		print(add(2, 3));
		function add(a, b) { return a + b; }
		function outer() {
			return inner() + 1;
			function inner() { return 10; }
		}
		print(outer());
	`, "5\n11\n")
}

func TestRecursion(t *testing.T) {
	expectOut(t, `
		function fib(n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
		print(fib(12));
	`, "144\n")
}

func TestDeepRecursionGuard(t *testing.T) {
	_, _, err := tryRun("function f() { return f(); } f();")
	if err == nil || !strings.Contains(err.Error(), "call depth") {
		t.Fatalf("err = %v", err)
	}
}

func TestObjectKeysAndCreate(t *testing.T) {
	expectOut(t, `
		var o = Object.create(null);
		o.only = 1;
		print(Object.keys(o).join(','));
		var proto = {inherited: 7};
		var child = Object.create(proto);
		print(child.inherited, Object.keys(child).length);
	`, "only\n7 0\n")
}

func TestWindowAliasesGlobal(t *testing.T) {
	expectOut(t, `
		var libName = 'mylib';
		print(window.libName);
		window.viaWindow = 42;
		print(viaWindow);
	`, "mylib\n42\n")
}

func TestICHitAndMissCounters(t *testing.T) {
	vm, _ := run(t, `
		function get(o) { return o.v; }
		var a = {v: 1};
		get(a); get(a); get(a);
	`)
	s := vm.Prof.Snapshot()
	if s.ICMisses == 0 {
		t.Fatal("expected IC misses during initialization")
	}
	if s.ICHits == 0 {
		t.Fatal("expected IC hits on repeated monomorphic access")
	}
	if s.InstrICMiss == 0 || s.InstrRest == 0 {
		t.Fatal("expected instructions in both categories")
	}
}

func TestMonomorphicSiteMissesOnce(t *testing.T) {
	vm, _ := run(t, `
		function get(o) { return o.v; }
		var a = {v: 1};
		var i;
		for (i = 0; i < 50; i++) get(a);
	`)
	s := vm.Prof.Snapshot()
	// The get site must have missed exactly once for hidden class {v}.
	// Other sites (store v, global loads) add more misses; check that
	// hits dominate heavily.
	if s.ICHits < 45 {
		t.Fatalf("hits = %d, expected >= 45", s.ICHits)
	}
}

func TestPolymorphicAndMegamorphicSites(t *testing.T) {
	vm, _ := run(t, `
		function get(o) { return o.v; }
		var shapes = [
			{v: 1}, {a: 1, v: 2}, {b: 1, v: 3}, {c: 1, v: 4}, {d: 1, v: 5}, {e: 1, v: 6}
		];
		var total = 0;
		for (var r = 0; r < 3; r++)
			for (var i = 0; i < shapes.length; i++)
				total += get(shapes[i]);
		print(total);
	`)
	_ = vm
}

func TestHiddenClassSharingAcrossInstances(t *testing.T) {
	vm, _ := run(t, `
		function P(x) { this.x = x; this.y = x; }
		var list = [];
		for (var i = 0; i < 10; i++) list.push(new P(i));
	`)
	s := vm.Prof.Snapshot()
	// One ctor root + two transitions = 3 hidden classes for P instances;
	// allow a few more for the function prototype machinery, but 10
	// instances must not create 10 shapes.
	if s.HCCreated > 8 {
		t.Fatalf("HCCreated = %d, hidden classes are not being shared", s.HCCreated)
	}
}

func TestDictionaryModeBypassesIC(t *testing.T) {
	vm, _ := run(t, `
		var o = {a: 1, b: 2};
		delete o.a;
		var x = 0;
		for (var i = 0; i < 20; i++) x += o.b;
		print(x);
	`)
	if !strings.Contains(vm.Output(), "40") {
		t.Fatalf("output = %q", vm.Output())
	}
}

func TestAddressesDifferAcrossVMs(t *testing.T) {
	mk := func() *VM {
		prog, _ := parser.Parse("t.js", "var o = {p: 1};")
		bc, _ := bytecode.Compile(prog)
		v := New(Options{}) // fresh seed each time
		if _, err := v.RunProgram(bc); err != nil {
			t.Fatal(err)
		}
		return v
	}
	v1, v2 := mk(), mk()
	g1, _ := v1.Global().GetNamed("o")
	g2, _ := v2.Global().GetNamed("o")
	if g1.Obj().HC().Addr() == g2.Obj().HC().Addr() {
		t.Fatal("hidden class addresses must differ across engine instances")
	}
}

func TestVectorsAndRegistrationSlab(t *testing.T) {
	vm, _ := run(t, "function f(o) { return o.p; } f({p: 1});")
	if len(vm.Vectors()) < 2 {
		t.Fatalf("vectors = %d", len(vm.Vectors()))
	}
	slab := vm.Registrations()[0].Slab
	found := false
	for _, v := range vm.Vectors() {
		for i := range v.Slots {
			for j := range slab {
				if v.Slots[i].Name == "p" && &slab[j] == &v.Slots[i] {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("the registration slab must hold the vectors' slots")
	}
}

func TestBuiltinsRegistered(t *testing.T) {
	vm := New(Options{AddressSeed: 1})
	names := map[string]bool{}
	for _, b := range vm.Builtins() {
		names[b.Name] = true
		if b.HC == nil {
			t.Fatalf("builtin %s has nil HC", b.Name)
		}
	}
	for _, want := range []string{"(global)", "Object.prototype", "Array.prototype",
		"Function.prototype", "EmptyObject", "Array", "Function", "FunctionPrototype", "Math", "console"} {
		if !names[want] {
			t.Errorf("builtin %s not registered", want)
		}
	}
	if len(vm.Roots()) == 0 {
		t.Error("no root hidden classes recorded")
	}
}

func TestStartupProfilingExcluded(t *testing.T) {
	vm := New(Options{AddressSeed: 1})
	if s := vm.Prof.Snapshot(); s.TotalInstr() != 0 || s.HCCreated != 0 {
		t.Fatalf("profiling must reset after startup, got %+v", s)
	}
}

func TestConsoleLog(t *testing.T) {
	expectOut(t, "console.log('a', 1); console.error('e'); console.warn('w');", "a 1\ne\nw\n")
}

func TestNewWithReturnObject(t *testing.T) {
	expectOut(t, `
		function F() { return {custom: true}; }
		function G() { this.own = 1; return 5; }
		print(new F().custom, new G().own);
	`, "true 1\n")
}

func TestPrototypeReassignmentInvalidatesCtorHC(t *testing.T) {
	expectOut(t, `
		function F() {}
		var a = new F();
		F.prototype = {tag: 'new'};
		var b = new F();
		print(a.tag, b.tag);
	`, "undefined new\n")
}

func TestGlobalFunctions(t *testing.T) {
	expectOut(t, `
		print(parseInt('42.9'), parseFloat('2.5'), isNaN('x'), isNaN(1));
		print(String(12), Number('8') + 1, new Object().toString());
	`, "42 2.5 true false\n12 9 [object Object]\n")
}

// compileFor compiles src under the script name, failing the test on error.
func compileFor(t *testing.T, script, src string) *bytecode.Program {
	t.Helper()
	ast, err := parser.Parse(script, src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := bytecode.Compile(ast)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// runScript executes src on v, failing the test on error.
func runScript(t *testing.T, v *VM, src string) {
	t.Helper()
	if _, err := v.RunProgram(compileFor(t, "test.js", src)); err != nil {
		t.Fatalf("run %q: %v", src, err)
	}
}

// TestBadOpcodeThrows pins the dispatch loop's default case: an opcode
// outside the instruction set raises a catchable VM error, it does not
// crash the interpreter.
func TestBadOpcodeThrows(t *testing.T) {
	proto := &bytecode.FuncProto{
		Name:   "<main>",
		Script: "bad.js",
		Code:   []uint32{9999},
	}
	proto.Seal()
	_, err := New(Options{AddressSeed: 1}).RunProgram(&bytecode.Program{Script: "bad.js", Toplevel: proto})
	if err == nil || !strings.Contains(err.Error(), "bad opcode") {
		t.Fatalf("bad opcode produced %v, want a bad-opcode error", err)
	}
}

// A store observer sees every named store with the receiver in its
// post-store state — the feed the differential soundness gate runs on.
func TestStoreObserverSeesConstructorStores(t *testing.T) {
	var seen int
	v := New(Options{AddressSeed: 1, StoreObserver: func(o *objects.Object) { seen++ }})
	prog := compileFor(t, "lib.js", `
		function Point(x, y) { this.x = x; this.y = y; }
		var a = new Point(1, 2);
		var b = new Point(3, 4);
		a.x = 9;
	`)
	if _, err := v.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	// 2 constructors × 2 field stores + 1 reassignment + global/prototype
	// bookkeeping stores; the exact total would over-pin implementation
	// details, but the five script-visible stores are a hard floor.
	if seen < 5 {
		t.Errorf("observer saw %d stores, want >= 5", seen)
	}
}
