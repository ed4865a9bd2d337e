package objects

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

var update = flag.Bool("update", false, "rewrite testdata/value_semantics.golden")

// TestValueSize pins the two-word layout DESIGN.md describes: every push,
// pop, local and slot access copies a Value.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 16", got)
	}
	var zero Value
	if !zero.IsUndefined() || zero.Kind() != KindUndefined || !StrictEquals(zero, Undefined()) {
		t.Fatal("the zero Value must be undefined")
	}
}

type namedValue struct {
	name string
	v    Value
}

// semanticsValues is the value set TestValueSemantics crosses with every
// Value method: each kind, the number edge cases (NaN, ±0, ±Inf, values
// whose bit patterns end in a kind tag, every range of Number::toString),
// strings built each way the engine builds them, and the strings whose
// StringToNumber verdict differs between a naive parser and ECMAScript.
func semanticsValues() ([]namedValue, map[*Object]string) {
	s := NewSpace(1)
	hc := s.NewRootHC(nil, Creator{Builtin: "t"})
	plain, plain2 := s.NewObject(hc), s.NewObject(hc)
	fn := s.NewFunction(hc, &FunctionData{Name: "f"})
	arr := s.NewArray(hc, []Value{Num(1), Str("x"), Null()})
	empty := s.NewArray(hc, nil)
	five := s.NewArray(hc, []Value{Num(5)})
	objs := map[*Object]string{plain: "plain", plain2: "plain2", fn: "fn", arr: "arr", empty: "empty", five: "five"}

	hello := "hello world"
	abc := "abc"
	ab, c := "ab", "c"
	values := []namedValue{
		{"zero Value", Value{}},
		{"undefined", Undefined()},
		{"null", Null()},
		{"true", Bool(true)},
		{"false", Bool(false)},
		{"0", Num(0)},
		{"-0", Num(math.Copysign(0, -1))},
		{"1", Num(1)},
		{"-1.5", Num(-1.5)},
		{"5", Num(5)},
		{"16", Num(16)},
		{"-16", Num(-16)},
		{"1000", Num(1000)},
		{"NaN", Num(math.NaN())},
		{"+Inf", Num(math.Inf(1))},
		{"-Inf", Num(math.Inf(-1))},
		{"2^31", Num(1 << 31)},
		{"2^53", Num(1 << 53)},
		{"1234567.5", Num(1234567.5)},
		{"1e-5", Num(1e-5)},
		{"1e-6", Num(1e-6)},
		{"1e-7", Num(1e-7)},
		{"1.5e-7", Num(1.5e-7)},
		{"(1/3)*1e-5", Num((1.0 / 3) * 1e-5)},
		{"1e20", Num(1e20)},
		{"1e21", Num(1e21)},
		{"-1.25e25", Num(-1.25e25)},
		{"123e-20", Num(123e-20)},
		{"MaxFloat64", Num(math.MaxFloat64)},
		{"bits 1", Num(math.Float64frombits(1))},
		{"bits 4", Num(math.Float64frombits(4))},
		{"bits 5", Num(math.Float64frombits(5))},
		{`""`, Str("")},
		{`"abc"`, Str(abc)},
		{`"ab"+"c"`, Str(ab + c)},
		{`"hello world"[6:]`, Str(hello[6:])},
		{`"abc"[3:]`, Str(abc[3:])},
		{`"hello world"[11:]`, Str(hello[len(hello):])},
		{`"0"`, Str("0")},
		{`"-0"`, Str("-0")},
		{`"1"`, Str("1")},
		{`"5"`, Str("5")},
		{`" 42 "`, Str(" 42 ")},
		{`"\t\n7\r"`, Str("\t\n7\r")},
		{`"3.25"`, Str("3.25")},
		{`".5"`, Str(".5")},
		{`"5."`, Str("5.")},
		{`"+5"`, Str("+5")},
		{`"1e3"`, Str("1e3")},
		{`"1e"`, Str("1e")},
		{`"0x10"`, Str("0x10")},
		{`"0X1f"`, Str("0X1f")},
		{`"-0x10"`, Str("-0x10")},
		{`"+0x10"`, Str("+0x10")},
		{`"0x"`, Str("0x")},
		{`"0b101"`, Str("0b101")},
		{`"0o17"`, Str("0o17")},
		{`"017"`, Str("017")},
		{`"1_000"`, Str("1_000")},
		{`"0x1p4"`, Str("0x1p4")},
		{`"inf"`, Str("inf")},
		{`"infinity"`, Str("infinity")},
		{`"Infinity"`, Str("Infinity")},
		{`"-Infinity"`, Str("-Infinity")},
		{`"+Infinity"`, Str("+Infinity")},
		{`"NaN"`, Str("NaN")},
		{`"\uFEFF5"`, Str("\uFEFF5")},
		{`"\u00A05"`, Str("\u00A05")},
		{`"\u20285"`, Str("\u20285")},
		{`"\u00855"`, Str("\u00855")},
		{`"bogus"`, Str("bogus")},
		{`"true"`, Str("true")},
		{`"[object Object]"`, Str("[object Object]")},
		{`"1,x,"`, Str("1,x,")},
		{"plain", Obj(plain)},
		{"plain2", Obj(plain2)},
		{"fn", Obj(fn)},
		{"arr [1,'x',null]", Obj(arr)},
		{"empty []", Obj(empty)},
		{"five [5]", Obj(five)},
		{"Obj(nil)", Obj(nil)},
	}
	return values, objs
}

func fmtNum(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func bit(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// renderSemantics prints one block per value (every unary method) and the
// StrictEquals and LooseEquals matrices over all pairs.
func renderSemantics() string {
	values, objs := semanticsValues()
	var b strings.Builder
	for i, nv := range values {
		v := nv.v
		obj := "<nil>"
		if o := v.Obj(); o != nil {
			obj = objs[o]
		}
		var admits []string
		for st := SlotTypeNone; st <= SlotTypeBottom; st++ {
			if st.Admits(v) {
				admits = append(admits, st.String())
			}
		}
		fmt.Fprintf(&b, "[%d] %s\n", i, nv.name)
		fmt.Fprintf(&b, "  Kind      %s\n", v.Kind())
		fmt.Fprintf(&b, "  Is        undef=%s null=%s nullish=%s bool=%s num=%s str=%s obj=%s callable=%s\n",
			bit(v.IsUndefined()), bit(v.IsNull()), bit(v.IsNullish()), bit(v.IsBool()),
			bit(v.IsNumber()), bit(v.IsString()), bit(v.IsObject()), bit(v.IsCallable()))
		fmt.Fprintf(&b, "  Accessors Bool=%t Num=%s Str=%q Obj=%s\n", v.Bool(), fmtNum(v.Num()), v.Str(), obj)
		fmt.Fprintf(&b, "  TypeOf    %s\n", v.TypeOf())
		fmt.Fprintf(&b, "  Truthy    %t\n", v.Truthy())
		fmt.Fprintf(&b, "  ToNumber  %s\n", fmtNum(v.ToNumber()))
		fmt.Fprintf(&b, "  ToString  %q\n", v.ToString())
		fmt.Fprintf(&b, "  SlotType  %s admits=%s\n", TypeOfValue(v), strings.Join(admits, ","))
	}
	for _, m := range []struct {
		name string
		eq   func(a, b Value) bool
	}{{"StrictEquals", StrictEquals}, {"LooseEquals", LooseEquals}} {
		fmt.Fprintf(&b, "%s (row [i], one column per value in order; 1 = equal)\n", m.name)
		for i, x := range values {
			row := make([]byte, len(values))
			for j, y := range values {
				row[j] = bit(m.eq(x.v, y.v))[0]
			}
			fmt.Fprintf(&b, "  [%2d] %s\n", i, row)
		}
	}
	return b.String()
}

// TestValueSemantics crosses every kind of value with every Value method
// and compares the result with a committed table. The table was captured
// from the original five-field Value, so the two-word layout is checked
// against it cell by cell. Regenerate deliberately with
//
//	go test ./internal/objects -run TestValueSemantics -update
func TestValueSemantics(t *testing.T) {
	const golden = "testdata/value_semantics.golden"
	got := renderSemantics()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := string(data)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}
