// Package objects implements the engine's object model: JavaScript values,
// heap objects with in-object property slots, and V8-style hidden classes
// with object-layout tables, transition tables and prototype pointers
// (paper §2.2). It also provides the simulated address space that makes
// hidden-class addresses context-dependent across engine instances, which
// is the property RIC's validation machinery exists to cope with.
package objects

import (
	"math"
	"math/big"
	"strconv"
	"strings"
	"unsafe"
)

// Kind enumerates the runtime types of a Value.
type Kind uint8

const (
	// KindUndefined is the JavaScript undefined value.
	KindUndefined Kind = iota
	// KindNull is the JavaScript null value.
	KindNull
	// KindBool is a boolean.
	KindBool
	// KindNumber is an IEEE-754 double, like every JavaScript number.
	KindNumber
	// KindString is an immutable string.
	KindString
	// KindObject is a reference to a heap Object.
	KindObject
)

// String returns the typeof-style name of the kind.
func (k Kind) String() string {
	switch k {
	case KindUndefined:
		return "undefined"
	case KindNull:
		return "null"
	case KindBool:
		return "boolean"
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	case KindObject:
		return "object"
	default:
		return "invalid"
	}
}

// Value is a JavaScript value. The zero Value is undefined.
//
// A Value is two words: a pointer p and a payload u (DESIGN.md, "Value
// layout"). Numbers carry the private numberSentinel address in p and
// their IEEE-754 bits in u. Every other kind keeps its Kind in the low
// byte of u: strings put their data pointer in p (nil when empty) and
// their length in the upper bits of u, objects put the *Object in p, and
// booleans put the payload in bit 8 of u with p nil. The blank
// zero-length func array makes Value incomparable: == would compare
// string data pointers rather than contents, so equality goes through
// StrictEquals.
type Value struct {
	_ [0]func()
	p unsafe.Pointer
	u uint64
}

// numberSentinel is the byte whose address marks a number. Nothing else
// may put its address in a Value: strings point at their own bytes and
// objects at their own Object.
var numberSentinel byte

// numTag returns the p of every number; comparing with it is one
// pointer compare against a link-time constant.
func numTag() unsafe.Pointer { return unsafe.Pointer(&numberSentinel) }

const (
	kindMask  = 0xff
	kindShift = 8
	boolTrue  = uint64(KindBool) | 1<<kindShift
)

// Undefined returns the undefined value.
func Undefined() Value { return Value{} }

// Null returns the null value.
func Null() Value { return Value{u: uint64(KindNull)} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{u: boolTrue}
	}
	return Value{u: uint64(KindBool)}
}

// Num returns a number value.
func Num(f float64) Value { return Value{p: numTag(), u: math.Float64bits(f)} }

// Str returns a string value.
func Str(s string) Value {
	if len(s) == 0 {
		return Value{u: uint64(KindString)}
	}
	return Value{p: unsafe.Pointer(unsafe.StringData(s)), u: uint64(len(s))<<kindShift | uint64(KindString)}
}

// Obj returns an object reference value. A nil object yields null.
func Obj(o *Object) Value {
	if o == nil {
		return Null()
	}
	return Value{p: unsafe.Pointer(o), u: uint64(KindObject)}
}

// Kind returns the runtime type tag of the value.
func (v Value) Kind() Kind {
	if v.p == numTag() {
		return KindNumber
	}
	return Kind(v.u & kindMask)
}

// IsUndefined reports whether the value is undefined.
func (v Value) IsUndefined() bool { return v.u == uint64(KindUndefined) && v.p == nil }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.u == uint64(KindNull) && v.p == nil }

// IsNullish reports whether the value is null or undefined.
func (v Value) IsNullish() bool { return v.u <= uint64(KindNull) && v.p == nil }

// IsBool reports whether the value is a boolean.
func (v Value) IsBool() bool { return v.u&kindMask == uint64(KindBool) && v.p == nil }

// IsNumber reports whether the value is a number.
func (v Value) IsNumber() bool { return v.p == numTag() }

// IsString reports whether the value is a string.
func (v Value) IsString() bool { return v.u&kindMask == uint64(KindString) && v.p != numTag() }

// IsObject reports whether the value references a heap object.
func (v Value) IsObject() bool { return v.u == uint64(KindObject) && v.p != numTag() }

// Bool returns the boolean payload; false when the value is not a boolean.
func (v Value) Bool() bool { return v.u == boolTrue && v.p == nil }

// Num returns the number payload; 0 when the value is not a number.
func (v Value) Num() float64 {
	if v.p != numTag() {
		return 0
	}
	return math.Float64frombits(v.u)
}

// Str returns the string payload; "" when the value is not a string.
func (v Value) Str() string {
	if !v.IsString() {
		return ""
	}
	return unsafe.String((*byte)(v.p), int(v.u>>kindShift))
}

// Obj returns the object payload, or nil when the value is not an object.
func (v Value) Obj() *Object {
	if !v.IsObject() {
		return nil
	}
	return (*Object)(v.p)
}

// IsCallable reports whether the value is a function object.
func (v Value) IsCallable() bool {
	o := v.Obj()
	return o != nil && o.fn != nil
}

// Truthy implements JavaScript ToBoolean.
func (v Value) Truthy() bool {
	switch v.Kind() {
	case KindUndefined, KindNull:
		return false
	case KindBool:
		return v.u == boolTrue
	case KindNumber:
		f := math.Float64frombits(v.u)
		return f != 0 && !math.IsNaN(f)
	case KindString:
		return v.p != nil
	default:
		return true
	}
}

// TypeOf implements the JavaScript typeof operator.
func (v Value) TypeOf() string {
	switch v.Kind() {
	case KindUndefined:
		return "undefined"
	case KindNull:
		return "object" // yes, really
	case KindBool:
		return "boolean"
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	default:
		if v.IsCallable() {
			return "function"
		}
		return "object"
	}
}

// ToNumber implements JavaScript ToNumber for primitive values; objects
// convert through their string representation. Numbers, the common case
// in arithmetic, take one pointer compare.
func (v Value) ToNumber() float64 {
	if v.p == numTag() {
		return math.Float64frombits(v.u)
	}
	return v.toNumberSlow()
}

func (v Value) toNumberSlow() float64 {
	switch v.Kind() {
	case KindUndefined:
		return math.NaN()
	case KindNull:
		return 0
	case KindBool:
		if v.u == boolTrue {
			return 1
		}
		return 0
	case KindString:
		return stringToNumber(v.Str())
	default:
		return stringToNumber(v.ToString())
	}
}

// isJSSpace reports whether r is ECMAScript WhiteSpace or LineTerminator,
// the code points stringToNumber trims.
func isJSSpace(r rune) bool {
	switch r {
	case '\t', '\n', '\v', '\f', '\r', ' ', '\u00a0', '\u1680', '\u2028', '\u2029', '\u202f', '\u205f', '\u3000', '\ufeff':
		return true
	}
	return r >= '\u2000' && r <= '\u200a'
}

// stringToNumber implements ECMAScript StringToNumber: surrounding
// whitespace is trimmed, the empty string is 0, and the rest must be a
// signed decimal literal, a signed Infinity or an unsigned 0b/0o/0x
// integer. Anything else, including Go-only forms such as "inf",
// "1_000" and hex floats, is NaN.
func stringToNumber(s string) float64 {
	s = strings.TrimFunc(s, isJSSpace)
	if s == "" {
		return 0
	}
	if len(s) > 2 && s[0] == '0' {
		base := 0
		switch s[1] {
		case 'x', 'X':
			base = 16
		case 'o', 'O':
			base = 8
		case 'b', 'B':
			base = 2
		}
		if base != 0 {
			return parseRadixInt(s[2:], base)
		}
	}
	body := s
	if body[0] == '+' || body[0] == '-' {
		body = body[1:]
	}
	if body == "Infinity" {
		if s[0] == '-' {
			return math.Inf(-1)
		}
		return math.Inf(1)
	}
	if !isDecimalLiteral(body) {
		return math.NaN()
	}
	// The grammar check admits only forms ParseFloat reads exactly;
	// out-of-range exponents come back as ±Inf or 0 with ErrRange, which
	// is the JavaScript result.
	f, _ := strconv.ParseFloat(s, 64)
	return f
}

// isDecimalLiteral reports whether s is an unsigned StrUnsignedDecimalLiteral
// other than Infinity: digits with an optional fraction, or a fraction
// alone, then an optional exponent.
func isDecimalLiteral(s string) bool {
	i, digits := 0, 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
		digits++
	}
	if i < len(s) && s[i] == '.' {
		i++
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			i++
			digits++
		}
	}
	if digits == 0 {
		return false
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		start := i
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			i++
		}
		if i == start {
			return false
		}
	}
	return i == len(s)
}

// parseRadixInt reads the digits of a 0b/0o/0x literal, rounding to the
// nearest double as JavaScript does. No sign or separator is allowed.
func parseRadixInt(digits string, base int) float64 {
	n, ok := new(big.Int).SetString(digits, base)
	if !ok || digits[0] == '+' || digits[0] == '-' {
		return math.NaN()
	}
	f, _ := new(big.Float).SetInt(n).Float64()
	return f
}

// FormatNumber implements ECMAScript Number::toString: the shortest
// digits that round-trip, positional from 1e-6 up to (but excluding)
// 1e21 and scientific outside that range, with an unpadded exponent. -0
// prints as 0.
func FormatNumber(f float64) string {
	switch abs := math.Abs(f); {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "Infinity"
	case math.IsInf(f, -1):
		return "-Infinity"
	case f == 0:
		return "0"
	case f == math.Trunc(f) && abs < 1e15:
		return strconv.FormatInt(int64(f), 10)
	case abs >= 1e-6 && abs < 1e21:
		return strconv.FormatFloat(f, 'f', -1, 64)
	}
	s := strconv.FormatFloat(f, 'e', -1, 64)
	// Go pads the exponent to two digits; JavaScript does not.
	if n := len(s); s[n-2] == '0' && (s[n-3] == '+' || s[n-3] == '-') {
		return s[:n-2] + s[n-1:]
	}
	return s
}

// ToString implements a JavaScript-flavoured ToString.
func (v Value) ToString() string {
	switch v.Kind() {
	case KindUndefined:
		return "undefined"
	case KindNull:
		return "null"
	case KindBool:
		if v.u == boolTrue {
			return "true"
		}
		return "false"
	case KindNumber:
		return FormatNumber(math.Float64frombits(v.u))
	case KindString:
		return v.Str()
	default:
		return (*Object)(v.p).describe()
	}
}

// StrictEquals implements the === operator.
func StrictEquals(a, b Value) bool {
	if a.p == numTag() || b.p == numTag() {
		// NaN !== NaN and 0 === -0 fall out of the float compare.
		return a.p == b.p && math.Float64frombits(a.u) == math.Float64frombits(b.u)
	}
	if a.u != b.u {
		// Kinds, boolean payloads or string lengths differ.
		return false
	}
	if a.p == b.p {
		// The same object, the same string bytes, or equal oddballs.
		return true
	}
	return a.u&kindMask == uint64(KindString) && a.Str() == b.Str()
}

// LooseEquals implements the == operator for the subset of coercions the
// engine's language supports: null==undefined, numeric string coercion,
// boolean-to-number coercion, and object identity.
func LooseEquals(a, b Value) bool {
	ak, bk := a.Kind(), b.Kind()
	if ak == bk {
		return StrictEquals(a, b)
	}
	switch {
	case a.IsNullish() && b.IsNullish():
		return true
	case a.IsNullish() || b.IsNullish():
		return false
	case ak == KindObject || bk == KindObject:
		// Objects compare equal to primitives through ToString, which is
		// enough for the workloads (e.g. "" + obj patterns are rare).
		if ak == KindObject {
			return LooseEquals(Str(a.ToString()), b)
		}
		return LooseEquals(a, Str(b.ToString()))
	default:
		// Remaining mixes are bool/number/string: compare as numbers.
		an, bn := a.ToNumber(), b.ToNumber()
		return an == bn
	}
}
