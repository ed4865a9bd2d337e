package objects

import "math"

// SlotType is one element of the value-type lattice the static analysis
// infers per hidden-class slot (a "typed shape"). The lattice is flat
// except for SmallInt ⊑ Float:
//
//	        ⊤ (SlotTypeNone: untyped / any value)
//	   ┌────┬──────┬───┴───┬────────┬──────────┐
//	 Float String Boolean Object NullUndef     │
//	   │                                       │
//	SmallInt                                   │
//	   └────┴──────┴───┬───┴────────┴──────────┘
//	        ⊥ (SlotTypeBottom: no value possible)
//
// SmallInt means an integral number in int32 range (the unboxable case);
// Float means any IEEE-754 number; Object means any heap object —
// which hidden class is already pinned by the shape itself, so the slot
// tag does not repeat it. SlotTypeNone doubles as "no claim": a slot the
// analysis could not type carries no tag and takes the generic path.
type SlotType uint8

const (
	// SlotTypeNone is ⊤: the slot may hold any value (equivalently, the
	// analysis makes no claim about it).
	SlotTypeNone SlotType = iota
	// SlotTypeSmallInt is an integral number representable as an int32.
	SlotTypeSmallInt
	// SlotTypeFloat is any JS number (IEEE-754 double).
	SlotTypeFloat
	// SlotTypeString is a string primitive.
	SlotTypeString
	// SlotTypeBoolean is a boolean primitive.
	SlotTypeBoolean
	// SlotTypeObject is any heap object.
	SlotTypeObject
	// SlotTypeNullUndef is null or undefined.
	SlotTypeNullUndef
	// SlotTypeBottom is ⊥: no value reaches the slot. It never appears in
	// records — it exists so Meet has a greatest lower bound.
	SlotTypeBottom

	// slotTypeCount bounds the valid wire encodings; decoders reject tags
	// at or beyond it (SlotTypeBottom is also rejected on the wire).
	slotTypeCount
)

// ValidSlotTag reports whether a wire tag is a type claim a record may
// carry: a real lattice element, not ⊤ (pointless) and not ⊥ (a lie —
// every materialized slot holds some value).
func ValidSlotTag(t SlotType) bool {
	return t > SlotTypeNone && t < SlotTypeBottom
}

func (t SlotType) String() string {
	switch t {
	case SlotTypeNone:
		return "any"
	case SlotTypeSmallInt:
		return "smallint"
	case SlotTypeFloat:
		return "float"
	case SlotTypeString:
		return "string"
	case SlotTypeBoolean:
		return "boolean"
	case SlotTypeObject:
		return "object"
	case SlotTypeNullUndef:
		return "nullundef"
	case SlotTypeBottom:
		return "⊥"
	}
	return "invalid"
}

// Leq reports t ⊑ u in the lattice.
func (t SlotType) Leq(u SlotType) bool {
	if t == SlotTypeBottom || u == SlotTypeNone {
		return true
	}
	if t == SlotTypeNone || u == SlotTypeBottom {
		return false
	}
	if t == u {
		return true
	}
	return t == SlotTypeSmallInt && u == SlotTypeFloat
}

// Join returns the least upper bound of t and u.
func (t SlotType) Join(u SlotType) SlotType {
	switch {
	case t.Leq(u):
		return u
	case u.Leq(t):
		return t
	default:
		return SlotTypeNone
	}
}

// Meet returns the greatest lower bound of t and u.
func (t SlotType) Meet(u SlotType) SlotType {
	switch {
	case t.Leq(u):
		return t
	case u.Leq(t):
		return u
	default:
		return SlotTypeBottom
	}
}

// IsSmallInt reports whether a float64 is integral and in int32 range —
// the runtime meaning of SlotTypeSmallInt. NaN and infinities fail the
// trunc comparison and the range check respectively.
func IsSmallInt(f float64) bool {
	return f == math.Trunc(f) && f >= math.MinInt32 && f <= math.MaxInt32
}

// Admits reports whether a runtime value is within the type claim. This
// is the predicate the differential soundness gate asserts on every
// property store: a claimed slot must never be observed holding a value
// outside its type.
func (t SlotType) Admits(v Value) bool {
	switch t {
	case SlotTypeNone:
		return true
	case SlotTypeSmallInt:
		return v.IsNumber() && IsSmallInt(v.Num())
	case SlotTypeFloat:
		return v.IsNumber()
	case SlotTypeString:
		return v.IsString()
	case SlotTypeBoolean:
		return v.IsBool()
	case SlotTypeObject:
		return v.IsObject()
	case SlotTypeNullUndef:
		return v.IsNullish()
	}
	return false
}

// TypeOfValue classifies a runtime value into the most precise lattice
// element admitting it.
func TypeOfValue(v Value) SlotType {
	switch v.Kind() {
	case KindNumber:
		if IsSmallInt(v.Num()) {
			return SlotTypeSmallInt
		}
		return SlotTypeFloat
	case KindString:
		return SlotTypeString
	case KindBool:
		return SlotTypeBoolean
	case KindObject:
		return SlotTypeObject
	case KindNull, KindUndefined:
		return SlotTypeNullUndef
	}
	return SlotTypeNone
}
