package vm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"ricjs/internal/objects"
	"ricjs/internal/profiler"
)

// setupJSON installs the JSON namespace (parse/stringify). Unlike a real
// engine's C++ fast path, parse builds every object through the ordinary
// hidden-class transition machinery: each property add walks the same
// transition tables as a script store, and every class it creates is
// announced through notifyHC with a context-independent builtin creator,
// so parsed shapes are extractable into a record and validatable in a
// Reuse run exactly like constructor-built shapes (paper §4.1's
// "triggering events" extended to the ingestion path).
func (vm *VM) setupJSON() {
	jsonHC := vm.newRootHC(vm.objectProto, objects.Creator{Builtin: "JSON#root"})
	jsonObj := vm.Space.NewObject(jsonHC)
	vm.define(jsonObj, "parse", objects.Obj(vm.newNative("parse",
		func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
			text := argAt(args, 0).ToString()
			p := &jsonParser{vm: vm, src: text}
			v, err := p.parseValue()
			if err != nil {
				return objects.Undefined(), err
			}
			p.skipSpace()
			if p.pos != len(p.src) {
				return objects.Undefined(), throwf("JSON.parse: trailing characters at offset %d", p.pos)
			}
			return v, nil
		})), "JSON.parse")
	vm.define(jsonObj, "stringify", objects.Obj(vm.newNative("stringify",
		func(vm *VM, this objects.Value, args []objects.Value) (objects.Value, error) {
			var b strings.Builder
			if !appendJSON(&b, argAt(args, 0), 0) {
				return objects.Undefined(), nil
			}
			return objects.Str(b.String()), nil
		})), "JSON.stringify")
	vm.define(vm.global, "JSON", objects.Obj(jsonObj), "global.JSON")
	vm.extraBuiltins = append(vm.extraBuiltins, namedBuiltin{Name: "JSON", Obj: jsonObj})
}

// jsonAddField adds one parsed property through the normal transition path.
// The creator is the layout path itself ("JSON.parse:id,name+score" adds
// "score" to the {id,name} class), which is deterministic across runs and
// independent of heap addresses and script load order — so the TOAST can
// key the class by it and a Reuse run validates it the moment parse
// re-creates it. A transition already cached (by a literal or an earlier
// record) is reused untouched, creator included.
func (vm *VM) jsonAddField(o *objects.Object, key string, v objects.Value) {
	incoming := o.HC()
	vm.Prof.Charge(uint64(max(1, incoming.NumFields())) * profiler.CostLookupStep)
	creator := objects.Creator{Builtin: "JSON.parse:" + strings.Join(o.OwnKeys(), ",") + "+" + key}
	next, created := o.AddOwn(vm.Space, key, v, creator)
	vm.observeStore(o)
	if created {
		vm.notifyHC(next.Creator(), incoming, next)
	}
}

// jsonParser is a recursive-descent parser over the JSON grammar subset
// the workloads need (RFC 8259 without surrogate-pair escapes).
type jsonParser struct {
	vm  *VM
	src string
	pos int
}

func (p *jsonParser) skipSpace() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *jsonParser) fail(whatf string, args ...any) error {
	return throwf("JSON.parse: "+whatf+" at offset %d", append(args, p.pos)...)
}

func (p *jsonParser) parseValue() (objects.Value, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return objects.Undefined(), p.fail("unexpected end of input")
	}
	switch c := p.src[p.pos]; {
	case c == '{':
		return p.parseObject()
	case c == '[':
		return p.parseArray()
	case c == '"':
		s, err := p.parseString()
		if err != nil {
			return objects.Undefined(), err
		}
		return objects.Str(s), nil
	case c == 't':
		return p.literal("true", objects.Bool(true))
	case c == 'f':
		return p.literal("false", objects.Bool(false))
	case c == 'n':
		return p.literal("null", objects.Null())
	case c == '-' || (c >= '0' && c <= '9'):
		return p.parseNumber()
	default:
		return objects.Undefined(), p.fail("unexpected character %q", c)
	}
}

func (p *jsonParser) literal(word string, v objects.Value) (objects.Value, error) {
	if !strings.HasPrefix(p.src[p.pos:], word) {
		return objects.Undefined(), p.fail("invalid literal")
	}
	p.pos += len(word)
	return v, nil
}

func (p *jsonParser) parseNumber() (objects.Value, error) {
	start := p.pos
	if p.pos < len(p.src) && p.src[p.pos] == '-' {
		p.pos++
	}
	digits := func() {
		for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
			p.pos++
		}
	}
	digits()
	if p.pos < len(p.src) && p.src[p.pos] == '.' {
		p.pos++
		digits()
	}
	if p.pos < len(p.src) && (p.src[p.pos] == 'e' || p.src[p.pos] == 'E') {
		p.pos++
		if p.pos < len(p.src) && (p.src[p.pos] == '+' || p.src[p.pos] == '-') {
			p.pos++
		}
		digits()
	}
	f, err := strconv.ParseFloat(p.src[start:p.pos], 64)
	if err != nil {
		p.pos = start
		return objects.Undefined(), p.fail("invalid number")
	}
	return objects.Num(f), nil
}

func (p *jsonParser) parseString() (string, error) {
	if p.src[p.pos] != '"' {
		return "", p.fail("expected string")
	}
	p.pos++
	var b strings.Builder
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch {
		case c == '"':
			p.pos++
			return b.String(), nil
		case c == '\\':
			p.pos++
			if p.pos >= len(p.src) {
				return "", p.fail("unterminated escape")
			}
			switch e := p.src[p.pos]; e {
			case '"', '\\', '/':
				b.WriteByte(e)
			case 'b':
				b.WriteByte('\b')
			case 'f':
				b.WriteByte('\f')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case 't':
				b.WriteByte('\t')
			case 'u':
				if p.pos+4 >= len(p.src) {
					return "", p.fail("truncated \\u escape")
				}
				n, err := strconv.ParseUint(p.src[p.pos+1:p.pos+5], 16, 32)
				if err != nil {
					return "", p.fail("invalid \\u escape")
				}
				b.WriteRune(rune(n))
				p.pos += 4
			default:
				return "", p.fail("invalid escape %q", e)
			}
			p.pos++
		case c < 0x20:
			return "", p.fail("unescaped control character")
		default:
			b.WriteByte(c)
			p.pos++
		}
	}
	return "", p.fail("unterminated string")
}

func (p *jsonParser) parseArray() (objects.Value, error) {
	p.pos++ // '['
	p.vm.Prof.Alloc()
	var elems []objects.Value
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == ']' {
		p.pos++
		return objects.Obj(p.vm.Space.NewArray(p.vm.arrayHC, nil)), nil
	}
	for {
		v, err := p.parseValue()
		if err != nil {
			return objects.Undefined(), err
		}
		elems = append(elems, v)
		p.skipSpace()
		if p.pos >= len(p.src) {
			return objects.Undefined(), p.fail("unterminated array")
		}
		switch p.src[p.pos] {
		case ',':
			p.pos++
		case ']':
			p.pos++
			return objects.Obj(p.vm.Space.NewArray(p.vm.arrayHC, elems)), nil
		default:
			return objects.Undefined(), p.fail("expected ',' or ']'")
		}
	}
}

func (p *jsonParser) parseObject() (objects.Value, error) {
	p.pos++ // '{'
	p.vm.Prof.Alloc()
	o := p.vm.Space.NewObject(p.vm.emptyObjectHC)
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == '}' {
		p.pos++
		return objects.Obj(o), nil
	}
	for {
		p.skipSpace()
		if p.pos >= len(p.src) || p.src[p.pos] != '"' {
			return objects.Undefined(), p.fail("expected property name")
		}
		key, err := p.parseString()
		if err != nil {
			return objects.Undefined(), err
		}
		p.skipSpace()
		if p.pos >= len(p.src) || p.src[p.pos] != ':' {
			return objects.Undefined(), p.fail("expected ':'")
		}
		p.pos++
		v, err := p.parseValue()
		if err != nil {
			return objects.Undefined(), err
		}
		p.vm.jsonAddField(o, key, v)
		p.skipSpace()
		if p.pos >= len(p.src) {
			return objects.Undefined(), p.fail("unterminated object")
		}
		switch p.src[p.pos] {
		case ',':
			p.pos++
		case '}':
			p.pos++
			return objects.Obj(o), nil
		default:
			return objects.Undefined(), p.fail("expected ',' or '}'")
		}
	}
}

// appendJSON serializes one value; false means the value is not
// representable (undefined or a function), which stringify maps to
// undefined at the top level, omission in objects, and null in arrays.
func appendJSON(b *strings.Builder, v objects.Value, depth int) bool {
	if depth > 128 {
		b.WriteString("null")
		return true
	}
	switch v.Kind() {
	case objects.KindNull:
		b.WriteString("null")
	case objects.KindBool:
		b.WriteString(v.ToString())
	case objects.KindNumber:
		f := v.Num()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			b.WriteString("null")
		} else {
			b.WriteString(v.ToString())
		}
	case objects.KindString:
		appendJSONString(b, v.Str())
	case objects.KindObject:
		o := v.Obj()
		if o.Func() != nil {
			return false
		}
		if o.IsArray() {
			b.WriteByte('[')
			for i := 0; i < o.Len(); i++ {
				if i > 0 {
					b.WriteByte(',')
				}
				if !appendJSON(b, o.Elem(i), depth+1) {
					b.WriteString("null")
				}
			}
			b.WriteByte(']')
			return true
		}
		b.WriteByte('{')
		first := true
		for _, k := range o.OwnKeys() {
			pv, ok, _ := o.GetOwn(k)
			if !ok {
				continue
			}
			var pb strings.Builder
			if !appendJSON(&pb, pv, depth+1) {
				continue
			}
			if !first {
				b.WriteByte(',')
			}
			first = false
			appendJSONString(b, k)
			b.WriteByte(':')
			b.WriteString(pb.String())
		}
		b.WriteByte('}')
	default: // undefined
		return false
	}
	return true
}

func appendJSONString(b *strings.Builder, s string) {
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"':
			b.WriteString(`\"`)
		case c == '\\':
			b.WriteString(`\\`)
		case c == '\n':
			b.WriteString(`\n`)
		case c == '\r':
			b.WriteString(`\r`)
		case c == '\t':
			b.WriteString(`\t`)
		case c < 0x20:
			fmt.Fprintf(b, `\u%04x`, c)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
}
