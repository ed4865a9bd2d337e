// Package progen generates random-but-deterministic JavaScript programs
// in the engine's subset, for differential testing: any program it emits
// must behave identically under a plain run, a Conventional Reuse run and
// a RIC Reuse run. The generator is seeded, so failures reproduce from
// the seed alone.
//
// Generated programs concentrate on the machinery RIC touches: object
// construction, property addition in varying orders (hidden-class
// transitions), property reads through monomorphic and polymorphic sites,
// prototype methods, deletes (dictionary demotion), closures, and control
// flow that can diverge between Initial and Reuse runs.
package progen

import (
	"fmt"
	"strings"
)

// Gen is a deterministic program generator.
type Gen struct {
	s uint64

	// Budget controls how many statements a program gets.
	Budget int
}

// New creates a generator from a seed.
func New(seed uint64) *Gen {
	if seed == 0 {
		seed = 0xDEADBEEF
	}
	return &Gen{s: seed, Budget: 40}
}

func (g *Gen) next() uint64 {
	g.s ^= g.s << 13
	g.s ^= g.s >> 7
	g.s ^= g.s << 17
	return g.s * 0x2545F4914F6CDD1D
}

func (g *Gen) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(g.next() % uint64(n))
}

func (g *Gen) pick(ss []string) string { return ss[g.intn(len(ss))] }

var propNames = []string{"a", "b", "c", "d", "e"}

// Program emits one program. Every generated program:
//   - defines 1-3 constructors with random field sets;
//   - builds object pools through literals and `new`;
//   - mutates and reads properties through helper functions (distinct IC
//     sites), loops and conditions;
//   - occasionally deletes properties and calls prototype methods;
//   - ends by printing a checksum of everything observable.
func (g *Gen) Program() string {
	var b strings.Builder
	b.WriteString("var log = '';\nvar sum = 0;\n")

	// Constructors.
	nCtors := 1 + g.intn(3)
	ctorFields := make([][]string, nCtors)
	for c := 0; c < nCtors; c++ {
		n := 1 + g.intn(len(propNames))
		fields := append([]string{}, propNames[:n]...)
		// Shuffle insertion order so different ctors produce different
		// transition chains over the same names.
		for i := range fields {
			j := g.intn(i + 1)
			fields[i], fields[j] = fields[j], fields[i]
		}
		ctorFields[c] = fields
		fmt.Fprintf(&b, "function C%d(v) {\n", c)
		for i, f := range fields {
			fmt.Fprintf(&b, "\tthis.%s = v + %d;\n", f, i)
		}
		b.WriteString("}\n")
		if g.intn(2) == 0 {
			fmt.Fprintf(&b, "C%d.prototype.m = function () { return this.%s * 2; };\n",
				c, fields[0])
		}
	}

	// Pools.
	b.WriteString("var pool = [];\n")
	nObjs := 2 + g.intn(5)
	for i := 0; i < nObjs; i++ {
		if g.intn(3) == 0 {
			// Literal with a random prefix of properties.
			n := 1 + g.intn(len(propNames))
			b.WriteString("pool.push({")
			for j := 0; j < n; j++ {
				if j > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "%s: %d", propNames[j], g.intn(50))
			}
			b.WriteString("});\n")
		} else {
			fmt.Fprintf(&b, "pool.push(new C%d(%d));\n", g.intn(nCtors), g.intn(50))
		}
	}

	// Helper readers/writers: distinct IC sites over shared shapes.
	b.WriteString(`function readP(o, dflt) { var v = o.` + g.pick(propNames) + `; return v === undefined ? dflt : v; }
function writeP(o, v) { o.` + g.pick(propNames) + ` = v; return o; }
`)

	// A numeric array for keyed-element statements, and a keyed helper
	// whose site sees both element and constant-string access.
	fmt.Fprintf(&b, "var nums = [];\nfor (var npre = 0; npre < %d; npre++) nums.push((npre * %d + %d) %% 13);\n",
		4+g.intn(6), 2+g.intn(5), g.intn(7))
	b.WriteString(`function readK(o, k, dflt) { var v = o[k]; return v === undefined ? dflt : v; }
`)

	// Statement soup.
	for i := 0; i < g.Budget; i++ {
		switch g.intn(14) {
		case 0:
			fmt.Fprintf(&b, "sum += readP(pool[%d %% pool.length], %d);\n", g.intn(16), g.intn(9))
		case 1:
			fmt.Fprintf(&b, "writeP(pool[%d %% pool.length], %d);\n", g.intn(16), g.intn(99))
		case 2:
			fmt.Fprintf(&b, "if (sum %% %d === 0) { sum += %d; } else { log += '%c'; }\n",
				2+g.intn(5), g.intn(7), 'a'+rune(g.intn(26)))
		case 3:
			fmt.Fprintf(&b, "for (var i%d = 0; i%d < %d; i%d++) sum += readP(pool[i%d %% pool.length], 1);\n",
				i, i, 1+g.intn(4), i, i)
		case 4:
			fmt.Fprintf(&b, "delete pool[%d %% pool.length].%s;\n", g.intn(16), g.pick(propNames))
		case 5:
			fmt.Fprintf(&b, "pool[%d %% pool.length].%s = '%c';\n",
				g.intn(16), g.pick(propNames), 'x'+rune(g.intn(3)))
		case 6:
			fmt.Fprintf(&b, "var o%d = pool[%d %% pool.length];\nif (o%d.m) sum += o%d.m();\n",
				i, g.intn(16), i, i)
		case 7:
			fmt.Fprintf(&b, "try { if (sum > %d) throw 'cap'; } catch (e) { log += e; sum = 0; }\n",
				50+g.intn(500))
		case 8:
			fmt.Fprintf(&b, "(function (k) { sum += readP(pool[k %% pool.length], 2); })(%d);\n", g.intn(16))
		case 9:
			// Keyed element loop: LoadElement (and sometimes StoreElement)
			// handlers over the numeric array.
			if g.intn(2) == 0 {
				fmt.Fprintf(&b, "for (var k%d = 0; k%d < nums.length; k%d++) sum += nums[k%d];\n",
					i, i, i, i)
			} else {
				fmt.Fprintf(&b, "for (var k%d = 0; k%d < nums.length; k%d++) nums[k%d] = (nums[k%d] + %d) %% 29;\n",
					i, i, i, i, i, 1+g.intn(9))
			}
		case 10:
			// Keyed access with a constant string key: a KeyedNamed site.
			fmt.Fprintf(&b, "sum += readK(pool[%d %% pool.length], '%s', %d);\n",
				g.intn(16), g.pick(propNames), g.intn(9))
		case 11:
			// Delete-to-dictionary: multiple deletes demote the object, and
			// a post-delete add plus a read exercise the generic paths.
			p0, p1 := g.pick(propNames), g.pick(propNames)
			fmt.Fprintf(&b,
				"var d%d = pool[%d %% pool.length];\ndelete d%d.%s;\ndelete d%d.%s;\nd%d.zz%d = %d;\nlog += typeof d%d.%s;\n",
				i, g.intn(16), i, p0, i, p1, i, g.intn(4), g.intn(50), i, p0)
		case 12:
			// Direct prototype-method call on a freshly constructed
			// receiver (monomorphic dispatch when the ctor has a method).
			fmt.Fprintf(&b, "var pm%d = new C%d(%d);\nif (pm%d.m) { sum += pm%d.m() + pm%d.m(); }\n",
				i, g.intn(nCtors), g.intn(50), i, i, i)
		default:
			fmt.Fprintf(&b, "log += typeof pool[%d %% pool.length].%s;\n",
				g.intn(16), g.pick(propNames))
		}
	}

	// Checksum everything observable, the numeric array included.
	b.WriteString(`var check = '';
for (var ci = 0; ci < pool.length; ci++) {
	var keys = Object.keys(pool[ci]);
	for (var cj = 0; cj < keys.length; cj++) {
		check += keys[cj] + '=' + pool[ci][keys[cj]] + ';';
	}
	check += '|';
}
check += '#';
for (var cn = 0; cn < nums.length; cn++) check += nums[cn] + ',';
print(sum, log, check);
`)
	return b.String()
}
