package symtab

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// TestInternRoundTrip pins the core contract: interning is idempotent,
// IDs are dense and distinct per name, and NameOf inverts Intern.
func TestInternRoundTrip(t *testing.T) {
	names := []string{
		"x", "length", "prototype", "constructor",
		"snake_case", "camelCase", "$dollar", "_underscore",
		"with space", "with.dot", "with\x00nul",
	}
	ids := make(map[ID]string)
	for _, n := range names {
		id := Intern(n)
		if id == None {
			t.Fatalf("Intern(%q) returned None", n)
		}
		if again := Intern(n); again != id {
			t.Fatalf("Intern(%q) unstable: %d then %d", n, id, again)
		}
		if prev, dup := ids[id]; dup {
			t.Fatalf("Intern(%q) collided with %q on ID %d", n, prev, id)
		}
		ids[id] = n
		if got := NameOf(id); got != n {
			t.Fatalf("NameOf(Intern(%q)) = %q", n, got)
		}
		if found, ok := Find(n); !ok || found != id {
			t.Fatalf("Find(%q) = (%d, %v), want (%d, true)", n, found, ok, id)
		}
	}
}

// TestInternUnicode exercises non-ASCII property names: JavaScript allows
// them, and sanitized display forms must not fold distinct names together.
func TestInternUnicode(t *testing.T) {
	names := []string{
		"héllo", "héllò", // precomposed vs combining accent: distinct keys
		"日本語", "日本", "ламбда", "λ", "🚀", "é", "é", // é two ways
	}
	seen := make(map[ID]string)
	for _, n := range names {
		id := Intern(n)
		if prev, dup := seen[id]; dup && prev != n {
			t.Fatalf("distinct names %q and %q share ID %d", prev, n, id)
		}
		seen[id] = n
		if got := NameOf(id); got != n {
			t.Fatalf("NameOf round trip for %q gave %q", n, got)
		}
	}
}

// TestInternCollidingDisplayForms pins that names whose sanitized or
// case-folded display forms coincide still intern to different IDs — the
// table keys on exact bytes, never on a normalized form.
func TestInternCollidingDisplayForms(t *testing.T) {
	groups := [][]string{
		{"value", "Value", "VALUE"},
		{"a b", "a\tb", "a_b"},
		{"x\x00y", "x\x01y", "xy"},
	}
	for _, g := range groups {
		ids := make(map[ID]string)
		for _, n := range g {
			id := Intern(n)
			if prev, dup := ids[id]; dup {
				t.Fatalf("%q and %q fold to one ID %d", prev, n, id)
			}
			ids[id] = n
		}
	}
}

// TestInternEmptyString pins the empty-name convention: "" is a legal
// JavaScript property key (o[""]), so it interns to a real non-None ID,
// while None itself resolves to "" only as the null sentinel.
func TestInternEmptyString(t *testing.T) {
	id := Intern("")
	if id == None {
		t.Fatal("Intern(\"\") must return a real ID, not None")
	}
	if again := Intern(""); again != id {
		t.Fatalf("Intern(\"\") unstable: %d then %d", id, again)
	}
	if NameOf(id) != "" {
		t.Fatalf("NameOf(%d) = %q, want empty", id, NameOf(id))
	}
	if NameOf(None) != "" {
		t.Fatalf("NameOf(None) = %q, want empty", NameOf(None))
	}
}

// TestFindDoesNotIntern pins that Find never grows the table: dynamic
// keyed-access keys must not inflate it.
func TestFindDoesNotIntern(t *testing.T) {
	name := "symtab-test-find-does-not-intern"
	if _, ok := Find(name); ok {
		t.Fatalf("%q unexpectedly pre-interned", name)
	}
	before := Len()
	if _, ok := Find(name); ok {
		t.Fatal("second Find claims the name exists")
	}
	if after := Len(); after != before {
		t.Fatalf("Find grew the table: %d -> %d", before, after)
	}
	id := Intern(name)
	if got, ok := Find(name); !ok || got != id {
		t.Fatalf("Find after Intern = (%d, %v), want (%d, true)", got, ok, id)
	}
}

// TestWellKnownSymbols pins the init-time constants to their names.
func TestWellKnownSymbols(t *testing.T) {
	for _, tc := range []struct {
		id   ID
		name string
	}{
		{SymLength, "length"},
		{SymPrototype, "prototype"},
		{SymConstructor, "constructor"},
	} {
		if tc.id == None {
			t.Fatalf("well-known %q is None", tc.name)
		}
		if NameOf(tc.id) != tc.name {
			t.Fatalf("NameOf well-known = %q, want %q", NameOf(tc.id), tc.name)
		}
		if got := Intern(tc.name); got != tc.id {
			t.Fatalf("Intern(%q) = %d, want well-known %d", tc.name, got, tc.id)
		}
	}
}

// TestNameOfOutOfRange: IDs never handed out resolve to "".
func TestNameOfOutOfRange(t *testing.T) {
	if got := NameOf(ID(1 << 30)); got != "" {
		t.Fatalf("NameOf(out of range) = %q", got)
	}
}

// TestInternConcurrent hammers the table from many goroutines with
// overlapping name sets; run under -race this doubles as the data-race
// check for the pool's parallel record decoding.
func TestInternConcurrent(t *testing.T) {
	const goroutines = 8
	const perG = 200
	results := make([][]ID, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]ID, perG)
			for i := 0; i < perG; i++ {
				// Half shared names, half per-goroutine.
				if i%2 == 0 {
					out[i] = Intern(fmt.Sprintf("shared-%d", i))
				} else {
					out[i] = Intern(fmt.Sprintf("g%d-%d", g, i))
				}
			}
			results[g] = out
		}(g)
	}
	wg.Wait()
	for i := 0; i < perG; i += 2 {
		want := results[0][i]
		for g := 1; g < goroutines; g++ {
			if results[g][i] != want {
				t.Fatalf("shared name %d: goroutine %d got %d, goroutine 0 got %d",
					i, g, results[g][i], want)
			}
		}
	}
}

// TestInternCopiesName interns a name sliced out of a larger source text:
// the table must keep its own copy, or it would pin the whole source for
// the life of the process.
func TestInternCopiesName(t *testing.T) {
	src := "var pinnedByTheTable = 1; // " + strings.Repeat("x", 4096)
	name := src[4:19]
	id := Intern(name)
	got := NameOf(id)
	if got != name {
		t.Fatalf("NameOf = %q, want %q", got, name)
	}
	if unsafe.StringData(got) == unsafe.StringData(name) {
		t.Fatal("the table kept the caller's slice of the source")
	}
}
