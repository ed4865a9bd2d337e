package codecache

import (
	"fmt"
	"sync"
	"testing"

	"ricjs/internal/bytecode"
)

// testBudget is large enough that no test but the eviction tests evicts.
const testBudget = 64 << 20

func TestLoadCompilesOnceAndShares(t *testing.T) {
	c := New(testBudget)
	p1, err := c.Load("a.js", "var x = 1;")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Load("a.js", "var x = 1;")
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("identical loads must share the compiled program")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", st.Hits, st.Misses)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestNameParticipatesInKey(t *testing.T) {
	c := New(testBudget)
	p1, _ := c.Load("a.js", "var x = 1;")
	p2, _ := c.Load("b.js", "var x = 1;")
	if p1 == p2 {
		t.Fatal("same source under different names must compile separately")
	}
	if p1.Script == p2.Script {
		t.Fatal("programs must remember their script names")
	}
}

// TestNameSourceBoundaryIsExact loads two scripts whose name and source
// concatenate to the same bytes around a NUL separator. They are
// different scripts, so the second load must not return the first
// program.
func TestNameSourceBoundaryIsExact(t *testing.T) {
	c := New(testBudget)
	p1, err := c.Load("a\x00b", "print(2)")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Load("a", "b\x00print(2)")
	if p2 == p1 {
		t.Fatalf("Load(%q, %q) returned the program of script %q", "a", "b\x00print(2)", p1.Script)
	}
	if err == nil && p2.Script != "a" {
		t.Fatalf("second load compiled script %q, want %q", p2.Script, "a")
	}
	if hits := c.Stats().Hits; hits != 0 {
		t.Fatalf("hits = %d, want 0", hits)
	}
}

func TestDifferentSourceDifferentProgram(t *testing.T) {
	c := New(testBudget)
	p1, _ := c.Load("a.js", "var x = 1;")
	p2, _ := c.Load("a.js", "var x = 2;")
	if p1 == p2 {
		t.Fatal("different sources must not collide")
	}
}

func TestLoadErrorsPropagate(t *testing.T) {
	c := New(testBudget)
	if _, err := c.Load("bad.js", "var ;"); err == nil {
		t.Fatal("syntax errors must propagate")
	}
	if c.Len() != 0 {
		t.Fatal("failed compiles must not be cached")
	}
}

func TestConcurrentLoads(t *testing.T) {
	c := New(testBudget)
	var wg sync.WaitGroup
	progs := make([]any, 16)
	for i := range progs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := c.Load("x.js", "function f() { return 1; } f();")
			if err != nil {
				t.Error(err)
				return
			}
			progs[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(progs); i++ {
		if progs[i] != progs[0] {
			t.Fatal("concurrent loads must converge on one program")
		}
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
}

// TestConcurrentLoadStress exercises the double-compile-and-discard race
// path (the second c.mu.Lock block of Load): many goroutines hammer the
// same and distinct scripts, and the hit/miss counts must stay coherent —
// every script compiles into the cache exactly once, every other load is
// a hit, even when a losing compiler discards its duplicate program.
func TestConcurrentLoadStress(t *testing.T) {
	const (
		goroutines = 64
		scripts    = 8
		iters      = 24
	)
	srcs := make([]string, scripts)
	names := make([]string, scripts)
	for i := range srcs {
		names[i] = fmt.Sprintf("s%d.js", i)
		srcs[i] = fmt.Sprintf("var v%[1]d = %[1]d; function f%[1]d() { return v%[1]d; } f%[1]d();", i)
	}

	c := New(testBudget)
	got := make([][]*bytecode.Program, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		got[g] = make([]*bytecode.Program, iters)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (g + i) % scripts
				p, err := c.Load(names[k], srcs[k])
				if err != nil {
					t.Error(err)
					return
				}
				got[g][i] = p
			}
		}(g)
	}
	wg.Wait()

	// All loads of one script converge on a single program.
	canonical := make([]*bytecode.Program, scripts)
	for g := 0; g < goroutines; g++ {
		for i := 0; i < iters; i++ {
			k := (g + i) % scripts
			if canonical[k] == nil {
				canonical[k] = got[g][i]
			} else if got[g][i] != canonical[k] {
				t.Fatalf("script %d: concurrent loads returned distinct programs", k)
			}
		}
	}
	if c.Len() != scripts {
		t.Fatalf("Len = %d, want %d", c.Len(), scripts)
	}
	st := c.Stats()
	hits, misses := st.Hits, st.Misses
	if misses != scripts {
		t.Fatalf("misses = %d, want exactly %d (losing compiles count as hits, not misses)", misses, scripts)
	}
	if hits+misses != goroutines*iters {
		t.Fatalf("hits(%d) + misses(%d) = %d, want %d loads accounted for",
			hits, misses, hits+misses, goroutines*iters)
	}
}

// TestConcurrentLoadSameScript maximizes contention on one key so the
// double-compile path actually triggers: exactly one miss survives.
func TestConcurrentLoadSameScript(t *testing.T) {
	c := New(testBudget)
	const goroutines = 32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := c.Load("hot.js", "function h() { return 42; } h();"); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	st := c.Stats()
	hits, misses := st.Hits, st.Misses
	if misses != 1 || hits != goroutines-1 {
		t.Fatalf("hits=%d misses=%d, want %d/1", hits, misses, goroutines-1)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

// script is one test script with the bytes the cache charges for it.
type script struct{ name, src string }

// scripts returns n distinct scripts named prefix-i.js, each a few
// functions long.
func scripts(prefix string, n int) []script {
	out := make([]script, n)
	for i := range out {
		out[i] = script{
			name: fmt.Sprintf("%s-%d.js", prefix, i),
			src: fmt.Sprintf(`var v%[1]d = {a: %[1]d, b: 2};
function get%[1]d(o) { return o.a + o.b; }
function set%[1]d(o, x) { o.a = x; return o; }
print(get%[1]d(set%[1]d(v%[1]d, %[1]d)));`, i),
		}
	}
	return out
}

// charge is what a cache charges for s.
func charge(t *testing.T, s script) int {
	t.Helper()
	c := New(testBudget)
	if _, err := c.Load(s.name, s.src); err != nil {
		t.Fatal(err)
	}
	return c.ring.Used()
}

// cached reports whether s is in the cache, without touching it.
func (c *Cache) cached(s script) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.programs[key{s.name, s.src}]
	return ok
}

// TestEvictUnderConcurrentLoad loads a hot set and a long cold tail from
// four goroutines into a cache whose budget holds the hot set and about
// twenty cold programs. Evictions must happen, the charged bytes must
// never pass the budget, every load must return its own script's program,
// and the counts must add up. No hot script may be evicted: each
// goroutine loads the whole hot set between two cold loads, so every hot
// program is referenced again before the hand can come round to it twice.
func TestEvictUnderConcurrentLoad(t *testing.T) {
	const goroutines, coldPerGoroutine = 4, 60
	hot := scripts("hot", 6)
	cold := scripts("cold", goroutines*coldPerGoroutine)
	budget := 0
	for _, s := range hot {
		budget += charge(t, s)
	}
	budget += 20 * charge(t, cold[0])
	c := New(budget)
	for _, s := range hot {
		if _, err := c.Load(s.name, s.src); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	var loads [goroutines]int
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			load := func(s script) {
				loads[g]++
				p, err := c.Load(s.name, s.src)
				if err != nil {
					t.Error(err)
					return
				}
				if p.Script != s.name {
					t.Errorf("Load(%s) returned the program of %s", s.name, p.Script)
				}
			}
			for i := 0; i < coldPerGoroutine; i++ {
				load(cold[g*coldPerGoroutine+i])
				for _, s := range hot {
					load(s)
				}
			}
		}(g)
	}
	wg.Wait()

	st := c.Stats()
	total := len(hot)
	for _, n := range loads {
		total += n
	}
	if st.Hits+st.Misses != total {
		t.Errorf("hits %d + misses %d != %d loads", st.Hits, st.Misses, total)
	}
	if st.Evictions == 0 {
		t.Error("a cold tail five times the spare budget evicted nothing")
	}
	// Each cold script is loaded once; a hot one compiled twice was
	// evicted in between.
	if want := len(hot) + len(cold); st.Misses != want {
		t.Errorf("%d misses for %d scripts; a hot script was evicted and compiled again", st.Misses, want)
	}
	if c.ring.Used() > budget {
		t.Errorf("%d bytes charged over a budget of %d", c.ring.Used(), budget)
	}
	if c.Len() != c.ring.Len() || st.Misses-st.Evictions != c.Len() {
		t.Errorf("%d programs cached, %d on the ring, %d misses - %d evictions",
			c.Len(), c.ring.Len(), st.Misses, st.Evictions)
	}
	for _, s := range hot {
		if !c.cached(s) {
			t.Errorf("hot script %s was evicted", s.name)
		}
	}
}

// TestOversizeProgramServedNotCached loads a script whose program alone
// is charged more than the whole budget: it is compiled and served every
// time, never cached, and counted as an eviction each time.
func TestOversizeProgramServedNotCached(t *testing.T) {
	s := scripts("big", 1)[0]
	c := New(charge(t, s) - 1)
	for i := 0; i < 2; i++ {
		p, err := c.Load(s.name, s.src)
		if err != nil {
			t.Fatal(err)
		}
		if p == nil || p.Script != s.name {
			t.Fatalf("load %d served %v", i, p)
		}
	}
	if st := c.Stats(); c.Len() != 0 || st.Misses != 2 || st.Evictions != 2 {
		t.Fatalf("Len %d, %+v; want nothing cached, 2 misses, 2 evictions", c.Len(), st)
	}
}

// TestLoadHitAllocatesNothing pins the warm path: a hit looks the script
// up and sets its reference bit, and allocates nothing.
func TestLoadHitAllocatesNothing(t *testing.T) {
	c := New(testBudget)
	s := scripts("warm", 1)[0]
	if _, err := c.Load(s.name, s.src); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { c.Load(s.name, s.src) }); allocs != 0 {
		t.Fatalf("a cache hit allocated %v times, want 0", allocs)
	}
}
