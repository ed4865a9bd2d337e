package codecache

import (
	"fmt"
	"sync"
	"testing"

	"ricjs/internal/bytecode"
)

func TestLoadCompilesOnceAndShares(t *testing.T) {
	c := New()
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
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestNameParticipatesInKey(t *testing.T) {
	c := New()
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
	c := New()
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
	if hits, _ := c.Stats(); hits != 0 {
		t.Fatalf("hits = %d, want 0", hits)
	}
}

func TestDifferentSourceDifferentProgram(t *testing.T) {
	c := New()
	p1, _ := c.Load("a.js", "var x = 1;")
	p2, _ := c.Load("a.js", "var x = 2;")
	if p1 == p2 {
		t.Fatal("different sources must not collide")
	}
}

func TestLoadErrorsPropagate(t *testing.T) {
	c := New()
	if _, err := c.Load("bad.js", "var ;"); err == nil {
		t.Fatal("syntax errors must propagate")
	}
	if c.Len() != 0 {
		t.Fatal("failed compiles must not be cached")
	}
}

func TestConcurrentLoads(t *testing.T) {
	c := New()
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

	c := New()
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
	hits, misses := c.Stats()
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
	c := New()
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
	hits, misses := c.Stats()
	if misses != 1 || hits != goroutines-1 {
		t.Fatalf("hits=%d misses=%d, want %d/1", hits, misses, goroutines-1)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}
