// Package codecache caches compiled programs across engine instances,
// modelling V8's bytecode code cache (paper §8.1): the Initial run
// compiles source to bytecode; Reuse runs — both Conventional and RIC —
// skip parsing and compilation, so the measured difference between them
// isolates IC effects, as in the paper's methodology (§6).
//
// The cache is bounded in bytes. Each program is charged what it keeps
// alive, and CLOCK eviction (package clockring) lets go of programs no
// session has loaded since the hand last passed them, so a long-running
// process keeps its hot scripts compiled without keeping every script it
// ever saw.
package codecache

import (
	"sync"

	"ricjs/internal/bytecode"
	"ricjs/internal/clockring"
	"ricjs/internal/heapsize"
	"ricjs/internal/parser"
)

// key identifies a script exactly: its name and its full source. The map
// keeps the caller's strings, so a hit copies and hashes nothing beyond
// the map's own string hash.
type key struct{ name, src string }

// entry is one cached program with its reference bit.
type entry struct {
	ref  clockring.Ref
	key  key
	prog *bytecode.Program
}

// Stats counts a cache's loads.
type Stats struct {
	// Hits counts loads served a cached program.
	Hits int
	// Misses counts loads that compiled a program.
	Misses int
	// Evictions counts programs dropped to keep the cache within its
	// budget, a program larger than the whole budget included: it is
	// served and dropped at once.
	Evictions int
}

// Cache maps scripts to compiled programs. It is safe for concurrent use
// so many engine instances (benchmark iterations) can share one.
type Cache struct {
	mu       sync.Mutex
	programs map[key]*entry
	ring     clockring.Ring[*entry]
	stats    Stats
}

// New creates an empty cache that charges its programs at most budget
// bytes in all.
func New(budget int) *Cache {
	c := &Cache{programs: make(map[key]*entry)}
	c.ring.Budget = budget
	return c
}

// Load returns the compiled form of a script, compiling and caching it on
// first sight. The script name participates in the key: the same source
// under two names compiles twice, because site identities embed the name.
func (c *Cache) Load(name, src string) (*bytecode.Program, error) {
	k := key{name, src}
	c.mu.Lock()
	if e, ok := c.programs[k]; ok {
		c.stats.Hits++
		e.ref.Touch()
		c.mu.Unlock()
		return e.prog, nil
	}
	c.mu.Unlock()

	ast, err := parser.Parse(name, src)
	if err != nil {
		return nil, err
	}
	prog, err := bytecode.Compile(ast)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.programs[k]; ok {
		// Another goroutine compiled concurrently; keep the first.
		c.stats.Hits++
		e.ref.Touch()
		return e.prog, nil
	}
	c.stats.Misses++
	// A program is charged its compiled tables plus the name and source
	// text its key pins.
	e := &entry{key: k, prog: prog}
	bytes := prog.ResidentBytes() + heapsize.String(name) + heapsize.String(src)
	if !c.ring.Admit(e, &e.ref, bytes, c.evict) {
		c.stats.Evictions++
		return prog, nil
	}
	c.programs[k] = e
	return prog, nil
}

// evict drops a program the ring's hand chose. The caller holds c.mu.
func (c *Cache) evict(e *entry) {
	delete(c.programs, e.key)
	c.stats.Evictions++
}

// Stats returns the cache's load counts.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Used returns the bytes charged to the cached programs.
func (c *Cache) Used() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.Used()
}

// Len returns the number of cached programs.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.programs)
}
