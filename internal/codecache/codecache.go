// Package codecache caches compiled programs across engine instances,
// modelling V8's bytecode code cache (paper §8.1): the Initial run
// compiles source to bytecode; Reuse runs — both Conventional and RIC —
// skip parsing and compilation, so the measured difference between them
// isolates IC effects, as in the paper's methodology (§6).
package codecache

import (
	"sync"

	"ricjs/internal/bytecode"
	"ricjs/internal/parser"
)

// key identifies a script exactly: its name and its full source. The map
// keeps the caller's strings, so a hit copies and hashes nothing beyond
// the map's own string hash.
type key struct{ name, src string }

// Cache maps scripts to compiled programs. It is safe for concurrent use
// so many engine instances (benchmark iterations) can share one.
type Cache struct {
	mu       sync.Mutex
	programs map[key]*bytecode.Program
	hits     int
	misses   int
}

// New creates an empty cache.
func New() *Cache {
	return &Cache{programs: make(map[key]*bytecode.Program)}
}

// Load returns the compiled form of a script, compiling and caching it on
// first sight. The script name participates in the key: the same source
// under two names compiles twice, because site identities embed the name.
func (c *Cache) Load(name, src string) (*bytecode.Program, error) {
	k := key{name, src}
	c.mu.Lock()
	if p, ok := c.programs[k]; ok {
		c.hits++
		c.mu.Unlock()
		return p, nil
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
	if p, ok := c.programs[k]; ok {
		// Another goroutine compiled concurrently; keep the first.
		c.hits++
		return p, nil
	}
	c.misses++
	c.programs[k] = prog
	return prog, nil
}

// Stats returns (hits, misses) counts.
func (c *Cache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len returns the number of cached programs.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.programs)
}
