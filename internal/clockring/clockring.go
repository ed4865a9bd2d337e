// Package clockring bounds a cache by bytes with CLOCK eviction, the
// policy the code cache and the session pool's record cache share.
//
// Every cached entry sits on a ring with a reference bit and the bytes it
// was charged. A hit only sets the bit (Ref.Touch), without a lock, so a
// cache's warm read path stays as cheap as it was unbounded. Admitting an
// entry sweeps the hand around the ring until the entry fits: a set bit is
// cleared and its entry passed over (its second chance), a clear bit
// evicts its entry. New entries start unreferenced and go in just behind
// the hand, so an entry that is never hit again is the first to go once
// the hand comes round, and one that is hit between two sweeps stays.
package clockring

import (
	"slices"
	"sync/atomic"
)

// Ref is an entry's reference bit.
type Ref struct{ bit atomic.Bool }

// Touch marks the entry referenced. It is an atomic load, plus a store
// only when the bit is clear, so concurrent hits on a hot entry do not
// contend on its cache line.
func (r *Ref) Touch() {
	if !r.bit.Load() {
		r.bit.Store(true)
	}
}

// Ring is the CLOCK ring of one cache. The zero Ring admits nothing; set
// Budget first. A Ring is not safe for concurrent use: the cache admits
// under its own lock, while Touch on the entries' Refs needs none.
type Ring[E any] struct {
	// Budget is the most bytes the ring's entries may be charged in all.
	Budget int

	slots []slot[E]
	hand  int
	used  int
}

type slot[E any] struct {
	e     E
	ref   *Ref
	bytes int
}

// Admit puts e on the ring, charged bytes, with ref as its reference bit.
// It first evicts entries at the hand until e fits, calling evict on each
// in eviction order. An entry larger than the whole budget is not
// admitted and evicts nothing: Admit returns false, and the caller serves
// the entry without caching it.
func (r *Ring[E]) Admit(e E, ref *Ref, bytes int, evict func(E)) bool {
	if bytes > r.Budget {
		return false
	}
	in := slot[E]{e: e, ref: ref, bytes: bytes}
	placed := false
	for r.used+bytes > r.Budget {
		if r.hand == len(r.slots) {
			r.hand = 0
		}
		s := r.slots[r.hand]
		if s.ref.bit.CompareAndSwap(true, false) {
			r.hand++
			continue
		}
		r.used -= s.bytes
		if r.used+bytes <= r.Budget {
			// The eviction that makes room frees the very slot the new
			// entry goes in, so it takes that slot in place.
			r.slots[r.hand] = in
			placed = true
		} else {
			r.slots = slices.Delete(r.slots, r.hand, r.hand+1)
		}
		evict(s.e)
	}
	if !placed {
		r.slots = slices.Insert(r.slots, r.hand, in)
	}
	r.hand++
	r.used += bytes
	return true
}

// Len returns the number of entries on the ring.
func (r *Ring[E]) Len() int { return len(r.slots) }

// Used returns the bytes charged to the entries on the ring.
func (r *Ring[E]) Used() int { return r.used }
