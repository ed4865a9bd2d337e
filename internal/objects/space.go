package objects

import "sync/atomic"

// Space is a simulated heap address space. Hidden classes and objects
// receive addresses from it. Two engine instances get different base
// addresses, so the same logical hidden class lands at a different address
// in every run — reproducing the context-dependence of real heap pointers
// that forces RIC to validate hidden classes instead of trusting raw
// addresses (paper §3.2).
type Space struct {
	base   uint64
	stride uint64
	next   uint64

	nextID uint32 // monotonically increasing hidden-class/object ids
	nextHC uint32 // hidden classes allocated so far (see HiddenClass.Ordinal)

	dictHC *HiddenClass // the shared hidden class of dictionary-mode objects

	// protoEpoch increments whenever an object that serves as a prototype
	// changes shape. Prototype-chain IC handlers record the epoch at
	// generation time and are treated as misses when it has moved — the
	// engine's analogue of V8's prototype validity cells, preventing
	// stale reads when a chain property is later shadowed or removed.
	protoEpoch uint64
}

// spaceSerial numbers engine instances process-wide so that every Space
// gets a distinct base address by default.
var spaceSerial atomic.Uint64

// NewSpace creates an address space. seed selects the base address; pass 0
// to draw a fresh process-unique seed (the normal case — each engine run
// then sees different addresses). Non-zero seeds make address assignment
// reproducible for tests.
func NewSpace(seed uint64) *Space {
	if seed == 0 {
		seed = spaceSerial.Add(1)
	}
	// Spread bases far apart and vary the stride a little so that address
	// arithmetic from one run has no accidental meaning in another.
	s := &Space{
		base:   0x5500_0000_0000 + seed*0x0000_4000_0000,
		stride: 0x40 + (seed%7)*0x10,
	}
	s.next = s.base
	s.dictHC = s.newHC(nil, Creator{Builtin: "(dictionary)"})
	s.dictHC.dictionary = true
	return s
}

// allocAddr returns the next simulated heap address.
func (s *Space) allocAddr() uint64 {
	a := s.next
	s.next += s.stride
	return a
}

// allocID returns the next object/hidden-class id.
func (s *Space) allocID() uint32 {
	s.nextID++
	return s.nextID
}

// allocOrdinal returns the next hidden-class ordinal.
func (s *Space) allocOrdinal() uint32 {
	o := s.nextHC
	s.nextHC++
	return o
}

// HiddenClasses returns how many hidden classes the space has allocated:
// every class's Ordinal is below it.
func (s *Space) HiddenClasses() int { return int(s.nextHC) }

// Base returns the base address of the space (for tests and diagnostics).
func (s *Space) Base() uint64 { return s.base }

// DictHC returns the shared hidden class used by dictionary-mode objects.
func (s *Space) DictHC() *HiddenClass { return s.dictHC }

// ProtoEpoch returns the current prototype-mutation epoch.
func (s *Space) ProtoEpoch() uint64 { return s.protoEpoch }

// bumpProtoEpoch invalidates all prototype-chain IC handlers.
func (s *Space) bumpProtoEpoch() { s.protoEpoch++ }
