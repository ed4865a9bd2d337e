package profiler

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCategoryString(t *testing.T) {
	if CatRest.String() != "rest" || CatICMiss.String() != "ic-miss" {
		t.Fatalf("unexpected category names: %q %q", CatRest, CatICMiss)
	}
	if got := Category(9).String(); got != "category(9)" {
		t.Fatalf("fallback name = %q", got)
	}
}

func TestMissKindString(t *testing.T) {
	cases := map[MissKind]string{
		MissHandler:  "handler",
		MissGlobal:   "global",
		MissOther:    "other",
		MissKind(42): "misskind(42)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestChargeAttribution(t *testing.T) {
	var c Counters
	c.Charge(10)
	c.BeginICMiss()
	c.Charge(100)
	c.EndICMiss()
	c.Charge(1)

	s := c.Snapshot()
	if s.InstrRest != 11 {
		t.Errorf("InstrRest = %d, want 11", s.InstrRest)
	}
	if s.InstrICMiss != 100 {
		t.Errorf("InstrICMiss = %d, want 100", s.InstrICMiss)
	}
	if s.TotalInstr() != 111 {
		t.Errorf("TotalInstr = %d, want 111", s.TotalInstr())
	}
}

func TestMissSectionsNest(t *testing.T) {
	var c Counters
	c.BeginICMiss()
	c.BeginICMiss()
	c.Charge(5)
	c.EndICMiss()
	if !c.InMiss() {
		t.Fatal("expected still inside outer miss section")
	}
	c.Charge(7)
	c.EndICMiss()
	if c.InMiss() {
		t.Fatal("expected outside miss sections")
	}
	c.Charge(3)

	s := c.Snapshot()
	if s.InstrICMiss != 12 || s.InstrRest != 3 {
		t.Fatalf("got miss=%d rest=%d, want 12/3", s.InstrICMiss, s.InstrRest)
	}
}

func TestEndICMissWithoutBeginIsSafe(t *testing.T) {
	var c Counters
	c.EndICMiss() // must not panic or underflow
	c.Charge(2)
	if s := c.Snapshot(); s.InstrRest != 2 || s.InstrICMiss != 0 {
		t.Fatalf("unexpected snapshot %+v", s)
	}
}

func TestHitAndMissAccounting(t *testing.T) {
	var c Counters
	c.Hit(0, false)
	c.Hit(2, true)
	c.Miss(MissOther)
	c.Miss(MissGlobal)
	c.Miss(MissHandler)

	s := c.Snapshot()
	if s.ICHits != 2 || s.ICMisses != 3 {
		t.Fatalf("hits=%d misses=%d, want 2/3", s.ICHits, s.ICMisses)
	}
	if s.MissesSaved != 1 {
		t.Errorf("MissesSaved = %d, want 1", s.MissesSaved)
	}
	if s.MissHandler != 1 || s.MissGlobal != 1 || s.MissOther != 1 {
		t.Errorf("miss breakdown = %d/%d/%d, want 1/1/1",
			s.MissHandler, s.MissGlobal, s.MissOther)
	}
	wantHitCost := uint64(CostICHit) + uint64(CostICHit) + 2*uint64(CostICPolySearch)
	if s.InstrRest != wantHitCost {
		t.Errorf("hit cost = %d, want %d", s.InstrRest, wantHitCost)
	}
	if got := s.MissRate(); math.Abs(got-60) > 1e-9 {
		t.Errorf("MissRate = %v, want 60", got)
	}
}

func TestMissRateOf(t *testing.T) {
	var c Counters
	c.Hit(0, false)
	c.Miss(MissHandler)
	c.Miss(MissHandler)
	c.Miss(MissOther)
	s := c.Snapshot()
	if got := s.MissRateOf(MissHandler); math.Abs(got-50) > 1e-9 {
		t.Errorf("MissRateOf(handler) = %v, want 50", got)
	}
	if got := s.MissRateOf(MissGlobal); got != 0 {
		t.Errorf("MissRateOf(global) = %v, want 0", got)
	}
	if got := s.MissRateOf(MissOther); math.Abs(got-25) > 1e-9 {
		t.Errorf("MissRateOf(other) = %v, want 25", got)
	}
	// Breakdown must sum to the total miss rate (Table 4 invariant).
	sum := s.MissRateOf(MissHandler) + s.MissRateOf(MissGlobal) + s.MissRateOf(MissOther)
	if math.Abs(sum-s.MissRate()) > 1e-9 {
		t.Errorf("breakdown sums to %v, miss rate is %v", sum, s.MissRate())
	}
}

func TestZeroSnapshotRatios(t *testing.T) {
	var s Snapshot
	if s.MissRate() != 0 || s.ICMissShare() != 0 ||
		s.ContextIndependentShare() != 0 || s.MissesPerHC() != 0 ||
		s.MissRateOf(MissGlobal) != 0 {
		t.Fatal("zero snapshot must yield zero ratios")
	}
}

func TestHandlerAndHCStats(t *testing.T) {
	var c Counters
	c.HCCreated()
	c.HCCreated()
	c.HandlerMade(true)
	c.HandlerMade(false)
	c.HandlerMade(true)
	c.Miss(MissOther)
	c.Miss(MissOther)
	c.Miss(MissOther)

	s := c.Snapshot()
	if s.HCCreated != 2 {
		t.Errorf("HCCreated = %d, want 2", s.HCCreated)
	}
	if got := s.ContextIndependentShare(); math.Abs(got-100*2.0/3.0) > 1e-9 {
		t.Errorf("ContextIndependentShare = %v", got)
	}
	if got := s.MissesPerHC(); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("MissesPerHC = %v, want 1.5", got)
	}
}

func TestPreloadAndValidationStats(t *testing.T) {
	var c Counters
	c.Preload(3)
	c.Validate()
	c.ValidateFail()
	s := c.Snapshot()
	if s.Preloads != 3 || s.Validations != 1 || s.ValFailures != 1 {
		t.Fatalf("unexpected %+v", s)
	}
	if s.InstrRest != 3*CostRICPreload {
		t.Errorf("preload cost = %d, want %d", s.InstrRest, 3*CostRICPreload)
	}
}

func TestAllocCharges(t *testing.T) {
	var c Counters
	c.Alloc()
	s := c.Snapshot()
	if s.Allocations != 1 || s.InstrRest != CostAlloc {
		t.Fatalf("unexpected %+v", s)
	}
}

func TestReset(t *testing.T) {
	var c Counters
	c.BeginICMiss()
	c.Charge(100)
	c.Miss(MissOther)
	c.Reset()
	if c.InMiss() {
		t.Fatal("reset must leave miss sections")
	}
	if s := c.Snapshot(); s != (Snapshot{}) {
		t.Fatalf("snapshot after reset = %+v, want zero", s)
	}
}

// Property: instruction totals never decrease and attribution conserves
// every charged instruction across arbitrary begin/end interleavings.
func TestChargeConservationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		var c Counters
		var want uint64
		for _, op := range ops {
			switch op % 4 {
			case 0:
				c.BeginICMiss()
			case 1:
				c.EndICMiss()
			default:
				n := uint64(op)
				c.Charge(n)
				want += n
			}
		}
		return c.Snapshot().TotalInstr() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: MissRate is always within [0,100] and breakdown never exceeds it.
func TestMissRateBoundsProperty(t *testing.T) {
	f := func(hits, h, g, o uint8) bool {
		var c Counters
		for i := 0; i < int(hits); i++ {
			c.Hit(0, false)
		}
		for i := 0; i < int(h); i++ {
			c.Miss(MissHandler)
		}
		for i := 0; i < int(g); i++ {
			c.Miss(MissGlobal)
		}
		for i := 0; i < int(o); i++ {
			c.Miss(MissOther)
		}
		s := c.Snapshot()
		r := s.MissRate()
		if r < 0 || r > 100 {
			return false
		}
		sum := s.MissRateOf(MissHandler) + s.MissRateOf(MissGlobal) + s.MissRateOf(MissOther)
		return math.Abs(sum-r) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
