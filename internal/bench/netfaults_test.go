package bench

import "testing"

// TestNetFaultSweep runs the full chaos sweep in-process so the race
// detector sees it: every fault mode must keep pooled outputs identical
// to the conventional baselines under tier-ladder degradation.
func TestNetFaultSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep spins real HTTP servers; skipped in -short")
	}
	trials, err := NetFaultSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) == 0 {
		t.Fatal("no fault modes ran")
	}
	for _, trial := range trials {
		if !trial.OK() {
			t.Errorf("mode %s: %+v", trial.Mode, trial)
		}
	}
}
