package analysis

import (
	"testing"

	"ricjs/internal/objects"
	"ricjs/internal/vm"
)

// TestSeedMirrorsLiveBuiltinGraph is the drift guard between the seeded
// static graph and the VM's real startup environment. seed() mirrors a
// throwaway VM, so the two can only diverge if startup stops being
// deterministic or the mirror logic rots — either of which would silently
// invalidate every builtin-anchored prediction (riclint layers 3/4 resolve
// builtin TOAST entries through this table). Any drift is a hard failure here, not a subtle misprediction in
// production.
func TestSeedMirrorsLiveBuiltinGraph(t *testing.T) {
	res := Analyze() // no programs: the result is exactly the seeded graph
	if res.GlobalTop() {
		t.Fatal("empty analysis widened to ⊤")
	}
	live := vm.New(vm.Options{AddressSeed: 99}) // seed() used AddressSeed 1; identity must not depend on it

	builtins := live.Builtins()
	if len(builtins) == 0 {
		t.Fatal("live VM registered no builtins")
	}
	seen := 0
	for _, b := range builtins {
		s := res.Builtin(b.Name)
		if s == nil {
			t.Errorf("builtin %q has no seeded shape", b.Name)
			continue
		}
		if !s.Matches(b.HC) {
			t.Errorf("builtin %q: seeded %v does not match live hidden class %v (fields %v)",
				b.Name, s, b.HC.Creator(), b.HC.Fields())
		}
		seen++
	}
	if got := len(res.Graph().BuiltinNames()); got != seen {
		t.Errorf("seeded builtin table has %d entries, live VM has %d", got, seen)
	}

	// Every live startup hidden class — not just the final builtin shapes,
	// but each intermediate transition — must have a seeded mirror, and the
	// seeded graph must contain nothing else: shape counts equal means the
	// mirror is a bijection.
	liveCount := 0
	for _, root := range live.Roots() {
		root.WalkTransitions(func(hc *objects.HiddenClass) {
			liveCount++
			s := res.ShapeForCreator(hc.Creator().String())
			for s != nil && s.NumFields() < hc.NumFields() {
				s, _ = s.TransitionTo(hc.FieldAt(s.NumFields()))
			}
			if s == nil || !s.Matches(hc) {
				t.Errorf("startup hidden class %v (fields %v) has no matching seeded shape",
					hc.Creator(), hc.Fields())
			}
		})
	}
	if got := res.ShapeCount(); got != liveCount {
		t.Errorf("seeded graph has %d shapes, live startup has %d hidden classes", got, liveCount)
	}
}
