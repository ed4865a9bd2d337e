package ricjs

import (
	"testing"

	"ricjs/internal/workloads"
)

// TestAllWorkloadsEquivalentAcrossModes is the repository's golden
// correctness gate: for every library of the evaluation, the Initial run,
// the Conventional Reuse run, and the RIC Reuse run must print identical
// output — RIC is an optimization, never a semantic change (the paper's
// central correctness claim).
func TestAllWorkloadsEquivalentAcrossModes(t *testing.T) {
	for _, p := range workloads.Profiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			src := p.Source()
			cache := NewCodeCache()

			initial := NewEngine(Options{Cache: cache})
			if err := initial.Run(p.Script, src); err != nil {
				t.Fatal(err)
			}
			record := initial.ExtractRecord(p.Name)

			conv := NewEngine(Options{Cache: cache})
			if err := conv.Run(p.Script, src); err != nil {
				t.Fatal(err)
			}
			reuse := NewEngine(Options{Cache: cache, Record: record})
			if err := reuse.Run(p.Script, src); err != nil {
				t.Fatal(err)
			}

			if initial.Output() != conv.Output() {
				t.Errorf("conventional output diverged:\n%q\n%q", initial.Output(), conv.Output())
			}
			if initial.Output() != reuse.Output() {
				t.Errorf("RIC output diverged:\n%q\n%q", initial.Output(), reuse.Output())
			}

			is, cs, rs := initial.Stats(), conv.Stats(), reuse.Stats()
			// Determinism: Initial and Conventional runs are identical.
			if is.ICMisses != cs.ICMisses || is.TotalInstr() != cs.TotalInstr() {
				t.Errorf("conventional run not deterministic: %+v vs %+v", is, cs)
			}
			// Effectiveness: RIC must avert misses on every library.
			if rs.MissesSaved == 0 {
				t.Error("RIC averted no misses")
			}
			if rs.ICMisses >= cs.ICMisses {
				t.Errorf("RIC misses %d !< conventional %d", rs.ICMisses, cs.ICMisses)
			}
			if rs.TotalInstr() >= cs.TotalInstr() {
				t.Errorf("RIC instructions %d !< conventional %d", rs.TotalInstr(), cs.TotalInstr())
			}
			// Conservation: averted misses equal the miss delta.
			if cs.ICMisses-rs.ICMisses != rs.MissesSaved {
				t.Errorf("miss accounting broken: conv %d, ric %d, averted %d",
					cs.ICMisses, rs.ICMisses, rs.MissesSaved)
			}
		})
	}
}
