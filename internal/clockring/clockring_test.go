package clockring

import (
	"slices"
	"testing"
)

type entry struct {
	name string
	ref  Ref
}

// admit admits e and returns the names it evicted.
func admit(t *testing.T, r *Ring[*entry], e *entry, bytes int) []string {
	t.Helper()
	var evicted []string
	if !r.Admit(e, &e.ref, bytes, func(v *entry) { evicted = append(evicted, v.name) }) {
		t.Fatalf("%s (%d bytes) not admitted", e.name, bytes)
	}
	return evicted
}

// TestAdmitEvictsUnreferencedFirst fills a ring, touches some entries and
// admits more: the untouched ones go, oldest first, and the touched ones
// stay for as long as they are touched between sweeps.
func TestAdmitEvictsUnreferencedFirst(t *testing.T) {
	r := &Ring[*entry]{Budget: 40}
	es := map[string]*entry{}
	for _, n := range []string{"a", "b", "c", "d"} {
		es[n] = &entry{name: n}
		if ev := admit(t, r, es[n], 10); ev != nil {
			t.Fatalf("admitting %s into a ring with room evicted %v", n, ev)
		}
	}
	es["b"].ref.Touch()
	es["d"].ref.Touch()
	if ev := admit(t, r, &entry{name: "e"}, 10); !slices.Equal(ev, []string{"a"}) {
		t.Fatalf("evicted %v, want [a]", ev)
	}
	// e went in behind the hand, which now sits at b: b is referenced,
	// so the next victim is c.
	if ev := admit(t, r, &entry{name: "f"}, 10); !slices.Equal(ev, []string{"c"}) {
		t.Fatalf("evicted %v, want [c]", ev)
	}
	// The ring reads d e b f from the hand. d is referenced and passed;
	// e was never hit and b lost its bit in the last sweep, so a large
	// entry evicts e, b and f, in sweep order, and stops once it fits.
	if ev := admit(t, r, &entry{name: "g"}, 30); !slices.Equal(ev, []string{"e", "b", "f"}) {
		t.Fatalf("evicted %v, want [e b f]", ev)
	}
	if r.Len() != 2 || r.Used() != 40 {
		t.Fatalf("ring holds %d entries, %d bytes; want 2, 40", r.Len(), r.Used())
	}
}

// TestAdmitOversize checks that an entry larger than the budget is turned
// away without evicting anything.
func TestAdmitOversize(t *testing.T) {
	r := &Ring[*entry]{Budget: 10}
	admit(t, r, &entry{name: "a"}, 10)
	big := &entry{name: "big"}
	if r.Admit(big, &big.ref, 11, func(*entry) { t.Fatal("an oversize entry evicted") }) {
		t.Fatal("an entry larger than the budget was admitted")
	}
	if r.Len() != 1 || r.Used() != 10 {
		t.Fatalf("ring holds %d entries, %d bytes; want 1, 10", r.Len(), r.Used())
	}
}

// TestHotEntrySurvivesChurn admits a long run of one-shot entries while
// touching one hot entry between admissions: the hot entry is never
// evicted and the ring never exceeds its budget.
func TestHotEntrySurvivesChurn(t *testing.T) {
	r := &Ring[*entry]{Budget: 100}
	hot := &entry{name: "hot"}
	admit(t, r, hot, 30)
	for i := 0; i < 1000; i++ {
		hot.ref.Touch()
		for _, v := range admit(t, r, &entry{name: "cold"}, 7+i%13) {
			if v == "hot" {
				t.Fatalf("admission %d evicted the hot entry", i)
			}
		}
		if r.Used() > r.Budget {
			t.Fatalf("admission %d: %d bytes charged over a budget of %d", i, r.Used(), r.Budget)
		}
	}
}
