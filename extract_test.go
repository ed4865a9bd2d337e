package ricjs

import (
	"bytes"
	"reflect"
	"testing"

	"ricjs/internal/analysis"
	"ricjs/internal/ric"
	"ricjs/internal/workloads"
)

// TestExtractRecordIsPureExtraction pins ExtractRecord to the paper's §5
// extraction and nothing more: over every profile, the served record is
// byte-identical to ric.Extract over the same VM and carries no
// typed-shape claims. A change that puts static analysis back on the
// serving path changes the bytes and fails here.
func TestExtractRecordIsPureExtraction(t *testing.T) {
	for _, p := range workloads.Profiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			e := NewEngine(Options{Cache: NewCodeCache()})
			if err := e.Run(p.Script, p.Source()); err != nil {
				t.Fatal(err)
			}
			got := e.ExtractRecord(p.Name)
			want := ric.Extract(e.VM(), p.Name, ric.Config{})
			if !bytes.Equal(got.Encode(), want.Encode()) {
				t.Fatal("ExtractRecord's bytes differ from ric.Extract's")
			}
			if n := got.Stats().TypedSlotClaims; n != 0 {
				t.Fatalf("served record carries %d typed slot claims, want 0", n)
			}
		})
	}
}

// TestTypedClaimsDoNotChangeReuse shows that dropping typed-shape claims
// from served records changes no behaviour: for every profile, a Reuse
// run of the record with claims attached offline and a Reuse run of the
// same record without them print the same output and count the same
// statistics.
func TestTypedClaimsDoNotChangeReuse(t *testing.T) {
	for _, p := range workloads.Profiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			src := p.Source()
			cache := NewCodeCache()
			initial := NewEngine(Options{Cache: cache})
			if err := initial.Run(p.Script, src); err != nil {
				t.Fatal(err)
			}
			plain := initial.ExtractRecord(p.Name)

			prog, err := cache.c.Load(p.Script, src)
			if err != nil {
				t.Fatal(err)
			}
			typed := ric.Extract(initial.VM(), p.Name, ric.Config{})
			typed.AttachTypedShapes(analysis.Analyze(prog))
			if typed.Stats.TypedSlotClaims == 0 {
				t.Fatal("offline analysis attached no claims; the comparison is vacuous")
			}

			reuse := func(rec *Record) *Engine {
				e := NewEngine(Options{Cache: cache, Record: rec})
				if err := e.Run(p.Script, src); err != nil {
					t.Fatal(err)
				}
				if degraded, cause := e.Degraded(); degraded {
					t.Fatalf("reuse degraded: %v", cause)
				}
				return e
			}
			withClaims, without := reuse(&Record{r: typed}), reuse(plain)
			if withClaims.Output() != without.Output() {
				t.Fatal("output differs with and without typed claims")
			}
			if !reflect.DeepEqual(withClaims.Stats(), without.Stats()) {
				t.Fatalf("stats differ with and without typed claims:\nwith:    %+v\nwithout: %+v",
					withClaims.Stats(), without.Stats())
			}
		})
	}
}

// TestRecordRowsPacked checks that the HCVT rows of every record a pool
// can hold carry no spare capacity: records from ExtractRecord, from
// DecodeRecord and from MergeRecords, over every profile. The sum of the
// row capacities must equal the dependents the record counts.
func TestRecordRowsPacked(t *testing.T) {
	packed := func(what string, rec *Record) {
		t.Helper()
		capacity := 0
		for _, row := range rec.r.Deps {
			capacity += cap(row)
		}
		if want := rec.Stats().DependentSlots; capacity != want {
			t.Errorf("%s: HCVT rows hold %d dependents in a capacity of %d", what, want, capacity)
		}
	}
	var records []*Record
	for _, p := range workloads.Profiles {
		e := NewEngine(Options{Cache: NewCodeCache()})
		if err := e.Run(p.Script, p.Source()); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		rec := e.ExtractRecord(p.Name)
		packed(p.Name+" extracted", rec)
		decoded, err := DecodeRecord(rec.Encode())
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		packed(p.Name+" decoded", decoded)
		records = append(records, rec)
	}
	merged, err := MergeRecords(records...)
	if err != nil {
		t.Fatal(err)
	}
	packed("merged", merged)
}
