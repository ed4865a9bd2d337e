package bench

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestMeasureOpStatsDeterministic pins the histogram's contract:
// identical results across runs, so the report is byte-stable.
func TestMeasureOpStatsDeterministic(t *testing.T) {
	a, err := MeasureOpStats(Options{Workloads: "jQuery"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasureOpStats(Options{Workloads: "jQuery"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("opstats not deterministic:\na: %+v\nb: %+v", a, b)
	}
	if a.Workloads != 1 || a.Total == 0 || len(a.TopOps) == 0 || len(a.TopPairs) == 0 {
		t.Fatalf("degenerate result: %+v", a)
	}
	var share float64
	for _, o := range a.TopOps {
		if o.Count == 0 {
			t.Fatalf("zero-count op %q in top list", o.Op)
		}
		share += o.SharePct
	}
	if share <= 0 || share > 100.0001 {
		t.Fatalf("top-op shares sum to %v%%", share)
	}

	var out bytes.Buffer
	ReportOpStats(&out, a)
	text := out.String()
	for _, want := range []string{"Dispatch histogram", "Hottest adjacent pairs"} {
		if !strings.Contains(text, want) {
			t.Fatalf("report missing %q:\n%s", want, text)
		}
	}
}

// TestOpStatsJSONBlock pins the -format json -opstats wiring.
func TestOpStatsJSONBlock(t *testing.T) {
	res, err := MeasureOpStats(Options{Workloads: "jQuery"})
	if err != nil {
		t.Fatal(err)
	}
	var doc JSONResults
	doc.AddOpStats(res)
	if doc.OpStats == nil || doc.OpStats.TotalExecuted != res.Total ||
		len(doc.OpStats.TopPairs) != len(res.TopPairs) {
		t.Fatalf("opstats block mismatch: %+v vs %+v", doc.OpStats, res)
	}
	var out bytes.Buffer
	if err := EncodeJSON(&out, doc); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"opStats"`, `"topPairs"`} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("JSON missing %s:\n%s", want, out.String())
		}
	}
}
