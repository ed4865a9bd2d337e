package bench

import (
	"strings"
	"testing"

	"ricjs/internal/profiler"
	"ricjs/internal/workloads"
)

// measureOne measures one small library quickly.
func measureOne(t *testing.T) LibraryRun {
	t.Helper()
	p, ok := workloads.ByName("CamanJS")
	if !ok {
		t.Fatal("CamanJS profile missing")
	}
	run, err := MeasureLibrary(p, Options{Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestMeasureLibraryProducesCoherentResults(t *testing.T) {
	run := measureOne(t)
	if run.Name != "CamanJS" {
		t.Fatalf("name = %q", run.Name)
	}
	if run.Initial.ICMisses == 0 || run.Conv.ICMisses == 0 || run.RIC.ICMisses == 0 {
		t.Fatal("runs recorded no misses")
	}
	// The Conventional Reuse run repeats the Initial run's IC behaviour
	// (same program, fresh ICs): identical deterministic statistics.
	if run.Conv.ICMisses != run.Initial.ICMisses {
		t.Fatalf("conventional misses %d != initial %d", run.Conv.ICMisses, run.Initial.ICMisses)
	}
	// RIC cuts misses and instructions.
	if run.RIC.ICMisses >= run.Conv.ICMisses {
		t.Fatal("RIC did not cut misses")
	}
	if run.InstrReduction() <= 0 || run.InstrReduction() >= 1 {
		t.Fatalf("instruction reduction = %v", run.InstrReduction())
	}
	if run.RecordBytes == 0 || run.RecordStats.DependentSlots == 0 {
		t.Fatalf("record looks empty: %+v", run.RecordStats)
	}
	if run.ValidatedHCs == 0 {
		t.Fatal("no hidden classes validated")
	}
	if run.ConvTime <= 0 || run.RICTime <= 0 || run.ExtractTime <= 0 {
		t.Fatal("missing timings")
	}
}

func TestTimeReductionZeroGuard(t *testing.T) {
	var r LibraryRun
	if r.TimeReduction() != 0 || r.InstrReduction() != 0 {
		t.Fatal("zero runs must report zero reductions")
	}
}

func TestPaperReferenceData(t *testing.T) {
	if len(Table1Paper) != 7 || len(Table4Paper) != 7 {
		t.Fatal("paper tables must list 7 libraries")
	}
	for i := range Table1Paper {
		if Table1Paper[i].Library != Table4Paper[i].Library {
			t.Fatal("paper tables disagree on library order")
		}
	}
	// Only the seven Table-3 libraries have published reference rows; the
	// workload-zoo families are this repository's own regimes.
	for _, p := range workloads.Libraries {
		if paperTable1(p.Name).HiddenClasses == 0 {
			t.Errorf("no Table 1 reference for %s", p.Name)
		}
		if paperTable4(p.Name).InitialRate == 0 {
			t.Errorf("no Table 4 reference for %s", p.Name)
		}
		if Figure9PaperTimesMs[p.Name] == 0 {
			t.Errorf("no Figure 9 reference for %s", p.Name)
		}
	}
	if paperTable1("NotALib").HiddenClasses != 0 {
		t.Error("unknown library must return a zero row")
	}
	if len(Figure1Paper) == 0 {
		t.Error("figure 1 data missing")
	}
}

func TestReportsIncludeEveryLibrary(t *testing.T) {
	run := measureOne(t)
	runs := []LibraryRun{run}

	var b strings.Builder
	ReportTable1(&b, runs)
	ReportFigure5(&b, runs)
	ReportTable4(&b, runs)
	ReportFigure8(&b, runs)
	ReportFigure9(&b, runs)
	ReportOverheads(&b, runs)
	ReportFigure1(&b)
	out := b.String()

	for _, want := range []string{
		"Table 1", "Figure 5", "Table 4", "Figure 8", "Figure 9",
		"Section 7.3", "Figure 1", "CamanJS", "Average", "paper",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("reports missing %q", want)
		}
	}
}

func TestReportWebsites(t *testing.T) {
	wr, err := MeasureWebsites(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if wr.RIC.ICMisses >= wr.Conv.ICMisses {
		t.Fatalf("cross-website RIC misses %d !< conventional %d",
			wr.RIC.ICMisses, wr.Conv.ICMisses)
	}
	if wr.RIC.MissesSaved == 0 {
		t.Fatal("cross-website reuse saved nothing")
	}
	var b strings.Builder
	ReportWebsites(&b, wr)
	if !strings.Contains(b.String(), "RIC") || !strings.Contains(b.String(), "Conventional") {
		t.Fatalf("website report malformed:\n%s", b.String())
	}
}

func TestBar(t *testing.T) {
	if got := bar(0.5, 10); got != "#####....." {
		t.Fatalf("bar(0.5) = %q", got)
	}
	if got := bar(-1, 4); got != "...." {
		t.Fatalf("bar(-1) = %q", got)
	}
	if got := bar(2, 4); got != "####" {
		t.Fatalf("bar(2) = %q", got)
	}
}

func TestMissBreakdownSumsToMissRate(t *testing.T) {
	run := measureOne(t)
	s := run.RIC
	sum := s.MissRateOf(profiler.MissHandler) +
		s.MissRateOf(profiler.MissGlobal) +
		s.MissRateOf(profiler.MissOther)
	if diff := sum - s.MissRate(); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("breakdown sums to %v, rate is %v", sum, s.MissRate())
	}
}

func TestAblationReportRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations measure every library twice")
	}
	var b strings.Builder
	if err := ReportAblations(&b, Options{Reps: 1}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"globals off", "globals on", "empty", "Overhead"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation report missing %q:\n%s", want, out)
		}
	}
}
