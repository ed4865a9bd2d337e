package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ricjs"
)

// smallProfiles are the profiles whose records extract in milliseconds,
// which keeps the smoke test short.
var smallProfiles = []string{"Underscore", "KeyedKernels", "DictRegistry", "ProtoDispatch", "JSONPipe"}

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWorkloadsReportEveryMetric runs every workload briefly on the small
// profiles, untraced and traced, and checks that the last output line
// names exactly the metrics BENCHMARK.json lists, with their units, and
// that every session matched its reference output.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(allWorkloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark has %d", names, len(allWorkloads))
	}
	for _, w := range allWorkloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 1, seconds: 0.6, trace: trace,
				scratch: t.TempDir(), profiles: smallProfiles}
			cfg.traceOut = filepath.Join(cfg.scratch, "trace.json")
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			var out bytes.Buffer
			if err := report(&out, res); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   bool  `json:"correct"`
				Attempted int64 `json:"attempted"`
				Failed    int64 `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace=%t: last line: %v", w.name, trace, err)
			}
			if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d errors=%v",
					w.name, trace, last.Correct, last.Attempted, last.Failed, res.Errors)
			}
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics printed, BENCHMARK.json lists %d", w.name, trace, len(last.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := last.Metrics[m.Name]
				switch {
				case !ok || got.Value == nil:
					t.Errorf("%s trace=%t: metric %s not printed", w.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%t: metric %s in %q, BENCHMARK.json says %q", w.name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if trace {
				checkChromeTrace(t, cfg.traceOut)
			}
		}
	}
}

func checkChromeTrace(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	spans := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			spans++
		}
	}
	if spans == 0 {
		t.Errorf("%s holds no spans", path)
	}
}

// TestOracleMatchesEngine runs every input once on a fresh engine and
// compares it with its node-generated reference output.
func TestOracleMatchesEngine(t *testing.T) {
	set, err := loadInputs()
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range append(set.profiles, set.corpus...) {
		e := ricjs.NewEngine(ricjs.Options{})
		if err := e.Run(in.script(), in.src()); err != nil {
			t.Errorf("%s: %v", in.key, err)
		} else if e.Output() != in.want {
			t.Errorf("%s: output %q, reference %q", in.key, e.Output(), in.want)
		}
	}
}

// TestWrongOutputCountsAsFailed checks that the oracle, not the engine,
// decides a session's correctness.
func TestWrongOutputCountsAsFailed(t *testing.T) {
	b := &bench{records: make(map[string]int)}
	in := &input{key: "k", want: "right\n"}
	b.session(in, nil, "right\n", ricjs.Stats{}, false)
	b.session(in, nil, "wrong\n", ricjs.Stats{}, false)
	if b.attempted.Load() != 2 || b.failed.Load() != 1 {
		t.Errorf("attempted=%d failed=%d, want 2 and 1", b.attempted.Load(), b.failed.Load())
	}
}

// TestScheduleIsSeeded checks that a seed fixes the schedule byte for byte
// and that another seed changes it.
func TestScheduleIsSeeded(t *testing.T) {
	set := generateInputs()
	m := newMix(set.profiles, zipfS, churnShare, set.corpus)
	a := formatSchedule(schedule(1, poolRate, 2e9, m))
	if b := formatSchedule(schedule(1, poolRate, 2e9, m)); a != b {
		t.Error("the same seed gave two different schedules")
	}
	if c := formatSchedule(schedule(2, poolRate, 2e9, m)); a == c {
		t.Error("seeds 1 and 2 gave the same schedule")
	}
	if n := strings.Count(a, "\n"); n < 400 || n > 800 {
		t.Errorf("%d arrivals in 2 s at %g/s", n, poolRate)
	}
}

// formatSchedule renders a schedule byte for byte, for the determinism check.
func formatSchedule(arrivals []arrival) string {
	var b strings.Builder
	for _, a := range arrivals {
		fmt.Fprintf(&b, "%d %s\n", a.at.Nanoseconds(), a.in.key)
	}
	return b.String()
}
