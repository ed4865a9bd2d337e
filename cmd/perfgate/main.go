// Command perfgate enforces the deterministic performance baseline.
//
// The engine's instruction counts and record sizes are bit-for-bit
// reproducible (the profiler charges fixed costs per operation and the
// codec is deterministic), so they can be gated exactly, with zero flake —
// unlike wall-clock timings, which perfgate deliberately ignores. The gate
// diffs `conventionalInstructions`, `ricInstructions`, `recordBytes` and
// `residentBytes` (what the code cache and the record cache charge for the
// compiled program and the decoded record, fixed by the build's struct
// sizes and the allocator's size classes) per workload against the committed BENCH_baseline.json and fails on any
// regression beyond the tolerance (default 2%). `typedSlots` is gated in
// the opposite direction — it counts the slot-type claims the offline
// analysis inferred (ricbench runs it outside the timed extraction), so a
// drop means typed-shape inference silently lost coverage.
//
// Usage:
//
//	ricbench -format json | perfgate -baseline BENCH_baseline.json
//	ricbench -format json | perfgate -baseline BENCH_baseline.json -write   # refresh after a legitimate improvement
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// gated is the reduced per-workload schema the baseline stores: only the
// deterministic counters, so timing noise never churns the committed file.
type gated struct {
	Name                     string `json:"name"`
	ConventionalInstructions uint64 `json:"conventionalInstructions"`
	RICInstructions          uint64 `json:"ricInstructions"`
	RecordBytes              uint64 `json:"recordBytes"`
	ResidentBytes            uint64 `json:"residentBytes"`
	StaticTypes              struct {
		TypedSlots uint64 `json:"typedSlots"`
	} `json:"staticTypes"`
}

type baseline struct {
	Workloads []gated `json:"workloads"`
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "committed baseline file")
	write := flag.Bool("write", false, "write the current numbers as the new baseline instead of checking")
	tolerance := flag.Float64("tolerance", 2.0, "maximum allowed regression, percent")
	flag.Parse()

	var bench struct {
		Libraries []gated `json:"libraries"`
	}
	if err := json.NewDecoder(io.LimitReader(os.Stdin, 16<<20)).Decode(&bench); err != nil {
		fmt.Fprintln(os.Stderr, "perfgate: reading ricbench JSON from stdin:", err)
		os.Exit(2)
	}
	if len(bench.Libraries) == 0 {
		fmt.Fprintln(os.Stderr, "perfgate: no workloads in input (expected `ricbench -format json` output)")
		os.Exit(2)
	}
	current := baseline{Workloads: bench.Libraries}

	if *write {
		data, err := json.MarshalIndent(current, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfgate:", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*baselinePath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfgate:", err)
			os.Exit(2)
		}
		fmt.Printf("perfgate: wrote %s (%d workloads)\n", *baselinePath, len(current.Workloads))
		return
	}

	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfgate: %v\nperfgate: generate it with: ricbench -format json | perfgate -baseline %s -write\n", err, *baselinePath)
		os.Exit(2)
	}
	var base baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "perfgate: %s: %v\n", *baselinePath, err)
		os.Exit(2)
	}
	byName := make(map[string]gated, len(base.Workloads))
	for _, w := range base.Workloads {
		byName[w.Name] = w
	}

	regressions, improvements := 0, 0
	check := func(workload, metric string, old, now uint64) {
		if old == now {
			return
		}
		delta := (float64(now) - float64(old)) / float64(old) * 100
		switch {
		case delta > *tolerance:
			fmt.Printf("perfgate: REGRESSION %-14s %-26s %12d -> %12d  %+.2f%% (limit %+.2f%%)\n",
				workload, metric, old, now, delta, *tolerance)
			regressions++
		default:
			fmt.Printf("perfgate: change     %-14s %-26s %12d -> %12d  %+.2f%%\n",
				workload, metric, old, now, delta)
			if delta < 0 {
				improvements++
			}
		}
	}
	// checkFloor gates a counter where MORE is better (typed slot claims):
	// a drop beyond the tolerance means the typed pipeline silently lost
	// coverage, which no runtime test would catch — outputs stay correct.
	checkFloor := func(workload, metric string, old, now uint64) {
		if old == now {
			return
		}
		if old == 0 {
			// A metric absent from the committed baseline (0) appearing now
			// is a new capability, not a delta; -write records it.
			fmt.Printf("perfgate: change     %-14s %-26s %12d -> %12d  (new metric)\n",
				workload, metric, old, now)
			improvements++
			return
		}
		delta := (float64(now) - float64(old)) / float64(old) * 100
		if -delta > *tolerance {
			fmt.Printf("perfgate: REGRESSION %-14s %-26s %12d -> %12d  %+.2f%% (floor %+.2f%%)\n",
				workload, metric, old, now, delta, -*tolerance)
			regressions++
			return
		}
		fmt.Printf("perfgate: change     %-14s %-26s %12d -> %12d  %+.2f%%\n",
			workload, metric, old, now, delta)
		if delta > 0 {
			improvements++
		}
	}
	for _, w := range current.Workloads {
		old, ok := byName[w.Name]
		if !ok {
			fmt.Printf("perfgate: new workload %q not in baseline\n", w.Name)
			regressions++
			continue
		}
		delete(byName, w.Name)
		check(w.Name, "conventionalInstructions", old.ConventionalInstructions, w.ConventionalInstructions)
		check(w.Name, "ricInstructions", old.RICInstructions, w.RICInstructions)
		check(w.Name, "recordBytes", old.RecordBytes, w.RecordBytes)
		check(w.Name, "residentBytes", old.ResidentBytes, w.ResidentBytes)
		checkFloor(w.Name, "typedSlots", old.StaticTypes.TypedSlots, w.StaticTypes.TypedSlots)
	}
	for name := range byName {
		fmt.Printf("perfgate: workload %q disappeared from the benchmark\n", name)
		regressions++
	}

	switch {
	case regressions > 0:
		fmt.Printf("perfgate: FAIL: %d regression(s)\n", regressions)
		os.Exit(1)
	case improvements > 0:
		fmt.Printf("perfgate: PASS with %d improvement(s) — refresh the baseline with -write and commit it\n", improvements)
	default:
		fmt.Printf("perfgate: PASS: %d workloads match the baseline\n", len(current.Workloads))
	}
}
