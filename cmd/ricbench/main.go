// Command ricbench regenerates every table and figure of the paper's
// evaluation against the engine in this repository.
//
// Usage:
//
//	ricbench                  # all experiments
//	ricbench -table1          # one experiment
//	ricbench -reps 9          # more timing repetitions
//	ricbench -ablation        # design-choice ablations
//	ricbench -cpuprofile cpu.pprof -memprofile mem.pprof  # profile the run
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"ricjs/internal/bench"
)

func main() {
	var (
		fig1       = flag.Bool("fig1", false, "Figure 1: motivation trend data")
		fig5       = flag.Bool("fig5", false, "Figure 5: instruction breakdown during initialization")
		table1     = flag.Bool("table1", false, "Table 1: IC statistics in the Initial run")
		table4     = flag.Bool("table4", false, "Table 4: IC miss rates, Initial vs Reuse")
		fig8       = flag.Bool("fig8", false, "Figure 8: normalized instruction count of Reuse runs")
		fig9       = flag.Bool("fig9", false, "Figure 9: normalized execution time of Reuse runs")
		overheads  = flag.Bool("overheads", false, "Section 7.3: extraction time and record size")
		websites   = flag.Bool("websites", false, "cross-website reuse robustness")
		ablation   = flag.Bool("ablation", false, "design-choice ablations")
		faults     = flag.Bool("faults", false, "fault-injection sweep: corrupted records vs conventional runs")
		faultSeed  = flag.Int64("fault-seed", 1, "seed for the deterministic fault injector")
		traceF     = flag.Bool("trace", false, "structured IC-event totals, Initial vs Reuse run")
		reps       = flag.Int("reps", 5, "timing repetitions per extraction and Reuse run (median reported)")
		workloadsF = flag.String("workloads", "", "glob over workload names or kinds to measure (e.g. 'Json*', 'keyed'; default all)")
		format     = flag.String("format", "text", "output format: text or json (json runs the full evaluation)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	// Profiling hooks so hot-path claims in perf changes are inspectable
	// with `go tool pprof` against the very binary that produced the
	// evaluation numbers. Deferred teardown runs on every exit path below
	// except the os.Exit error paths, which have nothing worth profiling.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ricbench: -cpuprofile:", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "ricbench: -cpuprofile:", err)
			os.Exit(2)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ricbench: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap numbers before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ricbench: -memprofile:", err)
			}
		}()
	}

	if *format == "json" {
		// A failed evaluation emits nothing (plus a nonzero exit): stdout
		// never carries a partial JSON document, because the whole document
		// is marshaled to memory and written in one piece at the end.
		runs, err := bench.MeasureAll(bench.Options{Reps: *reps, Workloads: *workloadsF})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ricbench:", err)
			os.Exit(1)
		}
		wr, err := bench.MeasureWebsites(bench.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ricbench:", err)
			os.Exit(1)
		}
		var buf bytes.Buffer
		if err := bench.WriteJSON(&buf, runs, &wr); err != nil {
			fmt.Fprintln(os.Stderr, "ricbench:", err)
			os.Exit(1)
		}
		if _, err := os.Stdout.Write(buf.Bytes()); err != nil {
			fmt.Fprintln(os.Stderr, "ricbench:", err)
			os.Exit(1)
		}
		return
	}
	if *format != "text" {
		fmt.Fprintf(os.Stderr, "ricbench: unknown format %q\n", *format)
		os.Exit(2)
	}

	all := !(*fig1 || *fig5 || *table1 || *table4 || *fig8 || *fig9 ||
		*overheads || *websites || *ablation || *faults ||
		*traceF)

	needRuns := all || *fig5 || *table1 || *table4 || *fig8 || *fig9 || *overheads
	var runs []bench.LibraryRun
	if needRuns {
		var err error
		runs, err = bench.MeasureAll(bench.Options{Reps: *reps, Workloads: *workloadsF})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ricbench:", err)
			os.Exit(1)
		}
	}

	section := func(enabled bool, f func()) {
		if all || enabled {
			f()
			fmt.Println()
		}
	}

	section(*fig1, func() { bench.ReportFigure1(os.Stdout) })
	section(*fig5, func() { bench.ReportFigure5(os.Stdout, runs) })
	section(*table1, func() { bench.ReportTable1(os.Stdout, runs) })
	section(*table4, func() { bench.ReportTable4(os.Stdout, runs) })
	section(*fig8, func() { bench.ReportFigure8(os.Stdout, runs) })
	section(*fig9, func() { bench.ReportFigure9(os.Stdout, runs) })
	section(*overheads, func() { bench.ReportOverheads(os.Stdout, runs) })
	section(*websites, func() {
		wr, err := bench.MeasureWebsites(bench.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ricbench:", err)
			os.Exit(1)
		}
		bench.ReportWebsites(os.Stdout, wr)
	})
	section(*faults, func() {
		trials, err := bench.FaultSweep(*faultSeed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ricbench:", err)
			os.Exit(1)
		}
		bench.ReportFaults(os.Stdout, trials)
		for _, trial := range trials {
			if !trial.OK() {
				os.Exit(1)
			}
		}
	})
	section(*ablation, func() {
		if err := bench.ReportAblations(os.Stdout, bench.Options{Reps: *reps}); err != nil {
			fmt.Fprintln(os.Stderr, "ricbench:", err)
			os.Exit(1)
		}
	})
	// The trace section is opt-in only (never part of `all`): its totals
	// restate the Table 1/4 aggregates at per-event granularity.
	if *traceF {
		runs, err := bench.MeasureTraces()
		if err != nil {
			fmt.Fprintln(os.Stderr, "ricbench:", err)
			os.Exit(1)
		}
		bench.ReportTraces(os.Stdout, runs)
		fmt.Println()
	}
}
