// Command benchmark measures the ricjs engine from outside, end to end and
// layer by layer, on four workloads: reuse-startup, first-visit,
// pool-steady and pool-churn. See README.md.
//
//	go run . --workload pool-steady --seed 1 --seconds 12 --trace 0
//
// The last line of output is a JSON summary: with --trace 0 it holds the
// end-to-end metrics, with --trace 1 the per-layer metrics, and the traced
// run also writes its spans as Chrome trace JSON. --workload all runs
// every workload, each in its own child process.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"ricjs"
)

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	jsonOut  string
	// scratch holds the run's temporary record stores.
	scratch string
	// profiles, when set, restricts the workload to these profiles.
	profiles []string
}

func (c config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fl.SetOutput(stderr)
	cfg := config{scratch: ".bench_build"}
	var trace int
	var regen bool
	names := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		names[i] = w.name
	}
	fl.StringVar(&cfg.workload, "workload", "all", "workload to run: "+strings.Join(names, ", ")+", or all")
	fl.Uint64Var(&cfg.seed, "seed", 1, "seed for the workload's schedule")
	fl.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured window")
	fl.IntVar(&trace, "trace", 0, "1 runs the traced variant: per-layer metrics and a Chrome trace")
	fl.StringVar(&cfg.traceOut, "trace-out", "", "Chrome trace file of a traced run (default .bench_build/trace-<workload>-<seed>.json)")
	fl.StringVar(&cfg.jsonOut, "json", "", "also write the full result, with host fingerprint and sample counts, to this file")
	fl.BoolVar(&regen, "regen-oracle", false, "regenerate testdata/expected and testdata/inputs.sha256 with node, from the benchmark directory")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() > 0 || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fl.Usage()
		return 2
	}
	cfg.trace = trace == 1
	if regen {
		if err := regenOracle(cfg.scratch); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	if cfg.workload == "all" {
		return runAll(args, cfg, stdout, stderr)
	}
	if _, ok := findWorkload(cfg.workload); !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", cfg.workload)
		return 2
	}
	if cfg.trace && cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(cfg.scratch, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if cfg.jsonOut != "" {
		raw, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(cfg.jsonOut, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if err := report(stdout, res); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process, so that heap, GC
// state and peak RSS do not carry over from one workload to the next.
// Each child gets the same flags, with the workload and the names of any
// output files appended; the last value of a repeated flag wins.
func runAll(args []string, cfg config, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, w := range allWorkloads {
		child := append(append([]string(nil), args...), "--workload", w.name)
		for name, path := range map[string]string{"json": cfg.jsonOut, "trace-out": cfg.traceOut} {
			if path != "" {
				ext := filepath.Ext(path)
				child = append(child, "--"+name, strings.TrimSuffix(path, ext)+"-"+w.name+ext)
			}
		}
		cmd := exec.Command(self, child...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// runWorkload sets up one workload, measures it, and computes its metrics.
func runWorkload(cfg config) (*result, error) {
	w, _ := findWorkload(cfg.workload)
	start := time.Now()
	set, err := loadInputs()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.scratch, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	b := &bench{cfg: cfg, set: set, start: start, tmp: tmp, records: make(map[string]int)}
	for _, in := range set.profiles {
		if len(cfg.profiles) == 0 || slices.Contains(cfg.profiles, in.key) {
			b.hot = append(b.hot, in)
		}
	}
	if cfg.trace {
		b.tr = newTracer()
	}
	b.fs = &timingFS{base: ricjs.NewOSFS(), tr: b.tr}
	if err := w.run(b); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	res := &result{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Workers: workers,
		Attempted: b.attempted.Load(), Failed: b.failed.Load(), Errors: b.errs, Host: fingerprint(),
	}
	res.Correct = res.Failed == 0
	res.Metrics, res.Info, res.Classes = b.endToEnd(), b.info(), classes(b.samples)
	if cfg.trace {
		layers, err := b.layers()
		if err != nil {
			return nil, fmt.Errorf("%s: trace: %w", w.name, err)
		}
		// The traced run's end-to-end numbers are reported alongside, so
		// that the difference from an untraced run shows tracing overhead.
		res.Metrics, res.Info = layers, append(res.Metrics, res.Info...)
	}
	return res, nil
}
