// Command ricjs runs JavaScript files on the engine, optionally producing
// an ICRecord after the run (the Initial run + extraction phase) or
// consuming one (the Reuse run).
//
// Usage:
//
//	ricjs script.js                      # plain run
//	ricjs -record lib.ric lib.js         # Initial run; extract record
//	ricjs -reuse lib.ric lib.js          # Reuse run with the record
//	ricjs -stats lib.js                  # print IC statistics
//	ricjs -trace out.jsonl lib.js        # write the structured IC-event trace
//	ricjs -dump lib.ric                  # inspect a record file
//
// Several scripts can be given; they run in order in one engine, like a
// website loading several libraries.
//
// The trace file is JSONL (one event per line) by default;
// -trace-format chrome writes the Chrome trace_event format instead, which
// chrome://tracing and https://ui.perfetto.dev load directly.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"ricjs"
	"ricjs/internal/trace"
)

func main() {
	var (
		recordOut = flag.String("record", "", "after the run, extract an ICRecord and write it to this file")
		reuseIn   = flag.String("reuse", "", "run with the ICRecord read from this file")
		stats     = flag.Bool("stats", false, "print IC statistics after the run")
		icstate   = flag.Bool("icstate", false, "dump the final ICVector states after the run")
		globals   = flag.Bool("globals", false, "include global-object state in RIC extraction")
		dump      = flag.String("dump", "", "print a summary of a record file and exit")
		traceOut  = flag.String("trace", "", "write the structured IC-event trace to this file")
		traceFmt  = flag.String("trace-format", "jsonl", "trace file format: jsonl or chrome (chrome://tracing / Perfetto)")
	)
	flag.Parse()

	if *dump != "" {
		if err := dumpRecord(*dump); err != nil {
			fail(err)
		}
		return
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: ricjs [flags] script.js [more.js ...]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *recordOut != "" && *reuseIn != "" {
		fail(fmt.Errorf("-record and -reuse are mutually exclusive (an Initial run builds a record; a Reuse run consumes one)"))
	}

	opts := ricjs.Options{Stdout: os.Stdout, IncludeGlobals: *globals}
	if *traceOut != "" {
		if *traceFmt != "jsonl" && *traceFmt != "chrome" {
			fail(fmt.Errorf("unknown -trace-format %q (want jsonl or chrome)", *traceFmt))
		}
		opts.Trace = ricjs.NewTrace(0)
	}
	if *reuseIn != "" {
		data, err := os.ReadFile(*reuseIn)
		if err != nil {
			fail(err)
		}
		rec, err := ricjs.DecodeRecord(data)
		if err != nil {
			fail(err)
		}
		opts.Record = rec
	}

	engine := ricjs.NewEngine(opts)
	for _, path := range flag.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fail(err)
		}
		if err := engine.Run(filepath.Base(path), string(src)); err != nil {
			fail(err)
		}
	}

	if *recordOut != "" {
		rec := engine.ExtractRecord(filepath.Base(flag.Arg(0)))
		if err := os.WriteFile(*recordOut, rec.Encode(), 0o644); err != nil {
			fail(err)
		}
		s := rec.Stats()
		fmt.Fprintf(os.Stderr, "ricjs: wrote %s: %d hidden classes, %d triggering sites, %d dependent slots\n",
			*recordOut, s.HiddenClasses, s.TriggeringSites, s.DependentSlots)
	}

	if *traceOut != "" {
		if err := writeTrace(*traceOut, *traceFmt, engine.Trace()); err != nil {
			fail(err)
		}
	}

	if *stats {
		printStats(engine)
	}
	if *icstate {
		fmt.Fprint(os.Stderr, engine.ICState())
	}
}

// writeTrace exports the run's event stream in the requested format.
func writeTrace(path, format string, buf *trace.Buffer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	events := buf.Events()
	if format == "chrome" {
		err = trace.WriteChromeTrace(f, events)
	} else {
		err = trace.WriteJSONL(f, events)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if dropped := buf.Dropped(); dropped > 0 {
		fmt.Fprintf(os.Stderr, "ricjs: trace ring dropped %d early events (of %d); aggregate counts are unaffected\n",
			dropped, buf.Len())
	}
	return nil
}

func printStats(e *ricjs.Engine) {
	s := e.Stats()
	fmt.Fprintf(os.Stderr, "instructions: %d (rest %d, ic-miss %d, miss share %.1f%%)\n",
		s.TotalInstr(), s.InstrRest, s.InstrICMiss, 100*s.ICMissShare())
	fmt.Fprintf(os.Stderr, "IC: %d accesses, %d hits, %d misses (rate %.2f%%)\n",
		s.ICAccesses(), s.ICHits, s.ICMisses, s.MissRate())
	fmt.Fprintf(os.Stderr, "miss breakdown: handler %d, global %d, other %d\n",
		s.MissHandler, s.MissGlobal, s.MissOther)
	fmt.Fprintf(os.Stderr, "hidden classes created: %d; handlers: %d (%.1f%% context-independent)\n",
		s.HCCreated, s.HandlersMade, s.ContextIndependentShare())
	if s.Preloads > 0 || s.Validations > 0 {
		fmt.Fprintf(os.Stderr, "RIC: %d validations (%d failures), %d preloads, %d misses averted\n",
			s.Validations, s.ValFailures, s.Preloads, s.MissesSaved)
	}
}

func dumpRecord(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	rec, err := ricjs.DecodeRecord(data)
	if err != nil {
		return err
	}
	s := rec.Stats()
	fmt.Printf("ICRecord %q (%d bytes)\n", rec.Label(), len(data))
	fmt.Printf("  hidden classes:    %d\n", s.HiddenClasses)
	fmt.Printf("  triggering sites:  %d\n", s.TriggeringSites)
	fmt.Printf("  builtin entries:   %d\n", s.BuiltinEntries)
	fmt.Printf("  dependent slots:   %d\n", s.DependentSlots)
	fmt.Printf("  rejected sites:    %d (context-dependent handlers)\n", s.RejectedSites)
	fmt.Printf("  typed slot claims: %d\n", s.TypedSlotClaims)
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ricjs:", err)
	os.Exit(1)
}
