// Command riclint verifies .ric record files offline — without executing
// any JavaScript. Each record is checked in four layers:
//
//  1. integrity: the wire format, version, and checksum (Decode);
//  2. site existence: every site reference must resolve to a live access
//     site in the compiled scripts (Record.Validate);
//  3. semantic cross-check: the HC validation table, triggering-site
//     table, and handler offsets must be consistent with a static shape
//     analysis of the scripts (Record.VerifyStatic) — catching
//     checksum-valid records that lie (remapped ids, skewed offsets);
//  4. typed-shape soundness: every slot-type claim in the record must be
//     at or above what the value-type lattice infers for that slot from
//     bytecode (Record.VerifyTyped) — catching forged claims that would
//     let a Reuse session serve unboxed reads of differently-typed slots.
//
// Scripts are supplied with repeated -js flags mapping the script name a
// record uses to a source file. Records referencing scripts that were not
// supplied are checked against the layers that do not need source (a
// record from a multi-script session legitimately spans scripts a
// session never loads).
//
// Usage:
//
//	riclint -js lib.js=testdata/point.js testdata/point.ric [more.ric ...]
//
// All inputs are processed; the exit status is 1 if any record was
// rejected.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ricjs/internal/analysis"
	"ricjs/internal/bytecode"
	"ricjs/internal/parser"
	"ricjs/internal/ric"
)

// jsFlags collects repeated -js name=path mappings.
type jsFlags []string

func (f *jsFlags) String() string { return strings.Join(*f, ",") }

func (f *jsFlags) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*f = append(*f, v)
	return nil
}

func main() {
	var scripts jsFlags
	flag.Var(&scripts, "js", "script mapping name=path (repeatable)")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: riclint [-js name=path ...] record.ric [more.ric ...]")
		os.Exit(2)
	}

	var progs []*bytecode.Program
	for _, m := range scripts {
		eq := strings.Index(m, "=")
		name, path := m[:eq], m[eq+1:]
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "riclint:", err)
			os.Exit(2)
		}
		ast, err := parser.Parse(name, string(src))
		if err != nil {
			fmt.Fprintln(os.Stderr, "riclint:", err)
			os.Exit(2)
		}
		prog, err := bytecode.Compile(ast)
		if err != nil {
			fmt.Fprintln(os.Stderr, "riclint:", err)
			os.Exit(2)
		}
		progs = append(progs, prog)
	}
	res := analysis.Analyze(progs...)
	if res.GlobalTop() {
		fmt.Fprintln(os.Stderr, "riclint: warning: analysis widened to ⊤; semantic checks are vacuous")
	}

	failed := 0
	for _, path := range flag.Args() {
		if err := lint(path, progs, res); err != nil {
			fmt.Fprintf(os.Stderr, "riclint: %s: REJECTED: %v\n", path, err)
			failed++
			continue
		}
		fmt.Printf("riclint: %s: ok\n", path)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

func lint(path string, progs []*bytecode.Program, res *analysis.Result) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	rec, err := ric.Decode(data)
	if err != nil {
		return err
	}
	if err := rec.Validate(progs...); err != nil {
		return err
	}
	if err := rec.VerifyStatic(res); err != nil {
		return err
	}
	return rec.VerifyTyped(res)
}
