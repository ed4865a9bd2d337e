package bench

import (
	"fmt"
	"path"
	"sort"
	"strings"
	"time"

	"ricjs"
	"ricjs/internal/analysis"
	"ricjs/internal/bytecode"
	"ricjs/internal/parser"
	"ricjs/internal/ric"
	"ricjs/internal/workloads"
)

// LibraryRun aggregates every measurement of one library across the three
// run kinds the paper compares: the Initial run (builds IC state), the
// Conventional Reuse run (code cache only — V8's baseline), and the RIC
// Reuse run (code cache + ICRecord).
type LibraryRun struct {
	Name string

	Initial ricjs.Stats
	Conv    ricjs.Stats
	RIC     ricjs.Stats

	ConvTime time.Duration
	RICTime  time.Duration

	ExtractTime  time.Duration
	RecordBytes  int
	RecordStats  RecordStats
	StaticTypes  StaticTypeStats
	ValidatedHCs int
	// ResidentBytes is what the caches charge for the library's compiled
	// program and its decoded record (bytecode.Program.ResidentBytes plus
	// ric.Record.ResidentBytes).
	ResidentBytes int
}

// RecordStats mirrors the extraction statistics without re-exporting the
// internal type.
type RecordStats struct {
	HiddenClasses   int
	TriggeringSites int
	DependentSlots  int
	RejectedSites   int
}

// StaticTypeStats summarizes what the offline typed-shape analysis
// inferred for one library. Extraction runs no analysis; MeasureLibrary
// computes these outside the timed extraction.
type StaticTypeStats struct {
	SitesAnalyzed int
	TypedShapes   int
	TypedSlots    int
}

// InstrReduction returns the fractional dynamic-instruction reduction of
// the RIC Reuse run against the Conventional one (Figure 8's quantity).
func (r LibraryRun) InstrReduction() float64 {
	c := float64(r.Conv.TotalInstr())
	if c == 0 {
		return 0
	}
	return 1 - float64(r.RIC.TotalInstr())/c
}

// TimeReduction returns the fractional execution-time reduction (Figure
// 9's quantity).
func (r LibraryRun) TimeReduction() float64 {
	if r.ConvTime == 0 {
		return 0
	}
	return 1 - float64(r.RICTime)/float64(r.ConvTime)
}

// Options configures measurement.
type Options struct {
	// Reps is how many times each timed Reuse run repeats; the median
	// wall time is reported. Statistics come from the first rep (they are
	// deterministic across reps).
	Reps int
	// IncludeGlobals extends RIC to global-object state (ablation).
	IncludeGlobals bool
	// Workloads restricts measurement to profiles whose Name or Kind
	// matches this path.Match glob (empty means all). "Json*" picks the
	// JSON pipeline, "dict" every dictionary-regime family, "*" all.
	Workloads string
}

// matchesWorkloads reports whether opts selects profile p. Matching is
// case-insensitive: profile names mix caps freely (JSONPipe, jQuery).
func (o Options) matchesWorkloads(p workloads.Profile) (bool, error) {
	if o.Workloads == "" {
		return true, nil
	}
	pat := strings.ToLower(o.Workloads)
	byName, err := path.Match(pat, strings.ToLower(p.Name))
	if err != nil {
		return false, fmt.Errorf("bench: bad -workloads pattern %q: %w", o.Workloads, err)
	}
	byKind, _ := path.Match(pat, strings.ToLower(p.Kind))
	return byName || byKind, nil
}

func (o Options) reps() int {
	if o.Reps <= 0 {
		return 5
	}
	return o.Reps
}

// MeasureLibrary runs the full Initial → extract → Reuse pipeline for one
// library.
func MeasureLibrary(p workloads.Profile, opts Options) (LibraryRun, error) {
	src := p.Source()
	cache := ricjs.NewCodeCache()

	// Prime the code cache so both Reuse variants skip compilation, as in
	// the paper's methodology (§6: "The Reuse run uses the bytecodes from
	// the code cache").
	initial := ricjs.NewEngine(ricjs.Options{Cache: cache, IncludeGlobals: opts.IncludeGlobals})
	if err := initial.Run(p.Script, src); err != nil {
		return LibraryRun{}, err
	}

	extractStart := time.Now()
	record := initial.ExtractRecord(p.Name)
	extractTime := time.Since(extractStart)
	encoded := record.Encode()

	run := LibraryRun{
		Name:        p.Name,
		Initial:     initial.Stats(),
		ExtractTime: extractTime,
		RecordBytes: len(encoded),
		RecordStats: RecordStats{
			HiddenClasses:   record.Stats().HiddenClasses,
			TriggeringSites: record.Stats().TriggeringSites,
			DependentSlots:  record.Stats().DependentSlots,
			RejectedSites:   record.Stats().RejectedSites,
		},
	}
	prog, err := compile(p.Script, src)
	if err != nil {
		return LibraryRun{}, err
	}
	run.StaticTypes = analyzeOffline(prog)
	decoded, err := ric.Decode(encoded)
	if err != nil {
		return LibraryRun{}, err
	}
	run.ResidentBytes = prog.ResidentBytes() + decoded.ResidentBytes()

	// Two warmup rounds settle allocator and cache state before timing;
	// the first round also captures the (deterministic) statistics.
	const warmups = 2
	convTimes := make([]time.Duration, 0, opts.reps())
	ricTimes := make([]time.Duration, 0, opts.reps())
	for i := 0; i < warmups+opts.reps(); i++ {
		conv := ricjs.NewEngine(ricjs.Options{Cache: cache})
		start := time.Now()
		if err := conv.Run(p.Script, src); err != nil {
			return LibraryRun{}, err
		}
		if i >= warmups {
			convTimes = append(convTimes, time.Since(start))
		}
		if i == 0 {
			run.Conv = conv.Stats()
		}

		reuse := ricjs.NewEngine(ricjs.Options{Cache: cache, Record: record})
		start = time.Now()
		if err := reuse.Run(p.Script, src); err != nil {
			return LibraryRun{}, err
		}
		if i >= warmups {
			ricTimes = append(ricTimes, time.Since(start))
		}
		if i == 0 {
			run.RIC = reuse.Stats()
			run.ValidatedHCs = reuse.ValidatedHCs()
		}
	}
	run.ConvTime = median(convTimes)
	run.RICTime = median(ricTimes)
	return run, nil
}

// compile parses and compiles one script outside any code cache.
func compile(name, src string) (*bytecode.Program, error) {
	ast, err := parser.Parse(name, src)
	if err != nil {
		return nil, err
	}
	return bytecode.Compile(ast)
}

// analyzeOffline runs the static value-type analysis over one compiled
// script, summarizing the typed-shape inference the perf gate floors.
func analyzeOffline(prog *bytecode.Program) StaticTypeStats {
	res := analysis.Analyze(prog)
	var st StaticTypeStats
	st.SitesAnalyzed = len(res.Sites())
	st.TypedShapes, st.TypedSlots = res.TypedStats()
	return st
}

// MeasureAll measures every library of Table 3 plus the workload zoo,
// optionally filtered by the Workloads glob.
func MeasureAll(opts Options) ([]LibraryRun, error) {
	runs := make([]LibraryRun, 0, len(workloads.Profiles))
	for _, p := range workloads.Profiles {
		ok, err := opts.matchesWorkloads(p)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		r, err := MeasureLibrary(p, opts)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("bench: -workloads pattern %q matches no profile (have %v)",
			opts.Workloads, workloads.Names())
	}
	return runs, nil
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration{}, ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}

// WebsiteRun holds the cross-website robustness measurement (§6): the
// record is generated on website 1 and consumed on website 2, which loads
// the same seven libraries in a different order.
type WebsiteRun struct {
	Conv ricjs.Stats
	RIC  ricjs.Stats
}

// MeasureWebsites produces the record on website 1 and reuses it on
// website 2.
func MeasureWebsites(opts Options) (WebsiteRun, error) {
	cache := ricjs.NewCodeCache()

	initial := ricjs.NewEngine(ricjs.Options{Cache: cache, IncludeGlobals: opts.IncludeGlobals})
	for _, s := range workloads.Website(1) {
		if err := initial.Run(s.Name, s.Source); err != nil {
			return WebsiteRun{}, err
		}
	}
	record := initial.ExtractRecord("website1")

	conv := ricjs.NewEngine(ricjs.Options{Cache: cache})
	for _, s := range workloads.Website(2) {
		if err := conv.Run(s.Name, s.Source); err != nil {
			return WebsiteRun{}, err
		}
	}
	reuse := ricjs.NewEngine(ricjs.Options{Cache: cache, Record: record})
	for _, s := range workloads.Website(2) {
		if err := reuse.Run(s.Name, s.Source); err != nil {
			return WebsiteRun{}, err
		}
	}
	return WebsiteRun{Conv: conv.Stats(), RIC: reuse.Stats()}, nil
}
