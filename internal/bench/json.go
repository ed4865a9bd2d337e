package bench

import (
	"encoding/json"
	"io"
	"time"

	"ricjs/internal/profiler"
)

// JSONResults is the machine-readable form of a full evaluation, consumed
// by plotting scripts or CI regression checks.
type JSONResults struct {
	Libraries []JSONLibrary    `json:"libraries"`
	Averages  JSONAverages     `json:"averages"`
	Website   *JSONWebsite     `json:"website,omitempty"`
	OpStats   *JSONOpStats     `json:"opStats,omitempty"`
	Paper     JSONPaperAnchors `json:"paper"`
	// Errors lists measurements that failed after the core evaluation
	// succeeded (e.g. the opstats block). The document is still
	// complete and parseable; ricbench exits nonzero when it is non-empty.
	Errors []string `json:"errors,omitempty"`
}

// JSONLibrary carries one library's measurements across the three runs.
type JSONLibrary struct {
	Name string `json:"name"`

	// Table 1 (Initial run).
	HiddenClasses       uint64  `json:"hiddenClasses"`
	ICMisses            uint64  `json:"icMisses"`
	MissesPerHC         float64 `json:"missesPerHiddenClass"`
	CIHandlerSharePct   float64 `json:"contextIndependentHandlerPct"`
	InitialMissRatePct  float64 `json:"initialMissRatePct"`
	ICMissInstrSharePct float64 `json:"icMissInstructionSharePct"`

	// Table 4 (RIC Reuse run).
	ReuseMissRatePct float64 `json:"reuseMissRatePct"`
	MissHandlerPct   float64 `json:"missHandlerPct"`
	MissGlobalPct    float64 `json:"missGlobalPct"`
	MissOtherPct     float64 `json:"missOtherPct"`

	// Figures 8 and 9.
	ConvInstructions uint64  `json:"conventionalInstructions"`
	RICInstructions  uint64  `json:"ricInstructions"`
	InstrRatioPct    float64 `json:"instructionRatioPct"`
	ConvTimeMs       float64 `json:"conventionalTimeMs"`
	RICTimeMs        float64 `json:"ricTimeMs"`
	TimeRatioPct     float64 `json:"timeRatioPct"`

	// Section 7.3.
	ExtractTimeMs  float64 `json:"extractTimeMs"`
	RecordBytes    int     `json:"recordBytes"`
	DependentSlots int     `json:"dependentSlots"`
	MissesAverted  uint64  `json:"missesAverted"`

	// Typed-shape static inference: what the extraction-time analysis
	// inferred.
	StaticTypes JSONStaticTypes `json:"staticTypes"`
}

// JSONStaticTypes is one library's typed-shape summary. All three values
// are deterministic, so perfgate floors typedSlots exactly.
type JSONStaticTypes struct {
	SitesAnalyzed int `json:"sitesAnalyzed"`
	TypedShapes   int `json:"typedShapes"`
	TypedSlots    int `json:"typedSlots"`
}

// JSONAverages carries the headline averages.
type JSONAverages struct {
	InitialMissRatePct  float64 `json:"initialMissRatePct"`
	ReuseMissRatePct    float64 `json:"reuseMissRatePct"`
	InstrRatioPct       float64 `json:"instructionRatioPct"`
	TimeRatioPct        float64 `json:"timeRatioPct"`
	ICMissInstrSharePct float64 `json:"icMissInstructionSharePct"`
}

// JSONWebsite carries the cross-website robustness result.
type JSONWebsite struct {
	ConvMissRatePct float64 `json:"conventionalMissRatePct"`
	RICMissRatePct  float64 `json:"ricMissRatePct"`
	MissesAverted   uint64  `json:"missesAverted"`
}

// JSONPaperAnchors embeds the paper's headline numbers for side-by-side
// comparison in downstream tooling.
type JSONPaperAnchors struct {
	InitialMissRatePct  float64 `json:"initialMissRatePct"`
	ReuseMissRatePct    float64 `json:"reuseMissRatePct"`
	InstrRatioPct       float64 `json:"instructionRatioPct"`
	TimeRatioPct        float64 `json:"timeRatioPct"`
	ICMissInstrSharePct float64 `json:"icMissInstructionSharePct"`
}

// BuildJSON assembles the machine-readable results.
func BuildJSON(runs []LibraryRun, website *WebsiteRun) JSONResults {
	out := JSONResults{
		Paper: JSONPaperAnchors{
			InitialMissRatePct:  49.19,
			ReuseMissRatePct:    24.08,
			InstrRatioPct:       100 * (1 - Figure8PaperAvgReduction),
			TimeRatioPct:        100 * (1 - Figure9PaperAvgReduction),
			ICMissInstrSharePct: 100 * Figure5PaperAvgMissShare,
		},
	}
	n := float64(len(runs))
	for _, r := range runs {
		lib := JSONLibrary{
			Name:                r.Name,
			HiddenClasses:       r.Initial.HCCreated,
			ICMisses:            r.Initial.ICMisses,
			MissesPerHC:         r.Initial.MissesPerHC(),
			CIHandlerSharePct:   r.Initial.ContextIndependentShare(),
			InitialMissRatePct:  r.Initial.MissRate(),
			ICMissInstrSharePct: 100 * r.Initial.ICMissShare(),
			ReuseMissRatePct:    r.RIC.MissRate(),
			MissHandlerPct:      r.RIC.MissRateOf(profiler.MissHandler),
			MissGlobalPct:       r.RIC.MissRateOf(profiler.MissGlobal),
			MissOtherPct:        r.RIC.MissRateOf(profiler.MissOther),
			ConvInstructions:    r.Conv.TotalInstr(),
			RICInstructions:     r.RIC.TotalInstr(),
			InstrRatioPct:       100 * (1 - r.InstrReduction()),
			ConvTimeMs:          msDuration(r.ConvTime),
			RICTimeMs:           msDuration(r.RICTime),
			TimeRatioPct:        100 * (1 - r.TimeReduction()),
			ExtractTimeMs:       msDuration(r.ExtractTime),
			RecordBytes:         r.RecordBytes,
			DependentSlots:      r.RecordStats.DependentSlots,
			MissesAverted:       r.RIC.MissesSaved,
			StaticTypes: JSONStaticTypes{
				SitesAnalyzed: r.StaticTypes.SitesAnalyzed,
				TypedShapes:   r.StaticTypes.TypedShapes,
				TypedSlots:    r.StaticTypes.TypedSlots,
			},
		}
		out.Libraries = append(out.Libraries, lib)
		out.Averages.InitialMissRatePct += lib.InitialMissRatePct / n
		out.Averages.ReuseMissRatePct += lib.ReuseMissRatePct / n
		out.Averages.InstrRatioPct += lib.InstrRatioPct / n
		out.Averages.TimeRatioPct += lib.TimeRatioPct / n
		out.Averages.ICMissInstrSharePct += lib.ICMissInstrSharePct / n
	}
	if website != nil {
		out.Website = &JSONWebsite{
			ConvMissRatePct: website.Conv.MissRate(),
			RICMissRatePct:  website.RIC.MissRate(),
			MissesAverted:   website.RIC.MissesSaved,
		}
	}
	return out
}

// JSONOpStats is the dispatch-histogram block (`ricbench -opstats`): the
// executed-opcode and adjacent-pair top lists. Deterministic for a fixed
// workload set.
type JSONOpStats struct {
	Workloads     int             `json:"workloads"`
	TotalExecuted uint64          `json:"totalExecuted"`
	TopOps        []JSONOpCount   `json:"topOps"`
	TopPairs      []JSONPairCount `json:"topPairs"`
}

// JSONOpCount is one opcode row of the histogram.
type JSONOpCount struct {
	Op       string  `json:"op"`
	Count    uint64  `json:"count"`
	SharePct float64 `json:"sharePct"`
}

// JSONPairCount is one adjacent-pair row.
type JSONPairCount struct {
	First  string `json:"first"`
	Second string `json:"second"`
	Count  uint64 `json:"count"`
}

// AddOpStats attaches the dispatch histogram to the results.
func (r *JSONResults) AddOpStats(res OpStatsResult) {
	out := &JSONOpStats{Workloads: res.Workloads, TotalExecuted: res.Total}
	for _, o := range res.TopOps {
		out.TopOps = append(out.TopOps, JSONOpCount{Op: o.Op, Count: o.Count, SharePct: o.SharePct})
	}
	for _, p := range res.TopPairs {
		out.TopPairs = append(out.TopPairs, JSONPairCount{First: p.First, Second: p.Second, Count: p.Count})
	}
	r.OpStats = out
}

// WriteJSON emits the results as indented JSON.
func WriteJSON(w io.Writer, runs []LibraryRun, website *WebsiteRun) error {
	return EncodeJSON(w, BuildJSON(runs, website))
}

// EncodeJSON emits an assembled result set as indented JSON; use it with
// BuildJSON + AddOpStats when the evaluation includes optional blocks.
func EncodeJSON(w io.Writer, res JSONResults) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

func msDuration(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
