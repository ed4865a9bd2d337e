package bench

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"ricjs"
	"ricjs/internal/bytecode"
	"ricjs/internal/vm"
	"ricjs/internal/workloads"
)

// OpCount is one row of the executed-opcode histogram.
type OpCount struct {
	Op       string
	Count    uint64
	SharePct float64
}

// PairCount is one row of the adjacent-pair histogram.
type PairCount struct {
	First  string
	Second string
	Count  uint64
}

// OpStatsResult aggregates the dispatch histogram over a workload set.
type OpStatsResult struct {
	Workloads int
	Total     uint64
	TopOps    []OpCount
	TopPairs  []PairCount
}

// opStatsTopK bounds both histogram tables; enough to show every pair
// that matters (the distribution is heavily top-weighted) while keeping
// the report and JSON block stable in size.
const opStatsTopK = 12

// MeasureOpStats runs every selected workload once on a conventional
// engine with opcode-histogram collection enabled and aggregates the
// executed-opcode and adjacent-pair counts. Deterministic: same workload
// set, same counts.
func MeasureOpStats(opts Options) (OpStatsResult, error) {
	var sum vm.OpStats
	res := OpStatsResult{}
	for _, p := range workloads.Profiles {
		ok, err := opts.matchesWorkloads(p)
		if err != nil {
			return res, err
		}
		if !ok {
			continue
		}
		e := ricjs.NewEngine(ricjs.Options{CollectOpStats: true})
		if err := e.Run(p.Script, p.Source()); err != nil {
			return res, fmt.Errorf("opstats: %s: %w", p.Name, err)
		}
		stats := e.OpStats()
		for i, c := range stats.Ops {
			sum.Ops[i] += c
		}
		for i, c := range stats.Pairs {
			sum.Pairs[i] += c
		}
		res.Workloads++
	}

	type opRow struct {
		op    bytecode.Op
		count uint64
	}
	ops := make([]opRow, 0, bytecode.NumOps)
	for i, c := range sum.Ops {
		res.Total += c
		if c > 0 {
			ops = append(ops, opRow{bytecode.Op(i), c})
		}
	}
	// Ties break on opcode order so the report is byte-stable run to run.
	sort.SliceStable(ops, func(i, j int) bool {
		if ops[i].count != ops[j].count {
			return ops[i].count > ops[j].count
		}
		return ops[i].op < ops[j].op
	})
	for _, r := range ops[:min(opStatsTopK, len(ops))] {
		res.TopOps = append(res.TopOps, OpCount{
			Op:       r.op.String(),
			Count:    r.count,
			SharePct: 100 * float64(r.count) / float64(res.Total),
		})
	}

	type pairRow struct {
		a, b  bytecode.Op
		count uint64
	}
	var pairs []pairRow
	for a := 0; a < bytecode.NumOps; a++ {
		for b := 0; b < bytecode.NumOps; b++ {
			if c := sum.Pairs[a*bytecode.NumOps+b]; c > 0 {
				pairs = append(pairs, pairRow{bytecode.Op(a), bytecode.Op(b), c})
			}
		}
	}
	sort.SliceStable(pairs, func(i, j int) bool {
		if pairs[i].count != pairs[j].count {
			return pairs[i].count > pairs[j].count
		}
		if pairs[i].a != pairs[j].a {
			return pairs[i].a < pairs[j].a
		}
		return pairs[i].b < pairs[j].b
	})
	for _, r := range pairs[:min(opStatsTopK, len(pairs))] {
		res.TopPairs = append(res.TopPairs, PairCount{
			First:  r.a.String(),
			Second: r.b.String(),
			Count:  r.count,
		})
	}
	return res, nil
}

// ReportOpStats prints both histogram tables.
func ReportOpStats(w io.Writer, r OpStatsResult) {
	fmt.Fprintf(w, "Dispatch histogram — %d workloads, %d executed instructions\n",
		r.Workloads, r.Total)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "opcode\tcount\tshare")
	for _, o := range r.TopOps {
		fmt.Fprintf(tw, "%s\t%d\t%.2f%%\n", o.Op, o.Count, o.SharePct)
	}
	tw.Flush()
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Hottest adjacent pairs")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "pair\tcount")
	for _, p := range r.TopPairs {
		fmt.Fprintf(tw, "%s + %s\t%d\n", p.First, p.Second, p.Count)
	}
	tw.Flush()
}
