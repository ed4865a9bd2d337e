package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"ricjs"
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the q-quantile of xs, interpolating linearly between
// the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// metric is one reported number with the count of samples behind it.
type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
}

// latencies returns each sample's latency from its due time, in ms.
func latencies(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.latency())
	}
	return out
}

// classes returns each sample class's median latency, in class order:
// one row per profile (and mode) or corpus class.
func classes(samples []sample) []metric {
	by := make(map[string][]float64)
	for _, s := range samples {
		by[s.class] = append(by[s.class], ms(s.latency()))
	}
	out := make([]metric, 0, len(by))
	for class, xs := range by {
		out = append(out, metric{class, "ms", quantile(xs, 0.5), len(xs)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// classTime is the geometric mean, over the sample classes accepted by
// keep, of each class's median latency: every profile (and mode) weighs
// the same however often it ran.
func classTime(samples []sample, keep func(class string) bool) (float64, int) {
	var medians []float64
	n := 0
	for _, c := range classes(samples) {
		if keep(c.Name) {
			medians = append(medians, c.Value)
			n += c.Samples
		}
	}
	return geomean(medians), n
}

func all(string) bool { return true }

func prefixed(p string) func(string) bool {
	return func(class string) bool { return strings.HasPrefix(class, p) }
}

// resetPeakRSS starts a new resident-set high-water mark (Linux 4.0 and
// later); where that fails, peakRSSMB reports the process's whole life.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the resident-set high-water mark, VmHWM, since the last
// resetPeakRSS.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// endToEnd computes BENCHMARK.json's end_to_end metrics, in its order.
func (b *bench) endToEnd() []metric {
	session, n := classTime(b.samples, all)
	recordBytes := 0
	for _, size := range b.records {
		recordBytes += size
	}
	return []metric{
		{"setup_s", "s", b.measureStart.Sub(b.start).Seconds(), 1},
		{"session_ms", "ms", session, n},
		{"peak_rss_mb", "MB", peakRSSMB(), 1},
		{"record_bytes", "bytes", float64(recordBytes), len(b.records)},
	}
}

// info computes the numbers that are reported but not gated, because
// their run-to-run spread on a 2-core host exceeds any bound a regression
// check could use (see README.md), or because a faster engine may move
// them either way: the latency percentiles, throughput, the Figure 9
// split and ratio, the cold-key latency and the failure share.
func (b *bench) info() []metric {
	lat := latencies(b.samples)
	throughput, tn := float64(len(b.samples))/b.measureEnd.Sub(b.measureStart).Seconds(), len(b.samples)
	if b.sat != nil {
		throughput, tn = float64(len(b.sat))/b.satElapsed.Seconds(), len(b.sat)
	}
	out := []metric{
		{"p50_ms", "ms", quantile(lat, 0.5), len(lat)},
		{"p99_ms", "ms", quantile(lat, 0.99), len(lat)},
		{"throughput_sps", "1/s", throughput, tn},
	}
	if conv, n := classTime(b.samples, prefixed("conv:")); n > 0 {
		ric, rn := classTime(b.samples, prefixed("ric:"))
		out = append(out,
			metric{"conv_session_ms", "ms", conv, n},
			metric{"ric_session_ms", "ms", ric, rn},
			metric{"ric.time_ratio", "ratio", ric / conv, rn})
	}
	for _, c := range classes(b.samples) {
		if c.Name == "progen:cold" {
			out = append(out, metric{"cold_p50_ms", "ms", c.Value, c.Samples})
		}
	}
	attempted := b.attempted.Load()
	return append(out, metric{"failed_frac", "ratio", float64(b.failed.Load()) / float64(max(attempted, 1)), int(attempted)})
}

// perLayer computes BENCHMARK.json's per_layer metrics from the derived
// layer times. A layer the measured sessions never passed through reads
// its mean probe cost per call instead.
func (b *bench) perLayer(lt *layerTimes, probed []*layerCost) []metric {
	var out []metric
	mean := meanCost(probed)
	for l, spec := range layerMetrics {
		v, n := mean[l], len(probed)
		if lt.onPath[l] {
			v, n = lt.total[l]/float64(lt.sessions), lt.sessions
		}
		out = append(out, metric{spec.name, spec.unit, v * spec.scale, n})
	}

	phases := append(append([]sample(nil), b.samples...), b.sat...)
	var wait, service, late []float64
	busy := 0.0
	for _, s := range phases {
		wait = append(wait, ms(s.start.Sub(s.due)))
		service = append(service, ms(s.end.Sub(s.start)))
		late = append(late, ms(s.late))
		busy += ms(s.end.Sub(s.start))
	}
	clients := 1.0
	if b.pool != nil {
		clients = workers
	}
	window := ms(b.measureEnd.Sub(b.measureStart))
	n := len(phases)
	out = append(out,
		metric{"load.queue_wait_p50_ms", "ms", quantile(wait, 0.5), n},
		metric{"load.queue_wait_p99_ms", "ms", quantile(wait, 0.99), n},
		metric{"load.service_p50_ms", "ms", quantile(service, 0.5), n},
		metric{"load.service_p99_ms", "ms", quantile(service, 0.99), n},
		metric{"load.late_p99_ms", "ms", quantile(late, 0.99), n},
		metric{"load.busy_frac", "ratio", busy / (clients * window), n},
	)

	per := func(v uint64, m modeTotals) float64 {
		if m.sessions == 0 {
			return 0
		}
		return float64(v) / float64(m.sessions)
	}
	yield := 0.0
	if b.ric.preloads > 0 {
		yield = float64(b.ric.missesSaved) / float64(b.ric.preloads)
	}
	out = append(out,
		metric{"vm.instr_conv", "count", per(b.conv.instr, b.conv), b.conv.sessions},
		metric{"vm.instr_ric", "count", per(b.ric.instr, b.ric), b.ric.sessions},
		metric{"vm.instr_icmiss_conv", "count", per(b.conv.instrICMiss, b.conv), b.conv.sessions},
		metric{"vm.instr_icmiss_ric", "count", per(b.ric.instrICMiss, b.ric), b.ric.sessions},
		metric{"vm.ic_misses_conv", "count", per(b.conv.icMisses, b.conv), b.conv.sessions},
		metric{"vm.ic_misses_ric", "count", per(b.ric.icMisses, b.ric), b.ric.sessions},
		metric{"ric.preloads", "count", per(b.ric.preloads, b.ric), b.ric.sessions},
		metric{"ric.misses_saved", "count", per(b.ric.missesSaved, b.ric), b.ric.sessions},
		metric{"ric.preload_yield", "ratio", yield, b.ric.sessions},
	)

	allocs := b.rtAfter[0].Value.Uint64() - b.rtBefore[0].Value.Uint64()
	gcCPU := b.rtAfter[1].Value.Float64() - b.rtBefore[1].Value.Float64()
	cpu := b.rtAfter[2].Value.Float64() - b.rtBefore[2].Value.Float64()
	out = append(out,
		metric{"go.alloc_kb_per_session", "KB", float64(allocs) / 1024 / float64(max(n, 1)), n},
		metric{"go.gc_cpu_frac", "ratio", gcCPU / cpu, n},
	)

	d := func(f func(p ricjs.PoolStats) uint64) float64 {
		return float64(f(b.poolAfter) - f(b.poolBefore))
	}
	return append(out,
		metric{"pool.reuse_hits", "count", d(func(p ricjs.PoolStats) uint64 { return p.ReuseHits }), n},
		metric{"pool.extractions", "count", d(func(p ricjs.PoolStats) uint64 { return p.Extractions }), n},
		metric{"pool.store_loads", "count", d(func(p ricjs.PoolStats) uint64 { return p.StoreLoads }), n},
		metric{"pool.conventional_runs", "count", d(func(p ricjs.PoolStats) uint64 { return p.Sessions - p.ReuseHits - p.StoreLoads }), n},
		metric{"pool.shard_lock_acquires", "count", d(func(p ricjs.PoolStats) uint64 { return p.ShardLockAcquires }), n},
		metric{"trace.coverage", "ratio", lt.coverage(), lt.sessions},
	)
}

// host fingerprints the machine and build a result was measured on.
type host struct {
	GoVersion  string `json:"go_version"`
	OS         string `json:"goos"`
	Arch       string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	Commit     string `json:"git_commit"`
}

func fingerprint() host {
	return host{
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Commit:     gitCommit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the checked-out commit from .git in the working
// directory, without running git; "unknown" outside a git checkout.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref
	}
	sum, err := os.ReadFile(filepath.Join(".git", ref))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(sum))
}

// result is one workload run's outcome.
type result struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Trace     bool     `json:"trace"`
	Workers   int      `json:"workers"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Metrics   []metric `json:"metrics"`
	Info      []metric `json:"info"`
	Classes   []metric `json:"classes"`
	Errors    []string `json:"errors,omitempty"`
	Host      host     `json:"host"`
}

// report prints the result for people, then the one-line JSON summary
// as the last line of output.
func report(w io.Writer, r *result) error {
	fmt.Fprintf(w, "# %s seed=%d seconds=%g trace=%t workers=%d host=%s/%s nproc=%d gomaxprocs=%d %s cpu=%q commit=%s\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Workers, r.Host.OS, r.Host.Arch,
		r.Host.NumCPU, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.CPU, r.Host.Commit)
	for _, group := range [][]metric{r.Metrics, r.Info} {
		for _, m := range group {
			fmt.Fprintf(w, "# %-26s %14.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
		}
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "# error: %s\n", e)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	values := make(map[string]value, len(r.Metrics))
	for _, m := range r.Metrics {
		values[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, values})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
