package main

import (
	"fmt"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"ricjs"
)

const (
	// workers is the load generator's worker count (and the pool
	// workloads' saturation clients): one per core of the 2-core host.
	workers = 2
	// poolRate is the open-loop arrival rate, sessions per second.
	poolRate = 300.0
	// zipfS skews the pool workloads' traffic over the profiles' ranks.
	zipfS = 1.1
	// churnShare is the share of pool-churn arrivals drawn from the corpus.
	churnShare = 0.12
	// warmupRounds is how many untimed rounds reuse-startup runs first.
	warmupRounds = 20
	// warmupSessions is how many untimed saturation sessions a pool
	// workload serves before its window.
	warmupSessions = 1000
	// openShare is the share of a pool workload's window given to its open
	// loop; the saturation phase gets the rest.
	openShare = 2.0 / 3
	// maxErrors bounds the failure messages a run keeps.
	maxErrors = 8
)

// workload is one traffic mix; BENCHMARK.json and README.md say why each
// exists.
type workload struct {
	name string
	run  func(b *bench) error
}

var allWorkloads = []workload{
	{"reuse-startup", runReuseStartup},
	{"first-visit", runFirstVisit},
	{"pool-steady", runPoolSteady},
	{"pool-churn", runPoolChurn},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// modeTotals sums the engine statistics of the measured sessions of one
// mode: Conventional (no record) or RIC (reused a record).
type modeTotals struct {
	sessions                                            int
	instr, instrICMiss, icMisses, preloads, missesSaved uint64
}

// bench is one workload run: its inputs, the state shared by its
// sessions, and what they measured.
type bench struct {
	cfg    config
	set    *inputSet
	hot    []*input // the profiles the workload uses, in rank order
	tr     *tracer  // nil unless traced
	fs     *timingFS
	tmp    string
	window bool // sessions are being measured

	start, measureStart, measureEnd time.Time
	samples                         []sample // the workload's main phase
	sat                             []sample // pool workloads' saturation phase
	satElapsed                      time.Duration

	attempted, failed atomic.Int64

	mu        sync.Mutex // guards the fields below
	errs      []string
	records   map[string]int // encoded record size per key
	conv, ric modeTotals

	pool                  *ricjs.SessionPool
	poolBefore, poolAfter ricjs.PoolStats
	rtBefore, rtAfter     []metrics.Sample
}

// runtimeMetrics are the Go runtime counters read around the window.
var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

// releaseExtraction returns the garbage of set-up's record extraction to
// the OS before the warm-up, so that the window neither pays for
// releasing it nor starts on an empty heap.
func releaseExtraction() { debug.FreeOSMemory() }

// beginWindow ends set-up and starts measuring, with a fresh resident-set
// high-water mark; it returns the deadline.
func (b *bench) beginWindow() time.Time {
	resetPeakRSS()
	if b.pool != nil {
		b.poolBefore = b.pool.Stats()
	}
	b.rtBefore = readRuntime()
	b.window = true
	b.measureStart = time.Now()
	return b.measureStart.Add(b.cfg.window())
}

func (b *bench) endWindow() {
	b.measureEnd = time.Now()
	b.window = false
	b.rtAfter = readRuntime()
	if b.pool != nil {
		b.poolAfter = b.pool.Stats()
	}
}

// traced wraps a session so that, while measuring under --trace 1, it is
// recorded as a span with its queue wait.
func (b *bench) traced(f func(s *sess, j job) string) serveFunc {
	return func(w int, j job) string {
		s := &sess{tr: b.tr, track: w, in: j.in}
		if b.tr == nil || !b.window {
			return f(s, j)
		}
		s.id = b.tr.newID()
		start := time.Now()
		class := f(s, j)
		end := time.Now()
		b.tr.add(span{id: s.id, session: s.id, name: "session", start: j.due, end: end, track: w, in: j.in, mode: class})
		b.tr.add(span{id: b.tr.newID(), parent: s.id, session: s.id, name: "load.wait", start: j.due, end: start, track: w, in: j.in})
		return class
	}
}

// session checks one session's outcome against the reference output and,
// while measuring, adds its engine statistics to its mode's totals.
func (b *bench) session(in *input, err error, out string, st ricjs.Stats, reused bool) {
	b.attempted.Add(1)
	if err == nil && out != in.want {
		err = fmt.Errorf("output differs from its reference")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if err != nil {
		b.failed.Add(1)
		if len(b.errs) < maxErrors {
			b.errs = append(b.errs, fmt.Sprintf("%s: %v", in.key, err))
		}
		return
	}
	if !b.window {
		return
	}
	m := &b.conv
	if reused {
		m = &b.ric
	}
	m.sessions++
	m.instr += st.TotalInstr()
	m.instrICMiss += st.InstrICMiss
	m.icMisses += st.ICMisses
	m.preloads += st.Preloads
	m.missesSaved += st.MissesSaved
}

func (b *bench) noteRecord(key string, size int) {
	b.mu.Lock()
	b.records[key] = size
	b.mu.Unlock()
}

// extract runs a first visit of in on a fresh engine and returns the
// encoded record: set-up's way to make records.
func (b *bench) extract(in *input) ([]byte, error) {
	e := ricjs.NewEngine(ricjs.Options{})
	err := e.Run(in.script(), in.src())
	b.session(in, err, e.Output(), e.Stats(), false)
	if err != nil {
		return nil, err
	}
	data := e.ExtractRecord(in.key).Encode()
	b.noteRecord(in.key, len(data))
	return data, nil
}

// runReuseStartup: records are extracted and decoded once in set-up; the
// window alternates a Conventional and a RIC Reuse session of each profile
// on one warm code cache, from one client.
func runReuseStartup(b *bench) error {
	cache := ricjs.NewCodeCache()
	records := make(map[*input]*ricjs.Record, len(b.hot))
	for _, in := range b.hot {
		data, err := b.extract(in)
		if err != nil {
			return err
		}
		if records[in], err = ricjs.DecodeRecord(data); err != nil {
			return err
		}
	}
	releaseExtraction()
	serve := b.traced(func(s *sess, j job) string {
		opts, mode := ricjs.Options{Cache: cache}, "conv"
		if j.ric {
			opts.Record, mode = records[j.in], "ric"
		}
		var e *ricjs.Engine
		var err error
		s.do("ricjs.new_engine", func() string { e = ricjs.NewEngine(opts); return mode })
		s.do("engine.run", func() string { err = e.Run(j.in.script(), j.in.src()); return mode })
		b.session(j.in, err, e.Output(), e.Stats(), j.ric)
		return mode + ":" + j.in.key
	})
	i := 0
	next := func(int) job {
		j := job{in: b.hot[i/2%len(b.hot)], ric: i%2 == 1}
		i++
		return j
	}
	for i < warmupRounds*2*len(b.hot) {
		serve(0, next(0))
	}
	deadline := b.beginWindow()
	b.samples = closedLoop(1, func(int) (job, bool) { return next(0), time.Now().Before(deadline) }, serve)
	b.endWindow()
	return nil
}

// runFirstVisit: every session is a first visitor — fresh code cache,
// Run, ExtractRecord, Encode — over every profile in turn, in whole
// passes. Set-up is one untimed pass.
func runFirstVisit(b *bench) error {
	serve := b.traced(func(s *sess, j job) string {
		cache := ricjs.NewCodeCache()
		var e *ricjs.Engine
		var err error
		s.do("ricjs.new_engine", func() string { e = ricjs.NewEngine(ricjs.Options{Cache: cache}); return "conv" })
		s.do("engine.run", func() string { err = e.Run(j.in.script(), j.in.src()); return "cold" })
		b.session(j.in, err, e.Output(), e.Stats(), false)
		if err != nil {
			return j.in.key
		}
		var rec *ricjs.Record
		s.do("engine.extract_record", func() string { rec = e.ExtractRecord(j.in.key); return "conv" })
		var data []byte
		s.do("ric.encode", func() string { data = rec.Encode(); return "conv" })
		b.noteRecord(j.in.key, len(data))
		return j.in.key
	})
	i := 0
	var deadline time.Time
	next := func(int) (job, bool) {
		if i%len(b.hot) == 0 && i > 0 && !time.Now().Before(deadline) {
			return job{}, false
		}
		in := b.hot[i%len(b.hot)]
		i++
		// Every first visitor starts from a collected heap whose memory is
		// back with the OS, as in a fresh process, rather than paying for
		// the previous visitor's garbage or depending on how far the
		// scavenger got with it.
		debug.FreeOSMemory()
		return job{in: in}, true
	}
	for _, in := range b.hot {
		serve(0, job{in: in})
	}
	deadline = b.beginWindow()
	i = 0
	b.samples = closedLoop(1, next, serve)
	b.endWindow()
	return nil
}

// runPoolSteady: a pool over a record store filled in set-up, warmed by
// serving every profile once and then a saturation burst, followed by the
// open loop and the saturation phase.
func runPoolSteady(b *bench) error {
	st, err := b.fillStore("steady")
	if err != nil {
		return err
	}
	releaseExtraction()
	b.pool = ricjs.NewSessionPool(ricjs.PoolOptions{Store: st})
	serve := b.poolServe(nil)
	m := newMix(b.hot, zipfS, 0, nil)
	for _, in := range b.hot {
		serve(0, job{in: in})
	}
	b.warmup(m, serve)
	return b.poolPhases(m, serve)
}

// runPoolChurn: a fresh pool over a record store holding the profiles'
// records; 12% of arrivals are corpus programs the pool has never seen.
func runPoolChurn(b *bench) error {
	st, err := b.fillStore("churn")
	if err != nil {
		return err
	}
	releaseExtraction()
	// Warm the process on a throwaway pool over the same store, with hot
	// keys only, so that the measured pool starts cold and no corpus
	// record reaches the store before the window.
	b.pool = ricjs.NewSessionPool(ricjs.PoolOptions{Store: st})
	b.warmup(newMix(b.hot, zipfS, 0, nil), b.poolServe(nil))
	b.pool = ricjs.NewSessionPool(ricjs.PoolOptions{Store: st})
	return b.poolPhases(newMix(b.hot, zipfS, churnShare, b.set.corpus), b.poolServe(&sync.Map{}))
}

// warmup serves warmupSessions untimed sessions from the mix with every
// worker as a closed-loop client.
func (b *bench) warmup(m *mix, serve serveFunc) {
	var mu sync.Mutex
	r, left := &rng{s: b.cfg.seed}, warmupSessions
	closedLoop(workers, func(int) (job, bool) {
		mu.Lock()
		defer mu.Unlock()
		left--
		return job{in: m.draw(r)}, left >= 0
	}, serve)
}

// fillStore opens a record store under the run's scratch directory and
// saves a freshly extracted record of every profile to it.
func (b *bench) fillStore(name string) (*ricjs.RecordStore, error) {
	st, err := ricjs.OpenRecordStoreFS(filepath.Join(b.tmp, name), b.fs)
	if err != nil {
		return nil, err
	}
	for _, in := range b.hot {
		data, err := b.extract(in)
		if err != nil {
			return nil, err
		}
		if err := st.SaveBytes(in.key, data); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// poolServe serves one session through b.pool. seen, when set, tracks the
// keys served so far, so that the first Reuse of a key is known to have
// loaded its record from the store.
func (b *bench) poolServe(seen *sync.Map) serveFunc {
	return b.traced(func(s *sess, j job) string {
		var res *ricjs.SessionResult
		var err error
		s.do("pool.serve", func() string {
			first := false
			if seen != nil {
				_, loaded := seen.LoadOrStore(j.in.key, true)
				first = !loaded
			}
			res, err = b.pool.Serve(ricjs.SessionRequest{Key: j.in.key, Scripts: j.in.scripts})
			switch {
			case err != nil:
				return "error"
			case first && res.Mode == ricjs.SessionReuse:
				return "reuse-store"
			}
			return res.Mode.String()
		})
		if err != nil {
			b.session(j.in, err, "", ricjs.Stats{}, false)
			return j.in.key
		}
		b.session(j.in, nil, res.Output, res.Stats, res.Mode == ricjs.SessionReuse)
		switch {
		case !j.in.corpus:
			return j.in.key
		case res.Mode == ricjs.SessionInitial:
			return "progen:cold"
		}
		return "progen:warm"
	})
}

// poolPhases measures a pool workload: the open loop for openShare of the
// window, then the saturation phase, where every worker is a closed-loop
// client drawing from the same mix.
func (b *bench) poolPhases(m *mix, serve serveFunc) error {
	b.beginWindow()
	open := time.Duration(float64(b.cfg.window()) * openShare)
	b.samples = openLoop(schedule(b.cfg.seed, poolRate, open, m), workers, serve)
	satStart := time.Now()
	deadline := satStart.Add(b.cfg.window() - open)
	clients := make([]*rng, workers)
	for c := range clients {
		clients[c] = &rng{s: b.cfg.seed ^ uint64(c+1)<<56}
	}
	b.sat = closedLoop(workers, func(c int) (job, bool) {
		return job{in: m.draw(clients[c])}, time.Now().Before(deadline)
	}, serve)
	b.satElapsed = time.Since(satStart)
	b.endWindow()
	return nil
}
