package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ricjs"
	"ricjs/internal/analysis"
	"ricjs/internal/ast"
	"ricjs/internal/bytecode"
	"ricjs/internal/parser"
	"ricjs/internal/ric"
)

// span is one call into a layer, timed from the benchmark around a public
// function. mode says how the layer ran ("cold" for a code-cache miss,
// "conv", "ric", or the pool's SessionMode); args holds the self times
// derived for the layers inside the call.
type span struct {
	id, parent, session uint64
	name                string
	start, end          time.Time
	track               int
	in                  *input
	mode                string
	args                map[string]float64
}

func (s *span) ms() float64 { return ms(s.end.Sub(s.start)) }

// tracer keeps spans in memory until the run ends. Each track (a worker,
// or the probe) appends only from its own goroutine; store spans come from
// whichever worker the pool runs on and share a mutex.
type tracer struct {
	ids    atomic.Uint64
	tracks [][]span
	mu     sync.Mutex
	store  []span
}

// Track numbers beyond the workers.
const (
	probeTrack = workers
	storeTrack = workers + 1
)

func newTracer() *tracer { return &tracer{tracks: make([][]span, workers+1)} }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) add(sp span) { t.tracks[sp.track] = append(t.tracks[sp.track], sp) }

func (t *tracer) addStore(sp span) {
	t.mu.Lock()
	t.store = append(t.store, sp)
	t.mu.Unlock()
}

// sess is one session's handle for timing its layer calls. id is 0 when
// the session is not traced.
type sess struct {
	tr    *tracer
	track int
	id    uint64
	in    *input
}

// do runs f, which returns the mode the layer ran in, as a span of the
// session.
func (s *sess) do(name string, f func() string) {
	if s.id == 0 {
		f()
		return
	}
	start := time.Now()
	mode := f()
	s.tr.add(span{id: s.tr.newID(), parent: s.id, session: s.id, name: name,
		start: start, end: time.Now(), track: s.track, in: s.in, mode: mode})
}

// timingFS times the record store's filesystem calls: the store.read and
// store.write layers. It wraps the public ricjs.FS interface.
type timingFS struct {
	base            ricjs.FS
	tr              *tracer
	readNs, writeNs atomic.Int64
}

func (f *timingFS) done(name string, write bool, start time.Time) {
	end := time.Now()
	if write {
		f.writeNs.Add(int64(end.Sub(start)))
		name = "store.write:" + name
	} else {
		f.readNs.Add(int64(end.Sub(start)))
		name = "store.read:" + name
	}
	if f.tr != nil {
		f.tr.addStore(span{id: f.tr.newID(), name: name, start: start, end: end, track: storeTrack})
	}
}

func (f *timingFS) MkdirAll(path string, perm os.FileMode) error {
	defer f.done("mkdir", true, time.Now())
	return f.base.MkdirAll(path, perm)
}

func (f *timingFS) ReadFile(path string) ([]byte, error) {
	defer f.done("read", false, time.Now())
	return f.base.ReadFile(path)
}

func (f *timingFS) WriteTemp(dir, pattern string, data []byte) (string, error) {
	defer f.done("write", true, time.Now())
	return f.base.WriteTemp(dir, pattern, data)
}

func (f *timingFS) Rename(oldpath, newpath string) error {
	defer f.done("rename", true, time.Now())
	return f.base.Rename(oldpath, newpath)
}

func (f *timingFS) Remove(path string) error {
	defer f.done("remove", true, time.Now())
	return f.base.Remove(path)
}

func (f *timingFS) ReadDir(path string) ([]fs.DirEntry, error) {
	defer f.done("readdir", false, time.Now())
	return f.base.ReadDir(path)
}

// Layers, in the order their per-layer metrics are printed. A layer's
// self time is accumulated in milliseconds.
const (
	lParse = iota
	lCompile
	lAnalyze
	lExtract
	lAttach
	lEncode
	lDecode
	lValidate
	lStoreRead
	lStoreWrite
	lNewEngine
	lVMConv
	lVMRic
	lPoolSelf
	lWait
	numLayers
)

// layerMetrics names each layer's per-layer metric and its scale from
// milliseconds.
var layerMetrics = [numLayers]struct {
	name, unit string
	scale      float64
}{
	lParse:      {"parser.parse_ms", "ms", 1},
	lCompile:    {"bytecode.compile_ms", "ms", 1},
	lAnalyze:    {"analysis.analyze_ms", "ms", 1},
	lExtract:    {"ric.extract_ms", "ms", 1},
	lAttach:     {"ric.attach_typed_ms", "ms", 1},
	lEncode:     {"ric.encode_ms", "ms", 1},
	lDecode:     {"ric.decode_ms", "ms", 1},
	lValidate:   {"ric.validate_ms", "ms", 1},
	lStoreRead:  {"store.read_ms", "ms", 1},
	lStoreWrite: {"store.write_ms", "ms", 1},
	lNewEngine:  {"ricjs.new_engine_us", "us", 1000},
	lVMConv:     {"vm.run_conv_ms", "ms", 1},
	lVMRic:      {"vm.run_ric_ms", "ms", 1},
	lPoolSelf:   {"pool.self_ms", "ms", 1},
	lWait:       {"load.queue_wait_ms", "ms", 1},
}

// layerCost is what each layer costs on one input when called standalone,
// in milliseconds, indexed by layer: the probe's measurement. lNewEngine
// holds a Conventional engine's construction, cNewEngineRic a RIC
// engine's; lVMRic excludes the record validation that Run performs.
type layerCost [numLayers + 1]float64

const cNewEngineRic = numLayers

const (
	probeReps   = 5
	probeBudget = 200 * time.Millisecond
)

// median runs f, which times its own measured part, at least once and at
// most probeReps times, stopping once probeBudget is spent; it returns the
// median in milliseconds.
func median(f func() time.Duration) float64 {
	var ds []float64
	var spent time.Duration
	for len(ds) < probeReps && (len(ds) == 0 || spent < probeBudget) {
		d := f()
		spent += d
		ds = append(ds, ms(d))
	}
	return quantile(ds, 0.5)
}

func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// probe calls every layer standalone on one input, in pipeline order, and
// returns the per-call costs. The traced run uses them to split calls it
// cannot see inside (Engine.Run, ExtractRecord, SessionPool.Serve) and to
// time the layers a workload's sessions bypass.
func probe(in *input, dir string) (*layerCost, error) {
	c := &layerCost{}
	var err error
	var tree *ast.Program
	c[lParse] = median(func() time.Duration {
		return timed(func() { tree, err = parser.Parse(in.script(), in.src()) })
	})
	if err != nil {
		return nil, err
	}
	var prog *bytecode.Program
	c[lCompile] = median(func() time.Duration {
		return timed(func() { prog, err = bytecode.Compile(tree) })
	})
	if err != nil {
		return nil, err
	}

	cache := ricjs.NewCodeCache()
	if err := ricjs.NewEngine(ricjs.Options{Cache: cache}).Run(in.script(), in.src()); err != nil {
		return nil, err
	}
	c[lNewEngine] = median(func() time.Duration {
		return timed(func() { ricjs.NewEngine(ricjs.Options{Cache: cache}) })
	})
	var eng *ricjs.Engine
	c[lVMConv] = median(func() time.Duration {
		eng = ricjs.NewEngine(ricjs.Options{Cache: cache})
		return timed(func() { err = eng.Run(in.script(), in.src()) })
	})
	if err != nil {
		return nil, err
	}

	c[lExtract] = median(func() time.Duration {
		return timed(func() { ric.Extract(eng.VM(), in.key, ric.Config{}) })
	})
	var res *analysis.Result
	c[lAnalyze] = median(func() time.Duration {
		return timed(func() { res = analysis.Analyze(prog) })
	})
	var rec *ric.Record
	c[lAttach] = median(func() time.Duration {
		rec = ric.Extract(eng.VM(), in.key, ric.Config{})
		return timed(func() { rec.AttachTypedShapes(res) })
	})
	var data []byte
	c[lEncode] = median(func() time.Duration {
		return timed(func() { data = rec.Encode() })
	})
	var decoded *ric.Record
	c[lDecode] = median(func() time.Duration {
		return timed(func() { decoded, err = ric.Decode(data) })
	})
	if err != nil {
		return nil, err
	}
	c[lValidate] = median(func() time.Duration {
		return timed(func() { err = decoded.Validate(prog) })
	})
	if err != nil {
		return nil, err
	}

	fsys := &timingFS{base: ricjs.NewOSFS()}
	st, err := ricjs.OpenRecordStoreFS(dir, fsys)
	if err != nil {
		return nil, err
	}
	c[lStoreWrite] = median(func() time.Duration {
		before := fsys.writeNs.Load()
		err = st.SaveBytes(in.key, data)
		return time.Duration(fsys.writeNs.Load() - before)
	})
	if err != nil {
		return nil, err
	}
	c[lStoreRead] = median(func() time.Duration {
		before := fsys.readNs.Load()
		_, err = st.Load(in.key)
		return time.Duration(fsys.readNs.Load() - before)
	})
	if err != nil {
		return nil, err
	}

	public, err := ricjs.DecodeRecord(data)
	if err != nil {
		return nil, err
	}
	reuse := ricjs.Options{Cache: cache, Record: public}
	c[cNewEngineRic] = median(func() time.Duration {
		return timed(func() { ricjs.NewEngine(reuse) })
	})
	run := median(func() time.Duration {
		e := ricjs.NewEngine(reuse)
		return timed(func() { err = e.Run(in.script(), in.src()) })
	})
	if err != nil {
		return nil, err
	}
	c[lVMRic] = max(run-c[lValidate], 0)

	// The pool's own cost on its warm read path: a warm Serve minus the
	// engine work inside it. The first Serve loads the record from the
	// store and compiles into the pool's private code cache.
	pool := ricjs.NewSessionPool(ricjs.PoolOptions{Store: st})
	req := ricjs.SessionRequest{Key: in.key, Scripts: in.scripts}
	if _, err := pool.Serve(req); err != nil {
		return nil, err
	}
	serve := median(func() time.Duration {
		return timed(func() { _, err = pool.Serve(req) })
	})
	if err != nil {
		return nil, err
	}
	c[lPoolSelf] = max(serve-c[cNewEngineRic]-run, 0)
	return c, nil
}

// meanCost averages probe results elementwise.
func meanCost(cs []*layerCost) *layerCost {
	m := &layerCost{}
	for _, c := range cs {
		for i, v := range c {
			m[i] += v / float64(len(cs))
		}
	}
	return m
}

// layerTimes is the outcome of the derivation: self time per layer, and
// whether any measured session passed through the layer.
type layerTimes struct {
	total    [numLayers]float64
	onPath   [numLayers]bool
	sessions int
	wall     float64 // summed session wall time, ms
}

// add books v milliseconds to a layer and notes it on the span that
// contained the layer.
func (lt *layerTimes) add(layer int, v float64, sp *span) {
	lt.total[layer] += v
	lt.onPath[layer] = true
	if sp.args == nil {
		sp.args = make(map[string]float64)
	}
	sp.args[layerMetrics[layer].name] += v * layerMetrics[layer].scale
}

// derive splits the measured spans into layer self times. A call the
// benchmark can time only as a whole gives its inner layers their probe
// cost for the same input and keeps the remainder for its own layer:
// Engine.Run keeps vm, ExtractRecord keeps ric.attach_typed, and
// SessionPool.Serve keeps pool.self after the store calls timed inside it.
func derive(spans, store []*span, cost func(*input) *layerCost) *layerTimes {
	lt := &layerTimes{}
	var serveRest float64
	for _, sp := range spans {
		d := sp.ms()
		c := cost(sp.in)
		switch sp.name {
		case "session":
			lt.sessions++
			lt.wall += d
		case "load.wait":
			lt.add(lWait, d, sp)
		case "ricjs.new_engine":
			lt.add(lNewEngine, d, sp)
		case "engine.run":
			switch sp.mode {
			case "cold":
				lt.add(lParse, c[lParse], sp)
				lt.add(lCompile, c[lCompile], sp)
				lt.add(lVMConv, max(d-c[lParse]-c[lCompile], 0), sp)
			case "ric":
				lt.add(lValidate, c[lValidate], sp)
				lt.add(lVMRic, max(d-c[lValidate], 0), sp)
			default:
				lt.add(lVMConv, d, sp)
			}
		case "engine.extract_record":
			lt.add(lAnalyze, c[lAnalyze], sp)
			lt.add(lExtract, c[lExtract], sp)
			lt.add(lAttach, max(d-c[lAnalyze]-c[lExtract], 0), sp)
		case "ric.encode":
			lt.add(lEncode, d, sp)
		case "pool.serve":
			var inner []int
			switch sp.mode {
			case "reuse", "reuse-store":
				lt.add(lNewEngine, c[cNewEngineRic], sp)
				serveRest -= c[cNewEngineRic]
				inner = []int{lValidate, lVMRic}
				if sp.mode == "reuse-store" {
					inner = append(inner, lDecode)
				}
			case "initial":
				inner = []int{lNewEngine, lParse, lCompile, lVMConv, lAnalyze, lExtract, lAttach, lEncode}
			default:
				inner = []int{lNewEngine, lVMConv}
			}
			for _, l := range inner {
				lt.add(l, c[l], sp)
				serveRest -= c[l]
			}
			serveRest += d
			lt.onPath[lPoolSelf] = true
		}
	}
	for _, sp := range store {
		l := lStoreWrite
		if strings.HasPrefix(sp.name, "store.read") {
			l = lStoreRead
		}
		lt.total[l] += sp.ms()
		lt.onPath[l] = true
	}
	if lt.onPath[lPoolSelf] {
		lt.total[lPoolSelf] = max(serveRest-lt.total[lStoreRead]-lt.total[lStoreWrite], 0)
	}
	return lt
}

// coverage is the summed layer self times over the summed session wall
// time: how much of the session the layers account for.
func (lt *layerTimes) coverage() float64 {
	sum := 0.0
	for _, v := range lt.total {
		sum += v
	}
	return sum / lt.wall
}

// maxProbedCorpus bounds how many corpus programs the traced run probes;
// unprobed ones take the probed programs' mean cost.
const maxProbedCorpus = 32

// layers probes every input the measured sessions used, derives the layer
// self times, writes the Chrome trace and returns the per-layer metrics.
func (b *bench) layers() ([]metric, error) {
	var spans []*span
	for w := 0; w < workers; w++ {
		for i := range b.tr.tracks[w] {
			spans = append(spans, &b.tr.tracks[w][i])
		}
	}
	var store []*span
	for i := range b.tr.store {
		sp := &b.tr.store[i]
		if !sp.start.Before(b.measureStart) && !sp.end.After(b.measureEnd) {
			store = append(store, sp)
		}
	}

	toProbe := append([]*input(nil), b.hot...)
	seen := make(map[*input]bool)
	var corpus []*input
	for _, sp := range spans {
		if sp.in != nil && sp.in.corpus && !seen[sp.in] {
			seen[sp.in] = true
			corpus = append(corpus, sp.in)
		}
	}
	sort.Slice(corpus, func(i, j int) bool { return corpus[i].key < corpus[j].key })
	toProbe = append(toProbe, corpus[:min(len(corpus), maxProbedCorpus)]...)

	costs := make(map[*input]*layerCost, len(toProbe))
	var probed, probedCorpus []*layerCost
	for _, in := range toProbe {
		start := time.Now()
		c, err := probe(in, filepath.Join(b.tmp, "probe"))
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", in.key, err)
		}
		sp := span{id: b.tr.newID(), name: "probe", start: start, end: time.Now(), track: probeTrack, in: in,
			args: make(map[string]float64)}
		for l, spec := range layerMetrics {
			sp.args[spec.name] = c[l] * spec.scale
		}
		b.tr.add(sp)
		costs[in] = c
		probed = append(probed, c)
		if in.corpus {
			probedCorpus = append(probedCorpus, c)
		}
	}
	corpusMean := meanCost(probedCorpus)
	cost := func(in *input) *layerCost {
		if c, ok := costs[in]; ok {
			return c
		}
		return corpusMean
	}

	lt := derive(spans, store, cost)
	for _, sp := range store {
		spans = append(spans, sp)
	}
	for i := range b.tr.tracks[probeTrack] {
		spans = append(spans, &b.tr.tracks[probeTrack][i])
	}
	if err := writeChrome(b.cfg.traceOut, b.start, spans); err != nil {
		return nil, err
	}
	return b.perLayer(lt, probed[:len(b.hot)]), nil
}

// chromeEvent is one trace_event record; "ph":"X" is a complete span.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes every span as Chrome trace_event JSON, which
// Perfetto (ui.perfetto.dev) and chrome://tracing load. Times are
// microseconds from origin; each worker, the probe and the store calls
// get their own track.
func writeChrome(path string, origin time.Time, spans []*span) error {
	events := []chromeEvent{
		{Name: "process_name", Ph: "M", PID: 1, Args: map[string]any{"name": "benchmark"}},
		{Name: "thread_name", Ph: "M", PID: 1, TID: probeTrack, Args: map[string]any{"name": "probe"}},
		{Name: "thread_name", Ph: "M", PID: 1, TID: storeTrack, Args: map[string]any{"name": "record store"}},
	}
	for w := 0; w < workers; w++ {
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: w,
			Args: map[string]any{"name": fmt.Sprintf("worker %d", w)}})
	}
	for _, sp := range spans {
		args := map[string]any{"id": sp.id}
		if sp.session != 0 {
			args["session"] = sp.session
		}
		if sp.parent != 0 {
			args["parent"] = sp.parent
		}
		if sp.in != nil {
			args["key"] = sp.in.key
		}
		if sp.mode != "" {
			args["mode"] = sp.mode
		}
		for k, v := range sp.args {
			args[k] = v
		}
		events = append(events, chromeEvent{
			Name: sp.name, Cat: "layer", Ph: "X", PID: 1, TID: sp.track, Args: args,
			TS:  float64(sp.start.Sub(origin).Nanoseconds()) / 1e3,
			Dur: float64(sp.end.Sub(sp.start).Nanoseconds()) / 1e3,
		})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
