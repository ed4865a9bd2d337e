package bench

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"ricjs"
	"ricjs/internal/faultinject"
	"ricjs/internal/recordserv"
	"ricjs/internal/workloads"
)

// NetFaultTrial is the outcome of serving every workload through a
// SessionPool whose remote record tier sits behind one injected network
// fault mode, compared against conventional (record-free) runs.
type NetFaultTrial struct {
	Mode faultinject.NetMode

	// Sessions/Completed count sessions requested and finished; every
	// session must finish — a dead or partitioned record server may slow
	// a run, never fail it.
	Sessions  int
	Completed int
	// OutputMatch reports byte-identical program output to the
	// conventional runs across all sessions. Must be true in every mode.
	OutputMatch bool
	// Materialized is Extractions + RemoteHits: however the network
	// behaved, each key's record must be materialized exactly once.
	Extractions uint64
	RemoteHits  uint64
	// Degradation visibility: the counters that make the fault mode
	// observable in PoolStats.
	ReuseHits       uint64
	RemoteMisses    uint64
	RemoteErrors    uint64
	RemoteDegraded  uint64
	RemotePublishes uint64
	// Breaker behaviour, from the client's stats.
	BreakerOpens  uint64
	ShortCircuits uint64
	BreakerState  string
	// Err records a session error or escaped panic ("" when clean).
	Err string
}

// netFaultKeys is how many workload keys the sweep serves per mode.
func netFaultKeys() int { return len(workloads.Profiles) }

// OK reports whether the trial upheld the mode's degradation contract.
func (t NetFaultTrial) OK() bool {
	keys := uint64(netFaultKeys())
	// The universal contract: every session completed, output is
	// byte-identical, in-process sharing still worked, and each key's
	// record was materialized exactly once (remotely or by extraction).
	if t.Err != "" || t.Completed != t.Sessions || !t.OutputMatch ||
		t.ReuseHits != keys || t.Extractions+t.RemoteHits != keys {
		return false
	}
	switch t.Mode {
	case faultinject.NetNone:
		// Healthy fleet cache: every key served remotely, nothing degraded.
		return t.RemoteHits == keys && t.RemoteErrors == 0 && t.RemoteDegraded == 0 &&
			t.BreakerOpens == 0 && t.BreakerState == "closed"
	case faultinject.NetConnRefused, faultinject.NetSlowPeer, faultinject.NetTruncate:
		// Dead, slow, or torn-connection server — indistinguishable at the
		// client, and treated identically: every owner degrades to local
		// extraction, the breaker trips within its failure budget and is
		// open at the end, and the failure is visible in the counters.
		return t.Extractions == keys && t.RemoteDegraded == keys &&
			t.RemoteErrors > 0 && t.BreakerOpens >= 1 && t.BreakerState == "open"
	case faultinject.NetCorrupt:
		// Payload corruption the transport cannot see: the record codec's
		// checksum rejects every fetched record, the poisoned fleet-cache
		// entries are invalidated, local extraction repairs and republishes
		// them — and since the server answers promptly throughout, the
		// breaker never trips.
		return t.Extractions == keys && t.RemoteDegraded == keys &&
			t.RemoteErrors >= keys && t.RemotePublishes == keys &&
			t.BreakerOpens == 0
	case faultinject.NetFlap:
		// A flapping link: whatever mix of windows the requests landed in,
		// the universal contract above is the assertion — availability is
		// used when offered, degradation covers the gaps.
		return true
	default:
		return false
	}
}

// NetFaultSweep serves every workload through a pooled fleet client under
// each network fault mode and checks the degradation contract. The
// service is seeded with every key's record first, so fetch-path faults
// (truncation, corruption) have a payload to corrupt. Sessions are served
// sequentially, making the counter assertions deterministic.
func NetFaultSweep() ([]NetFaultTrial, error) {
	// Conventional baselines, one per workload: the output every faulted
	// session must reproduce byte-for-byte.
	cache := ricjs.NewCodeCache()
	want := make(map[string]string, len(workloads.Profiles))
	seeds := make(map[string][]byte, len(workloads.Profiles))
	for _, p := range workloads.Profiles {
		src := p.Source()
		eng := ricjs.NewEngine(ricjs.Options{Cache: cache})
		if err := eng.Run(p.Script, src); err != nil {
			return nil, fmt.Errorf("conventional run %s: %w", p.Name, err)
		}
		want[p.Name] = eng.Output()
		seeds[p.Name] = eng.ExtractRecord(p.Name).Encode()
	}

	var trials []NetFaultTrial
	for _, mode := range faultinject.NetModes() {
		trial, err := runNetFaultTrial(mode, cache, want, seeds)
		if err != nil {
			return nil, err
		}
		trials = append(trials, trial)
	}
	return trials, nil
}

// runNetFaultTrial runs one mode: fresh server seeded with every record,
// fresh local store, fresh pool whose remote client sits behind the
// fault-injecting transport.
func runNetFaultTrial(mode faultinject.NetMode, cache *ricjs.CodeCache,
	want map[string]string, seeds map[string][]byte) (trial NetFaultTrial, err error) {
	trial = NetFaultTrial{Mode: mode}
	defer func() {
		if r := recover(); r != nil {
			trial.Err = fmt.Sprintf("panic escaped the pool: %v", r)
		}
	}()

	srv := recordserv.NewServer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return trial, err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln) //nolint:errcheck
	defer hs.Close()
	baseURL := "http://" + ln.Addr().String()

	// Seed the fleet cache over a clean transport.
	seeder, err := recordserv.NewClient(recordserv.Options{BaseURL: baseURL})
	if err != nil {
		return trial, err
	}
	for key, data := range seeds {
		if perr := seeder.Publish(key, data); perr != nil {
			return trial, fmt.Errorf("seed publish %s: %w", key, perr)
		}
	}

	// The fleet client: tight deadline and retry budget (a slow peer must
	// convert to a bounded failure quickly), deterministic jitter, and a
	// breaker that trips after 3 consecutive failed operations.
	client, err := recordserv.NewClient(recordserv.Options{
		BaseURL: baseURL,
		Transport: &faultinject.NetFault{
			Base:    &http.Transport{},
			Mode:    mode,
			Latency: 150 * time.Millisecond,
		},
		RequestTimeout:   50 * time.Millisecond,
		MaxRetries:       1,
		BackoffBase:      time.Millisecond,
		BackoffCap:       4 * time.Millisecond,
		JitterSeed:       1,
		BreakerThreshold: 3,
		BreakerCooldown:  5 * time.Millisecond,
	})
	if err != nil {
		return trial, err
	}

	dir, err := os.MkdirTemp("", "ric-netfaults-*")
	if err != nil {
		return trial, err
	}
	defer os.RemoveAll(dir)
	store, err := ricjs.OpenRecordStore(dir)
	if err != nil {
		return trial, err
	}

	pool := ricjs.NewSessionPool(ricjs.PoolOptions{
		Cache:  cache,
		Store:  store,
		Remote: ricjs.NewRemoteTier(client),
	})

	// Two sessions per key, sequential: the first walks the tier ladder
	// under the fault, the second must be an in-process reuse hit.
	trial.OutputMatch = true
	for _, p := range workloads.Profiles {
		src := p.Source()
		for i := 0; i < 2; i++ {
			trial.Sessions++
			res, serr := pool.Serve(ricjs.SessionRequest{
				Key:     p.Name,
				Scripts: []ricjs.SessionScript{{Name: p.Script, Src: src}},
			})
			if serr != nil {
				trial.Err = fmt.Sprintf("session %s/%d: %v", p.Name, i, serr)
				return trial, nil
			}
			trial.Completed++
			if res.Output != want[p.Name] {
				trial.OutputMatch = false
			}
		}
	}

	ps := pool.Stats()
	cs := client.Stats()
	trial.Extractions = ps.Extractions
	trial.RemoteHits = ps.RemoteHits
	trial.ReuseHits = ps.ReuseHits
	trial.RemoteMisses = ps.RemoteMisses
	trial.RemoteErrors = ps.RemoteErrors
	trial.RemoteDegraded = ps.RemoteDegradedSessions
	trial.RemotePublishes = ps.RemotePublishes
	trial.BreakerOpens = cs.BreakerOpens
	trial.ShortCircuits = cs.ShortCircuits
	trial.BreakerState = cs.BreakerState
	return trial, nil
}

// ReportNetFaults prints the network chaos sweep as a table: one row per
// fault mode with the degradation verdicts.
func ReportNetFaults(w io.Writer, trials []NetFaultTrial) {
	fmt.Fprintln(w, "Network chaos sweep: pooled sessions with a faulted remote record tier vs conventional runs")
	t := tw(w)
	fmt.Fprintln(t, "Fault\tSessions\tOutputMatch\tExtract\tRemoteHit\tRemoteErr\tDegraded\tBreaker\tVerdict")
	failed := 0
	for _, trial := range trials {
		verdict := "ok"
		if !trial.OK() {
			verdict = "FAIL"
			if trial.Err != "" {
				verdict = "FAIL: " + trial.Err
			}
			failed++
		}
		fmt.Fprintf(t, "%s\t%d/%d\t%v\t%d\t%d\t%d\t%d\t%s (%d opens, %d short-circuits)\t%s\n",
			trial.Mode, trial.Completed, trial.Sessions, trial.OutputMatch,
			trial.Extractions, trial.RemoteHits, trial.RemoteErrors, trial.RemoteDegraded,
			trial.BreakerState, trial.BreakerOpens, trial.ShortCircuits, verdict)
	}
	t.Flush()
	if failed > 0 {
		fmt.Fprintf(w, "%d of %d fault modes FAILED\n", failed, len(trials))
	} else {
		fmt.Fprintf(w, "all %d fault modes ok: every session completed with byte-identical output; failures degraded, tripped the breaker where expected, and stayed visible in the counters\n", len(trials))
	}
}
