package ricjs_test

import (
	"bufio"
	"bytes"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"ricjs"
	"ricjs/internal/faultinject"
	"ricjs/internal/recordserv"
	"ricjs/internal/trace"
)

// startRecordServer runs an in-process record service on a loopback
// listener and returns its base URL plus the handler for stats.
func startRecordServer(t *testing.T) (string, *recordserv.Server, func()) {
	t.Helper()
	srv := recordserv.NewServer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln) //nolint:errcheck
	stop := func() { hs.Close() }
	t.Cleanup(stop)
	return "http://" + ln.Addr().String(), srv, stop
}

// fleetClient builds a record-service client with a deadline/retry budget
// small enough that a dead server degrades a test in milliseconds, and a
// cooldown long enough that a tripped breaker stays visibly open.
func fleetClient(t *testing.T, baseURL string) *recordserv.Client {
	t.Helper()
	c, err := recordserv.NewClient(recordserv.Options{
		BaseURL:          baseURL,
		RequestTimeout:   100 * time.Millisecond,
		MaxRetries:       1,
		BackoffBase:      time.Millisecond,
		BackoffCap:       4 * time.Millisecond,
		JitterSeed:       1,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRemoteFleetSingleExtraction is the fleet-wide single-flight
// acceptance: two independent pools (two "nodes") sharing one record
// service serve the same key, and exactly one extraction happens across
// the whole fleet — the second node fetches the published record.
func TestRemoteFleetSingleExtraction(t *testing.T) {
	baseURL, srv, _ := startRecordServer(t)
	key, script, src := poolLib(0)
	want := sequentialOutputs(t, 1)[key]
	req := ricjs.SessionRequest{Key: key, Scripts: []ricjs.SessionScript{{Name: script, Src: src}}}

	serveOn := func(owner string) (*ricjs.SessionResult, ricjs.PoolStats) {
		store, err := ricjs.OpenRecordStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		pool := ricjs.NewSessionPool(ricjs.PoolOptions{
			Store:  store,
			Remote: ricjs.NewRemoteTier(fleetClient(t, baseURL)),
		})
		res, err := pool.Serve(req)
		if err != nil {
			t.Fatalf("node %s: %v", owner, err)
		}
		return res, pool.Stats()
	}

	resA, statsA := serveOn("node-a")
	if resA.Mode != ricjs.SessionInitial {
		t.Fatalf("node A mode = %v, want initial", resA.Mode)
	}
	if statsA.Extractions != 1 || statsA.RemoteMisses != 1 || statsA.RemotePublishes != 1 {
		t.Fatalf("node A stats = %+v, want 1 extraction, 1 remote miss, 1 publish", statsA)
	}

	resB, statsB := serveOn("node-b")
	if resB.Mode != ricjs.SessionReuse {
		t.Fatalf("node B mode = %v, want reuse from the fleet cache", resB.Mode)
	}
	if statsB.Extractions != 0 || statsB.RemoteHits != 1 {
		t.Fatalf("node B stats = %+v, want 0 extractions, 1 remote hit", statsB)
	}
	if total := statsA.Extractions + statsB.Extractions; total != 1 {
		t.Fatalf("fleet-wide extractions = %d, want exactly 1", total)
	}
	if resA.Output != want || resB.Output != want {
		t.Fatalf("outputs %q / %q, want %q", resA.Output, resB.Output, want)
	}
	if ss := srv.Stats(); ss.Publishes != 1 {
		t.Fatalf("server publishes = %d, want 1", ss.Publishes)
	}
}

// TestRemoteConcurrentColdStart races two nodes on one cold key. Nodes
// do not coordinate extraction, so each node extracts at most once and
// the other may fetch instead; either way the fleet ends with one record,
// byte-identical to a fresh extraction, that a third node reuses.
func TestRemoteConcurrentColdStart(t *testing.T) {
	const perNode = 6
	baseURL, srv, _ := startRecordServer(t)
	key, script, src := poolLib(2)
	want := sequentialOutputs(t, 3)[key]
	req := ricjs.SessionRequest{Key: key, Scripts: []ricjs.SessionScript{{Name: script, Src: src}}}
	newNode := func() *ricjs.SessionPool {
		return ricjs.NewSessionPool(ricjs.PoolOptions{Remote: ricjs.NewRemoteTier(fleetClient(t, baseURL))})
	}

	nodes := []*ricjs.SessionPool{newNode(), newNode()}
	outputs := make([]string, len(nodes)*perNode)
	errs := make([]error, len(outputs))
	var wg sync.WaitGroup
	for i := range outputs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := nodes[i%len(nodes)].Serve(req)
			if err == nil {
				outputs[i] = res.Output
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i := range outputs {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if outputs[i] != want {
			t.Fatalf("session %d output %q, want %q", i, outputs[i], want)
		}
	}
	var materialized uint64
	for n, node := range nodes {
		st := node.Stats()
		if st.Extractions > 1 {
			t.Fatalf("node %d extracted %d times, want at most 1 (stats %+v)", n, st.Extractions, st)
		}
		materialized += st.Extractions + st.RemoteHits
	}
	if materialized != 2 {
		t.Fatalf("extractions + remote hits over both nodes = %d, want 2", materialized)
	}

	if ss := srv.Stats(); ss.Records != 1 {
		t.Fatalf("server holds %d records, want 1", ss.Records)
	}
	published, err := fleetClient(t, baseURL).Fetch(key)
	if err != nil {
		t.Fatal(err)
	}
	eng := ricjs.NewEngine(ricjs.Options{})
	if err := eng.Run(script, src); err != nil {
		t.Fatal(err)
	}
	if fresh := eng.ExtractRecord(key).Encode(); !bytes.Equal(published, fresh) {
		t.Fatalf("published record (%d bytes) differs from a fresh extraction (%d bytes)", len(published), len(fresh))
	}

	third := newNode()
	res, err := third.Serve(req)
	if err != nil {
		t.Fatalf("third node: %v", err)
	}
	if res.Output != want {
		t.Fatalf("third node output %q, want %q", res.Output, want)
	}
	if st := third.Stats(); st.RemoteHits != 1 || st.Extractions != 0 {
		t.Fatalf("third node stats = %+v, want 1 remote hit, 0 extractions", st)
	}
}

// TestRemotePartitionMidRun is the acceptance scenario from the issue:
// the record server is killed mid-benchmark. Sessions served before the
// partition use the remote tier; sessions after it must still complete
// with byte-identical output, the breaker must open within its failure
// budget, and the degradation must be visible in Stats().
func TestRemotePartitionMidRun(t *testing.T) {
	const nkeys = 4
	baseURL, _, stop := startRecordServer(t)
	want := sequentialOutputs(t, nkeys)

	client := fleetClient(t, baseURL)
	pool := ricjs.NewSessionPool(ricjs.PoolOptions{
		Remote: ricjs.NewRemoteTier(client),
	})
	serve := func(i int) *ricjs.SessionResult {
		key, script, src := poolLib(i)
		res, err := pool.Serve(ricjs.SessionRequest{
			Key:     key,
			Scripts: []ricjs.SessionScript{{Name: script, Src: src}},
		})
		if err != nil {
			t.Fatalf("session %d: a partitioned record server must never fail a run: %v", i, err)
		}
		if key, _, _ := poolLib(i); res.Output != want[key] {
			t.Fatalf("session %d output %q, want %q", i, res.Output, want[key])
		}
		return res
	}

	// Healthy phase: key 0 extracts and publishes to the fleet.
	serve(0)
	if st := pool.Stats(); st.RemotePublishes != 1 {
		t.Fatalf("healthy-phase stats = %+v, want 1 remote publish", st)
	}

	// The server dies. Every further cold key must walk down the ladder to
	// local extraction, quickly.
	stop()
	for i := 1; i < nkeys; i++ {
		serve(i)
	}
	// The warm key is untouched by the partition: in-process reuse.
	if res := serve(0); res.Mode != ricjs.SessionReuse {
		t.Fatalf("warm key mode = %v, want reuse", res.Mode)
	}

	st := pool.Stats()
	if st.Extractions != nkeys {
		t.Fatalf("Extractions = %d, want %d (every key materialized locally)", st.Extractions, nkeys)
	}
	if st.RemoteErrors == 0 || st.RemoteDegradedSessions != nkeys-1 {
		t.Fatalf("stats = %+v: the partition must be visible (errors > 0, %d degraded sessions)", st, nkeys-1)
	}
	cs := client.Stats()
	if cs.BreakerOpens < 1 || cs.BreakerState != "open" {
		t.Fatalf("breaker = %s after %d opens, want open/>=1 (client stats %+v)", cs.BreakerState, cs.BreakerOpens, cs)
	}
}

// TestSessionPoolStoreFaultsUnderRace drives concurrent pooled sessions
// against a store whose reads and renames both fail: every session must
// complete with byte-identical output, each key must extract exactly once
// (the retryable-key discipline survives store failure), every session
// must be counted by exactly one serving mode, and the failures must be
// counted. Run under -race this also proves the fault paths are data-race
// free.
func TestSessionPoolStoreFaultsUnderRace(t *testing.T) {
	const (
		nkeys    = 4
		sessions = 16
	)
	want := sequentialOutputs(t, nkeys)
	ffs := &faultinject.FaultFS{
		Base:      ricjs.NewOSFS(),
		ReadErr:   faultinject.ErrIO,
		RenameErr: faultinject.ErrIO,
	}
	store, err := ricjs.OpenRecordStoreFS(t.TempDir(), ffs)
	if err != nil {
		t.Fatal(err)
	}
	pool := ricjs.NewSessionPool(ricjs.PoolOptions{Store: store})

	results := make([]*ricjs.SessionResult, sessions)
	errs := make([]error, sessions)
	keys := make([]string, sessions)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		key, script, src := poolLib(s % nkeys)
		keys[s] = key
		wg.Add(1)
		go func(s int, req ricjs.SessionRequest) {
			defer wg.Done()
			results[s], errs[s] = pool.Serve(req)
		}(s, ricjs.SessionRequest{
			Key:     key,
			Scripts: []ricjs.SessionScript{{Name: script, Src: src}},
		})
	}
	wg.Wait()

	initials := 0
	for s := 0; s < sessions; s++ {
		if errs[s] != nil {
			t.Fatalf("session %d: store faults must never fail a session: %v", s, errs[s])
		}
		if results[s].Output != want[keys[s]] {
			t.Fatalf("session %d (%s): output %q, want %q", s, keys[s], results[s].Output, want[keys[s]])
		}
		if results[s].Mode == ricjs.SessionInitial {
			initials++
		}
	}
	st := pool.Stats()
	if st.Extractions != nkeys || initials != nkeys {
		t.Fatalf("Extractions = %d with %d SessionInitial results, want exactly %d", st.Extractions, initials, nkeys)
	}
	if total := st.Extractions + st.StoreLoads + st.ReuseHits + st.ConventionalRuns; total != sessions {
		t.Fatalf("extractions(%d) + store loads(%d) + reuse(%d) + conventional(%d) = %d, want %d",
			st.Extractions, st.StoreLoads, st.ReuseHits, st.ConventionalRuns, total, sessions)
	}
	// Each cold key fails one load and one save: 2*nkeys store errors.
	if st.StoreErrors != 2*nkeys {
		t.Fatalf("StoreErrors = %d, want %d (one failed load + one failed save per key)", st.StoreErrors, 2*nkeys)
	}
	if st.StoreLoads != 0 {
		t.Fatalf("StoreLoads = %d, want 0 through a failing disk", st.StoreLoads)
	}
}

// TestRecordStoreKeysReadDirFault covers the ReadDir fault hook: an
// enumeration over a failing disk must surface the error, not report an
// empty (healthy-looking) store.
func TestRecordStoreKeysReadDirFault(t *testing.T) {
	dir := t.TempDir()
	healthy, err := ricjs.OpenRecordStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, script, src := poolLib(3)
	eng := ricjs.NewEngine(ricjs.Options{})
	if err := eng.Run(script, src); err != nil {
		t.Fatal(err)
	}
	if err := healthy.Save(key, eng.ExtractRecord(key)); err != nil {
		t.Fatal(err)
	}

	ffs := &faultinject.FaultFS{Base: ricjs.NewOSFS(), ReadDirErr: faultinject.ErrIO}
	broken, err := ricjs.OpenRecordStoreFS(dir, ffs)
	if err != nil {
		t.Fatal(err)
	}
	if keys, err := broken.Keys(); err == nil {
		t.Fatalf("Keys() over a failing disk returned %v; must surface the error", keys)
	}
	// The healthy handle still sees the record: the fault was the disk, not
	// the data.
	if keys, err := healthy.Keys(); err != nil || len(keys) != 1 {
		t.Fatalf("healthy Keys() = %v, %v", keys, err)
	}
}

// TestPoolQuarantineVisible plants corrupt record bytes behind a key and
// proves the quarantine is observable end to end: the pool counter, the
// trace event, and a session that still completes by re-extracting.
func TestPoolQuarantineVisible(t *testing.T) {
	store, err := ricjs.OpenRecordStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, script, src := poolLib(5)
	if err := store.SaveBytes(key, []byte("RICREC\xffgarbage")); err != nil {
		t.Fatal(err)
	}
	want := sequentialOutputs(t, 6)[key]

	pool := ricjs.NewSessionPool(ricjs.PoolOptions{Store: store, TraceCapacity: -1})
	res, err := pool.Serve(ricjs.SessionRequest{
		Key:     key,
		Scripts: []ricjs.SessionScript{{Name: script, Src: src}},
	})
	if err != nil {
		t.Fatalf("corrupt stored record must never fail a session: %v", err)
	}
	if res.Mode != ricjs.SessionInitial || res.Output != want {
		t.Fatalf("mode %v output %q, want initial run with output %q", res.Mode, res.Output, want)
	}
	if st := pool.Stats(); st.QuarantinedRecords != 1 {
		t.Fatalf("QuarantinedRecords = %d, want 1 (stats %+v)", st.QuarantinedRecords, st)
	}
	if res.Trace == nil || res.Trace.Count(trace.EvPoolQuarantine) != 1 {
		t.Fatalf("trace quarantine events = %d, want 1", res.Trace.Count(trace.EvPoolQuarantine))
	}
	// The poison is gone: the next pool serves the re-extracted record from
	// the store without quarantining again.
	pool2 := ricjs.NewSessionPool(ricjs.PoolOptions{Store: store})
	res2, err := pool2.Serve(ricjs.SessionRequest{
		Key:     key,
		Scripts: []ricjs.SessionScript{{Name: script, Src: src}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Mode != ricjs.SessionReuse {
		t.Fatalf("post-quarantine mode = %v, want reuse of the repaired record", res2.Mode)
	}
	if st := pool2.Stats(); st.QuarantinedRecords != 0 {
		t.Fatalf("repaired store quarantined again: %+v", st)
	}
}

// TestRicservedFleetSmoke exercises the real ricserved binary end to end:
// build it, start it, point two pooled clients at it, and assert exactly
// one extraction fleet-wide plus a clean drain on SIGTERM.
func TestRicservedFleetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the ricserved binary")
	}
	bin := filepath.Join(t.TempDir(), "ricserved")
	if out, err := exec.Command("go", "build", "-o", bin, "ricjs/cmd/ricserved").CombinedOutput(); err != nil {
		t.Fatalf("go build ricserved: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() //nolint:errcheck

	// The first stdout line announces the resolved listen address.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("ricserved produced no output: %v", sc.Err())
	}
	line := sc.Text()
	addr := line[strings.LastIndex(line, " ")+1:]
	if _, _, err := net.SplitHostPort(addr); err != nil {
		t.Fatalf("could not parse listen address from %q: %v", line, err)
	}
	baseURL := "http://" + addr

	key, script, src := poolLib(1)
	req := ricjs.SessionRequest{Key: key, Scripts: []ricjs.SessionScript{{Name: script, Src: src}}}
	var outputs []string
	var extractions uint64
	for _, owner := range []string{"smoke-a", "smoke-b"} {
		tier := ricjs.NewRemoteTier(fleetClient(t, baseURL))
		pool := ricjs.NewSessionPool(ricjs.PoolOptions{Remote: tier})
		res, err := pool.Serve(req)
		if err != nil {
			t.Fatalf("node %s: %v", owner, err)
		}
		outputs = append(outputs, res.Output)
		extractions += pool.Stats().Extractions
	}
	if extractions != 1 {
		t.Fatalf("fleet-wide extractions = %d, want exactly 1", extractions)
	}
	if outputs[0] != outputs[1] {
		t.Fatalf("node outputs differ: %q vs %q", outputs[0], outputs[1])
	}

	// SIGTERM drains cleanly and prints the final stats line.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	donec := make(chan error, 1)
	go func() { donec <- cmd.Wait() }()
	select {
	case err := <-donec:
		if err != nil {
			t.Fatalf("ricserved exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ricserved did not drain within 10s of SIGTERM")
	}
}
