package ricjs

// Record-bytes pin: every encoded record the engine produces for a fixed
// set of sessions is locked, byte for byte, against a committed SHA-256
// digest. The perf gate pins record lengths only; a change to extraction
// or to the codec that keeps every length but moves a byte (an HCID
// renumbering, a reordered section, a different symbol-table order)
// shows up here instead.

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ricjs/internal/progen"
	"ricjs/internal/workloads"
)

var updateRecordDigests = flag.Bool("update-records", false, "rewrite testdata/record_digests.txt")

// recordDigestPath holds one line per pinned session:
// "<name> <encoded length> <sha256 of the encoding>".
var recordDigestPath = filepath.Join("testdata", "record_digests.txt")

// pinnedSession is one session whose record is pinned: its scripts run in
// order on one engine, then the engine's record is extracted and encoded.
type pinnedSession struct {
	name    string
	scripts []workloads.ScriptRef
	globals bool // Options.IncludeGlobals
}

// pinnedSessions lists every profile, Website1's multi-script session and
// progen seeds 200–209, then the profiles and Website1 again with the
// global object's state included (the ablation setting).
func pinnedSessions() []pinnedSession {
	var out []pinnedSession
	for _, p := range workloads.Profiles {
		out = append(out, pinnedSession{p.Name, []workloads.ScriptRef{{Name: p.Script, Source: p.Source()}}, false})
	}
	out = append(out, pinnedSession{"Website1", workloads.Website(1), false})
	for seed := uint64(200); seed <= 209; seed++ {
		name := fmt.Sprintf("progen-%d", seed)
		out = append(out, pinnedSession{name, []workloads.ScriptRef{{Name: name + ".js", Source: progen.New(seed).Program()}}, false})
	}
	n := len(workloads.Profiles) + 1
	for _, s := range out[:n] {
		out = append(out, pinnedSession{s.name + "+globals", s.scripts, true})
	}
	return out
}

// TestRecordDigests extracts and encodes each pinned session's record and
// compares it with the committed digest. Regenerate deliberately with
//
//	go test -run TestRecordDigests -update-records .
func TestRecordDigests(t *testing.T) {
	var lines []string
	for _, s := range pinnedSessions() {
		e := NewEngine(Options{Cache: NewCodeCache(), IncludeGlobals: s.globals})
		for _, sc := range s.scripts {
			if err := e.Run(sc.Name, sc.Source); err != nil {
				t.Fatalf("%s: %s: %v", s.name, sc.Name, err)
			}
		}
		enc := e.ExtractRecord(s.name).Encode()
		sum := sha256.Sum256(enc)
		lines = append(lines, fmt.Sprintf("%s %d %s", s.name, len(enc), hex.EncodeToString(sum[:])))
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateRecordDigests {
		if err := os.WriteFile(recordDigestPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(recordDigestPath)
	if err != nil {
		t.Fatalf("missing %s (run `go test -run TestRecordDigests -update-records .` to create it): %v", recordDigestPath, err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("%s pins %d sessions, the test produces %d", recordDigestPath, len(wantLines), len(lines))
	}
	for i, line := range lines {
		if line != wantLines[i] {
			t.Errorf("record bytes drifted:\n got  %s\n want %s", line, wantLines[i])
		}
	}
}
