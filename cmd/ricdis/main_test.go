package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden -analyze listing")

// TestAnalyzeGolden pins the -analyze listing for the point fixture: site
// order, shape-id order, and the typed-slot annotations are all
// deterministic, so the listing is byte-stable. Regenerate deliberately:
//
//	go test ./cmd/ricdis -run TestAnalyzeGolden -update
func TestAnalyzeGolden(t *testing.T) {
	var out, errw bytes.Buffer
	if rc := run(&out, &errw, false, true, []string{"../../testdata/point.js"}); rc != 0 {
		t.Fatalf("ricdis -analyze failed (rc %d): %s", rc, errw.String())
	}
	if errw.Len() != 0 {
		t.Fatalf("unexpected warnings: %s", errw.String())
	}
	golden := filepath.Join("testdata", "point-analyze.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("-analyze listing drifted from golden (rerun with -update if deliberate):\n--- got ---\n%s\n--- want ---\n%s", out.Bytes(), want)
	}
	// The listing must actually exercise the typed annotations — an empty
	// match would pass vacuously if inference silently stopped producing
	// claims.
	if !bytes.Contains(out.Bytes(), []byte(":float")) && !bytes.Contains(out.Bytes(), []byte(":smallint")) {
		t.Fatal("golden listing contains no typed-slot annotations")
	}
}
