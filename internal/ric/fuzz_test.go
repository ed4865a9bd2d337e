package ric

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// corpusSeeds loads the committed .ric seed corpus.
func corpusSeeds(f *testing.F) {
	f.Helper()
	entries, err := os.ReadDir("testdata")
	if err != nil {
		f.Fatal(err)
	}
	seeded := 0
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".ric" {
			continue
		}
		data, err := os.ReadFile(filepath.Join("testdata", e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		seeded++
	}
	if seeded == 0 {
		f.Fatal("no .ric seeds in testdata")
	}
}

// FuzzDecodeRecord asserts the decoder's contract on arbitrary input:
// never panic; either reject with an error or return a record that is
// shape-valid and round-trips through Encode/Decode, re-encoding to the
// same bytes.
func FuzzDecodeRecord(f *testing.F) {
	corpusSeeds(f)
	f.Add([]byte{})
	f.Add([]byte("RICREC\x02legacy"))
	f.Add([]byte("RICREC\x04")) // v4 header with truncated body
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := Decode(data)
		if err != nil {
			return
		}
		if err := rec.validateShape(); err != nil {
			t.Fatalf("Decode accepted a shape-invalid record: %v", err)
		}
		enc := rec.Encode()
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if back.HCCount != rec.HCCount ||
			len(back.SiteTOAST) != len(rec.SiteTOAST) ||
			len(back.BuiltinTOAST) != len(rec.BuiltinTOAST) ||
			len(back.RejectedSites) != len(rec.RejectedSites) {
			t.Fatal("re-encode round trip changed the record")
		}
		if again := back.Encode(); !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding a decoded record changed its bytes (%d vs %d bytes)", len(again), len(enc))
		}
	})
}
