package ric

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"ricjs/internal/objects"
)

// TestEncodeEmitsV5 pins the current writer version: every record we
// persist from now on carries the symbol-table and typed-shape sections.
func TestEncodeEmitsV5(t *testing.T) {
	_, rec := initialRun(t, pointLib, Config{})
	data := rec.Encode()
	if got := data[len(recordTag)]; got != 5 {
		t.Fatalf("Encode emitted version %d, want 5", got)
	}
	if _, err := Decode(data); err != nil {
		t.Fatalf("fresh v5 record does not decode: %v", err)
	}
}

// TestSymbolTableDeduplicatesNames verifies the on-disk dedup: a property
// named at many dependent sites appears in the record exactly once (in the
// symbol table), not once per site as in v3.
func TestSymbolTableDeduplicatesNames(t *testing.T) {
	// The load site goes polymorphic over A and B, so it is recorded as a
	// dependent of both hidden classes — two DepEntries naming the property.
	src := `
		function A(v) { this.uniquePropertyName = v; }
		function B(v) { this.pad = 0; this.uniquePropertyName = v; }
		var objs = [new A(1), new B(2), new A(3), new B(4)];
		var total = 0;
		for (var j = 0; j < 4; j++) total += objs[j].uniquePropertyName;
		print(total);
	`
	_, rec := initialRun(t, src, Config{})
	uses := 0
	for _, deps := range rec.Deps {
		for _, d := range deps {
			if d.Name == "uniquePropertyName" {
				uses++
			}
		}
	}
	if uses < 2 {
		t.Fatalf("fixture too weak: property recorded at %d dependents, need ≥2", uses)
	}
	if n := bytes.Count(rec.Encode(), []byte("uniquePropertyName")); n != 1 {
		t.Fatalf("name appears %d times in encoded record, want exactly 1", n)
	}
}

// wireWriter writes a hand-built record body.
type wireWriter struct{ bytes.Buffer }

func (w *wireWriter) uv(v uint64) { w.Write(binary.AppendUvarint(nil, v)) }
func (w *wireWriter) sv(v int64)  { w.Write(binary.AppendVarint(nil, v)) }
func (w *wireWriter) str(s string) {
	w.uv(uint64(len(s)))
	w.WriteString(s)
}

// wireRecord frames a hand-built record body with the magic, the current
// version and a valid CRC32 trailer, so only structural decoding can
// reject it.
func wireRecord(body func(w *wireWriter)) []byte {
	var w wireWriter
	w.Write(recordTag)
	w.WriteByte(recordVersion)
	body(&w)
	return binary.LittleEndian.AppendUint32(w.Bytes(), crc32.ChecksumIEEE(w.Bytes()))
}

// TestDecodeRejectsBadSymbolIndex hand-crafts a record whose builtin
// section references a symbol index past the table: structural validation
// must reject it (the checksum is valid, so only index checking can).
func TestDecodeRejectsBadSymbolIndex(t *testing.T) {
	data := wireRecord(func(w *wireWriter) {
		w.str("") // label
		w.uv(0)   // flags
		w.uv(0)   // script table: empty
		w.uv(0)   // symbol table: empty
		w.uv(1)   // one hidden class
		w.uv(0)   // ... with no dependents
		w.uv(0)   // site TOAST: empty
		w.uv(1)   // one builtin entry
		w.uv(5)   // symbol index 5 — out of range
		w.uv(0)   // builtin HCID
		w.uv(0)   // rejected sites: empty
		w.uv(0)   // typed shapes: empty
	})
	if _, err := Decode(data); err == nil {
		t.Fatal("out-of-range symbol index was accepted")
	}
}

// TestDecodeRejectsOutOfRangeIntegers feeds one checksum-valid record per
// narrowed wire field, with that field past the range of its record type.
// Each must be rejected rather than truncated into a plausible value
// (1<<32 would otherwise decode as 0 and pass validation). The same record
// with the field in range decodes, so only the range check rejects it.
func TestDecodeRejectsOutOfRangeIntegers(t *testing.T) {
	const big = 1 << 32
	cases := []struct {
		field   string
		ok, bad int64
	}{
		{"dep site line", 7, big + 7},
		{"dep site col", 3, big + 3},
		{"dep access kind", 0, 256},
		{"dep handler kind", 0, 256},
		{"dep handler offset", 1, big + 1},
		{"dep inner kind", 0, 256},
		{"TOAST pair in", -1, big - 1},
		{"TOAST pair out", 0, big},
		{"builtin id", 0, big},
		{"typed shape id", 0, big},
		{"typed claim offset", 2, big + 2},
	}
	// record builds a one-of-everything record: one hidden class with one
	// LoadField dependent, one TOAST pair, one builtin and one claim. The
	// named field takes the value v instead of its default.
	record := func(field string, v int64) []byte {
		at := func(f string, dflt int64) int64 {
			if f == field {
				return v
			}
			return dflt
		}
		return wireRecord(func(w *wireWriter) {
			w.str("")     // label
			w.uv(0)       // flags
			w.uv(1)       // script table
			w.str("a.js") // ... script 0
			w.uv(1)       // symbol table
			w.str("x")    // ... symbol 0
			w.uv(1)       // one hidden class
			w.uv(1)       // ... with one dependent:
			w.uv(0)       // site script
			w.uv(uint64(at("dep site line", 1)))
			w.uv(uint64(at("dep site col", 1)))
			w.uv(uint64(at("dep access kind", 0)))
			w.uv(0) // site name: symbol 0
			w.uv(uint64(at("dep handler kind", 0)))
			w.sv(at("dep handler offset", 0))
			w.uv(0) // handler name: symbol 0
			w.uv(uint64(at("dep inner kind", 0)))
			w.uv(1) // site TOAST: one site
			w.uv(0) // ... script
			w.uv(2) // ... line
			w.uv(2) // ... col
			w.uv(1) // ... one pair
			w.sv(at("TOAST pair in", -1))
			w.sv(at("TOAST pair out", 0))
			w.uv(1) // builtin TOAST: one entry
			w.uv(0) // ... symbol 0
			w.uv(uint64(at("builtin id", 0)))
			w.uv(0) // rejected sites: empty
			w.uv(1) // typed shapes: one row
			w.uv(uint64(at("typed shape id", 0)))
			w.uv(1) // ... one claim
			w.uv(uint64(at("typed claim offset", 0)))
			w.WriteByte(byte(objects.SlotTypeSmallInt))
		})
	}
	if _, err := Decode(record("", 0)); err != nil {
		t.Fatalf("default hand-built record rejected: %v", err)
	}
	for _, c := range cases {
		if _, err := Decode(record(c.field, c.ok)); err != nil {
			t.Errorf("%s = %d rejected: %v", c.field, c.ok, err)
		}
		if rec, err := Decode(record(c.field, c.bad)); err == nil {
			t.Errorf("%s = %d decoded instead of being rejected: %+v", c.field, c.bad, rec)
		}
	}
}

// TestV4SymbolTableRoundTripByteIdentical pins the Initial→Reuse stability
// contract: encode → decode → encode reproduces the same bytes, so the
// record a Reuse session re-persists is bit-for-bit the record it loaded.
// The symbol table (introduced in v4, carried by the current format) makes
// this non-trivial — table order must be derivable from the decoded record
// (first-use order of the deterministic walk).
func TestV4SymbolTableRoundTripByteIdentical(t *testing.T) {
	_, rec := initialRun(t, pointLib, Config{})
	data := rec.Encode()
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if again := back.Encode(); !bytes.Equal(again, data) {
		t.Fatal("decode → encode is not byte-identical")
	}
}

// TestDecodeStillRejectsUnknownVersions pins the version gate: a record
// in the current format decodes, and the same bytes under any other
// version byte — the retired v3 and v4 formats included — are rejected.
func TestDecodeStillRejectsUnknownVersions(t *testing.T) {
	_, rec := initialRun(t, pointLib, Config{})
	data := rec.Encode()
	if _, err := Decode(data); err != nil {
		t.Fatal(err)
	}
	for _, v := range []byte{0, 1, 2, 3, 4, 6, 0x7c} {
		mut := append([]byte{}, data...)
		mut[len(recordTag)] = v
		// Fix the checksum so only the version gate can reject it.
		binary.LittleEndian.PutUint32(mut[len(mut)-recordTrailerLen:],
			crc32.ChecksumIEEE(mut[:len(mut)-recordTrailerLen]))
		if _, err := Decode(mut); err == nil {
			t.Fatalf("version byte %d was accepted", v)
		}
	}
	// The committed records written by the retired v4 format stay as
	// rejected inputs (and as fuzz seeds).
	for _, name := range []string{"point-v4.ric", "array-v4.ric"} {
		legacy, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(legacy); err == nil {
			t.Fatalf("%s: v4 record was accepted", name)
		}
	}
}
