package ric

import (
	"runtime"
	"testing"
	"unsafe"

	"ricjs/internal/symtab"
	"ricjs/internal/vm"
	"ricjs/internal/workloads"
)

// TestDepEntrySize pins the size of one HCVT dependent: a resident record
// keeps one per (hidden class, site) pair, so a field added or reordered
// carelessly grows every served record.
func TestDepEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(DepEntry{}); got != 72 {
		t.Errorf("unsafe.Sizeof(DepEntry) = %d, want 72", got)
	}
}

// allocatedBy returns the bytes the heap allocated while fn ran.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeForgedDepCountAllocatesLittle forges checksum-valid records
// whose one HCVT row claims more dependents than the input holds. Decode
// sizes a row from its count, so the count guard is what bounds the
// allocation: a count past what the remaining input could encode is
// rejected before the row is allocated, and one it could encode sizes the
// row no larger than the input could fill.
func TestDecodeForgedDepCountAllocatesLittle(t *testing.T) {
	// Nine zero bytes decode as one dependent (script 0, line 0, col 0,
	// kind 0, symbol 0, handler 0, offset 0, symbol 0, inner 0). The byte
	// after them is no valid script index, so no forged record decodes.
	const pad = 1 << 16
	forged := func(count uint64) []byte {
		return wireRecord(func(w *wireWriter) {
			w.str("")     // label
			w.uv(0)       // flags
			w.uv(1)       // script table
			w.str("a.js") // ... script 0
			w.uv(1)       // symbol table
			w.str("x")    // ... symbol 0
			w.uv(1)       // one hidden class
			w.uv(count)   // ... with the forged dependent count
			w.Write(make([]byte, pad))
			w.WriteByte(9) // script index 9: out of range
		})
	}
	fill := uint64(pad/minDepBytes) * uint64(unsafe.Sizeof(DepEntry{}))
	for _, c := range []struct {
		name  string
		count uint64
		limit uint64
	}{
		{"far past the input", 1 << 40, 4 << 10},
		{"one byte per dependent", pad, 4 << 10},
		{"as many as the input could encode", pad / minDepBytes, fill + 4<<10},
	} {
		data := forged(c.count)
		var err error
		got := allocatedBy(func() { _, err = Decode(data) })
		if err == nil {
			t.Errorf("%s: forged count %d decoded", c.name, c.count)
		}
		if got > c.limit {
			t.Errorf("%s: decoding a forged count %d allocated %d bytes, want at most %d", c.name, c.count, got, c.limit)
		}
	}
}

// TestRecordNamesShareSymbolTable checks that an extracted and a decoded
// record hold the symbol table's copy of every dependent's name. A
// compiled site's name is a slice of the script's source, so a record
// holding it would keep the whole source alive after the code cache
// evicted the program.
func TestRecordNamesShareSymbolTable(t *testing.T) {
	for _, p := range workloads.Profiles {
		prog := compileSrc(t, p.Script, p.Source())
		v := vm.New(vm.Options{AddressSeed: 1})
		if _, err := v.RunProgram(prog); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		extracted := Extract(v, p.Script, Config{})
		decoded, err := Decode(extracted.Encode())
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, rec := range []*Record{extracted, decoded} {
			for _, row := range rec.Deps {
				for _, d := range row {
					if d.Name != "" && unsafe.StringData(d.Name) != unsafe.StringData(symtab.NameOf(d.NameID)) {
						t.Fatalf("%s: dependent %s names %q with its own string, not the symbol table's", p.Name, d.Site, d.Name)
					}
				}
			}
		}
	}
}
