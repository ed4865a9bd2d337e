package ric

import (
	"runtime"
	"testing"
	"unsafe"
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
