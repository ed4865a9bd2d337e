package heapsize

import (
	"runtime"
	"testing"
)

func TestAllocRoundsToSizeClass(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {1, 8}, {8, 8}, {9, 16}, {33, 48}, {1025, 1152},
		{32768, 32768}, {32769, 40960}, {100000, 106496},
	} {
		if got := Alloc(c.n); got != c.want {
			t.Errorf("Alloc(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// liveHeap is the live heap after a full collection.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestMapMatchesLiveHeap builds many maps of one size by inserting, as
// the record's maps are built, and checks the estimate against the live
// heap they add: within 5% at every size, from one group to several
// tables.
func TestMapMatchesLiveHeap(t *testing.T) {
	for _, n := range []int{1, 8, 9, 14, 100, 900, 3000} {
		maps := make([]map[int64]int64, 20000/n+10)
		base := liveHeap()
		for i := range maps {
			m := make(map[int64]int64)
			for k := 0; k < n; k++ {
				m[int64(k)] = int64(k)
			}
			maps[i] = m
		}
		live := float64(liveHeap()-base) / float64(len(maps))
		est := float64(MapOf(maps[0]))
		runtime.KeepAlive(maps)
		if d := (est - live) / live; d < -0.05 || d > 0.05 {
			t.Errorf("%d entries: estimated %.0f bytes, live %.0f (%+.1f%%)", n, est, live, 100*d)
		}
	}
}
