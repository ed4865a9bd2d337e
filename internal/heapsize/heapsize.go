// Package heapsize estimates the live heap a value keeps reachable, so
// the caches that hold compiled programs and decoded records can charge
// each entry what it costs. The estimates follow the Go runtime's
// allocator: every allocation is rounded up to its size class, and a map
// is costed from the swiss-table layout (8-slot groups, a load of at most
// 7/8, tables of at most 1024 slots). They stay estimates: the charged
// bytes of the progen corpus are checked against the live heap measured
// after a collection, not assumed equal to it.
package heapsize

import (
	"reflect"
	"sort"
)

// classSizes are the runtime's small-object size classes, in bytes.
var classSizes = [...]int{
	8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224,
	240, 256, 288, 320, 352, 384, 416, 448, 480, 512, 576, 640, 704, 768,
	896, 1024, 1152, 1280, 1408, 1536, 1792, 2048, 2304, 2688, 3072, 3200,
	3456, 4096, 4864, 5376, 6144, 6528, 6784, 6912, 8192, 9472, 9728, 10240,
	10880, 12288, 13568, 14336, 16384, 18432, 19072, 20480, 21760, 24576,
	27264, 28672, 32768,
}

// pageSize is the granule of allocations larger than every size class.
const pageSize = 8192

// Alloc is the heap one allocation of n bytes occupies: n rounded up to
// its size class, or to whole pages past the largest class. Zero bytes
// allocate nothing.
func Alloc(n int) int {
	if n <= 0 {
		return 0
	}
	if n > classSizes[len(classSizes)-1] {
		return (n + pageSize - 1) / pageSize * pageSize
	}
	return classSizes[sort.SearchInts(classSizes[:], n)]
}

// Of is the in-memory size of one T. reflect reports the same figure as
// unsafe.Sizeof, which only the value representation may import.
func Of[T any]() int { return int(reflect.TypeFor[T]().Size()) }

// Slice is the heap behind a slice's backing array: its capacity, not its
// length, times the element size, rounded to the size class.
func Slice[T any](s []T) int { return Alloc(cap(s) * Of[T]()) }

// String is the heap behind a string that owns its bytes.
func String(s string) int { return Alloc(len(s)) }

// Swiss-table layout of Go 1.24 maps.
const (
	mapHeader   = 48   // the map's own header
	tableHeader = 32   // one table's header
	groupSlots  = 8    // slots per group
	ctrlWord    = 8    // a group's control bytes
	maxLoad     = 7    // of groupSlots slots, at most this many are full
	maxTable    = 1024 // slots of the largest table before it splits
)

// Map is the heap a map of n entries keeps, where slot is the size of one
// key and value laid out together (MapOf computes it). A map of at most
// 8 entries is one group; a larger one is a directory of tables whose
// total capacity is the least power of two that keeps the load at or
// below 7/8.
func Map(n, slot int) int {
	group := ctrlWord + groupSlots*slot
	switch {
	case n == 0:
		return mapHeader
	case n <= groupSlots:
		return mapHeader + Alloc(group)
	}
	capacity := 2 * groupSlots
	for capacity*maxLoad/groupSlots < n {
		capacity *= 2
	}
	tables := 1
	if capacity > maxTable {
		tables = capacity / maxTable
		capacity = maxTable
	}
	perTable := tableHeader + Alloc(capacity/groupSlots*group)
	return mapHeader + Alloc(8*tables) + tables*perTable
}

// MapOf is Map for a map[K]V.
func MapOf[K comparable, V any](m map[K]V) int {
	return Map(len(m), Of[struct {
		k K
		v V
	}]())
}
