package bench

import (
	"reflect"

	"ricjs/internal/bytecode"
	"ricjs/internal/ric"
)

// sizeOf is the in-memory size of one T. reflect reports the same figure
// as unsafe.Sizeof, which only the value representation may import.
func sizeOf[T any]() int { return int(reflect.TypeFor[T]().Size()) }

// tableBytes is the memory behind a slice: its capacity, not its length,
// times the element size.
func tableBytes[T any](s []T) int { return cap(s) * sizeOf[T]() }

// residentBytes sums what a pool keeps resident per program, as far as
// layout decides it: the capacity of every table of every compiled proto
// (code, constants, names, name IDs, nested protos, sites), plus the HCVT
// of the record as Decode rebuilds it from the encoded bytes (the row
// headers and every row's dependents). The figure is deterministic, so
// perfgate gates it exactly; spare capacity or a wider SiteInfo or
// DepEntry raises it.
func residentBytes(prog *bytecode.Program, encoded []byte) (int, error) {
	n := 0
	prog.Toplevel.WalkProtos(func(fp *bytecode.FuncProto) {
		n += tableBytes(fp.Code) + tableBytes(fp.Consts) + tableBytes(fp.Names) +
			tableBytes(fp.NameIDs) + tableBytes(fp.Protos) + tableBytes(fp.Sites)
	})
	rec, err := ric.Decode(encoded)
	if err != nil {
		return 0, err
	}
	n += tableBytes(rec.Deps)
	for _, row := range rec.Deps {
		n += tableBytes(row)
	}
	return n, nil
}
