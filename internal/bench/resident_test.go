package bench

import (
	"fmt"
	"reflect"
	"testing"

	"ricjs"
	"ricjs/internal/bytecode"
	"ricjs/internal/progen"
	"ricjs/internal/ric"
	"ricjs/internal/workloads"
)

// tableBytes is the memory behind a slice by layout alone: its capacity
// times the element size, with no allocator rounding.
func tableBytes[T any](s []T) int { return cap(s) * int(reflect.TypeFor[T]().Size()) }

// walkTables sums, by reflection over the element types, the tables the
// resident figures charge: every table of every compiled proto, and the
// decoded record's HCVT (the row headers and every row's dependents).
func walkTables(prog *bytecode.Program, rec *ric.Record) (progTables, recTables int) {
	prog.Toplevel.WalkProtos(func(fp *bytecode.FuncProto) {
		progTables += tableBytes(fp.Code) + tableBytes(fp.Consts) + tableBytes(fp.Names) +
			tableBytes(fp.NameIDs) + tableBytes(fp.Protos) + tableBytes(fp.Sites)
	})
	recTables = tableBytes(rec.Deps)
	for _, row := range rec.Deps {
		recTables += tableBytes(row)
	}
	return progTables, recTables
}

// TestResidentBytesCoverLayout checks the resident figures that the
// caches charge and perfgate gates against an independent walk of the
// tables it covers, over every workload profile and the progen seeds of
// the differential sweep. A figure may exceed its tables, by allocator
// rounding and by what lies beside them (the protos themselves, compiled
// strings, the TOAST and rejected-site maps), but never fall below them:
// a table the figure forgot, or a widened element type the figure does
// not see, fails here.
func TestResidentBytesCoverLayout(t *testing.T) {
	type script struct{ name, src string }
	var scripts []script
	for _, p := range workloads.Profiles {
		scripts = append(scripts, script{p.Script, p.Source()})
	}
	for seed := uint64(200); seed <= 260; seed++ {
		scripts = append(scripts, script{fmt.Sprintf("progen-%d.js", seed), progen.New(seed).Program()})
	}
	for _, s := range scripts {
		prog, err := compile(s.name, s.src)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		e := ricjs.NewEngine(ricjs.Options{})
		if err := e.Run(s.name, s.src); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		rec, err := ric.Decode(e.ExtractRecord(s.name).Encode())
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		progTables, recTables := walkTables(prog, rec)
		for _, c := range []struct {
			what           string
			figure, tables int
		}{
			{"program", prog.ResidentBytes(), progTables},
			{"record", rec.ResidentBytes(), recTables},
		} {
			// Measured: programs 1.09-1.63 times their tables, records
			// 1.45-2.43 (small records are mostly map overhead).
			if c.figure < c.tables || c.figure > 3*c.tables {
				t.Errorf("%s: %s charged %d bytes for %d bytes of tables; want between 1 and 3 times",
					s.name, c.what, c.figure, c.tables)
			}
		}
	}
}
