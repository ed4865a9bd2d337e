package ricjs_test

import (
	"os"
	"testing"

	"ricjs"
)

// TestPointFixtureSourceMatches pins testdata/point.js to the source the
// committed point*.ric fixtures were recorded from (and that FuzzReuseRun
// executes). riclint's CI sweep feeds the file to the analyzer; if it
// drifts from the recorded source, the sweep would test nothing.
func TestPointFixtureSourceMatches(t *testing.T) {
	data, err := os.ReadFile("testdata/point.js")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != fuzzLib {
		t.Fatalf("testdata/point.js is not byte-identical to the fuzzLib source the .ric fixtures were recorded from")
	}
}

// TestValuesScriptMatchesNode runs testdata/values.js, a value-semantics
// regression script, in a Conventional run and in a Reuse run from that
// run's record. Both must print testdata/values.out, which is node's
// output for the same script, byte for byte.
func TestValuesScriptMatchesNode(t *testing.T) {
	src, err := os.ReadFile("testdata/values.js")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/values.out")
	if err != nil {
		t.Fatal(err)
	}
	cache := ricjs.NewCodeCache()
	conv := ricjs.NewEngine(ricjs.Options{Cache: cache})
	if err := conv.Run("values.js", string(src)); err != nil {
		t.Fatal(err)
	}
	if got := conv.Output(); got != string(want) {
		t.Errorf("Conventional output differs from node:\n%s", got)
	}
	reuse := ricjs.NewEngine(ricjs.Options{Cache: cache, Record: conv.ExtractRecord("values.js")})
	if err := reuse.Run("values.js", string(src)); err != nil {
		t.Fatal(err)
	}
	if got := reuse.Output(); got != string(want) {
		t.Errorf("Reuse output differs from node:\n%s", got)
	}
	if reuse.Stats().MissesSaved == 0 {
		t.Error("the Reuse run saved no IC misses; the record did not apply")
	}
}
