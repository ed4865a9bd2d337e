package analysis_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ricjs/internal/analysis"
	"ricjs/internal/bytecode"
	"ricjs/internal/progen"
	"ricjs/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the analysis result goldens under testdata/results")

// formatResult renders everything an analysis publishes, in a
// deterministic order: the summary counts, every shape of the graph as an
// edge from its parent (which pins ids and fields), every site prediction
// with its verdict flags and predicted shape ids, and the typed-slot
// claims.
func formatResult(res *analysis.Result) string {
	var b strings.Builder
	typedShapes, typedSlots := res.TypedStats()
	fmt.Fprintf(&b, "globalTop %v\nshapes %d\ntyped %d shapes %d slots\n", res.GlobalTop(), res.ShapeCount(), typedShapes, typedSlots)
	for _, s := range res.Graph().Shapes() {
		if s.Parent == nil {
			fmt.Fprintf(&b, "shape #%d root\n", s.ID)
		} else {
			fmt.Fprintf(&b, "shape #%d <- #%d +%s\n", s.ID, s.Parent.ID, s.Fields[len(s.Fields)-1])
		}
	}
	for _, p := range res.Sites() {
		fmt.Fprintf(&b, "site %s %s %q", p.Site, p.Kind, p.Name)
		switch {
		case p.Dead:
			b.WriteString(" dead")
		case p.Top:
			b.WriteString(" top")
		}
		if p.MegamorphicRisk {
			b.WriteString(" risk")
		}
		if p.MaybeDictionary {
			b.WriteString(" dict")
		}
		for _, s := range p.Shapes {
			fmt.Fprintf(&b, " #%d", s.ID)
		}
		b.WriteByte('\n')
	}
	for _, s := range res.Graph().Shapes() {
		tags := res.SlotTypes(s)
		if tags == nil {
			continue
		}
		names := make([]string, len(tags))
		for i, t := range tags {
			names[i] = t.String()
		}
		fmt.Fprintf(&b, "slots #%d %s\n", s.ID, strings.Join(names, ","))
	}
	return b.String()
}

// goldenInputs returns the inputs the result goldens pin: every workload
// profile on its own, and the Website1 scripts analyzed together.
func goldenInputs(t *testing.T) map[string][]*bytecode.Program {
	t.Helper()
	out := map[string][]*bytecode.Program{}
	for _, p := range workloads.Profiles {
		out[p.Name] = []*bytecode.Program{compile(t, p.Script, p.Source())}
	}
	for _, ref := range workloads.Website(1) {
		out["Website1"] = append(out["Website1"], compile(t, ref.Name, ref.Source))
	}
	return out
}

// TestGoldenResults pins the full analysis output for every profile and
// for Website1: site verdicts, shape ids and fields, and slot types must
// match the committed listings byte for byte. Regenerate deliberately:
//
//	go test ./internal/analysis -run TestGoldenResults -update
func TestGoldenResults(t *testing.T) {
	for name, progs := range goldenInputs(t) {
		name, progs := name, progs
		t.Run(name, func(t *testing.T) {
			got := formatResult(analysis.Analyze(progs...))
			golden := filepath.Join("testdata", "results", name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("analysis result drifted from %s (rerun with -update if deliberate):\n%s", golden, firstDiff(got, string(want)))
			}
		})
	}
}

// firstDiff reports the first differing line of two listings.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return "(identical lines, different bytes)"
}

// corpus compiles the progen corpus: the 400 programs progen.New(
// 0xC0DE0000+i) generates.
func corpus(t *testing.T) []*bytecode.Program {
	t.Helper()
	out := make([]*bytecode.Program, 400)
	for i := range out {
		name := fmt.Sprintf("progen-%03d.js", i)
		out[i] = compile(t, name, progen.New(0xC0DE0000+uint64(i)).Program())
	}
	return out
}

// TestAnalyzeDeterministic analyzes every corpus program twice and
// requires identical results: nothing the analysis publishes may depend
// on map iteration order.
func TestAnalyzeDeterministic(t *testing.T) {
	for _, prog := range corpus(t) {
		first := formatResult(analysis.Analyze(prog))
		if second := formatResult(analysis.Analyze(prog)); first != second {
			t.Errorf("%s: two analyses differ:\n%s", prog.Script, firstDiff(second, first))
		}
	}
}

// TestShapeForCreatorMatchesScan checks the creator index against a
// linear scan of the graph for every creator of every golden input: the
// one shape carrying it, or nil when several do.
func TestShapeForCreatorMatchesScan(t *testing.T) {
	for name, progs := range goldenInputs(t) {
		res := analysis.Analyze(progs...)
		creators := map[string]bool{"builtin:no-such-creator": true}
		for _, s := range res.Graph().Shapes() {
			for c := range s.Creators {
				creators[c] = true
			}
		}
		ambiguous := 0
		for c := range creators {
			var want *analysis.Shape
			for _, s := range res.Graph().Shapes() {
				if s.Creators[c] {
					if want != nil {
						want = nil
						ambiguous++
						break
					}
					want = s
				}
			}
			if got := res.ShapeForCreator(c); got != want {
				t.Errorf("%s: ShapeForCreator(%q) = %v, scan finds %v", name, c, got, want)
			}
		}
		t.Logf("%s: %d creators, %d ambiguous", name, len(creators), ambiguous)
	}
}
