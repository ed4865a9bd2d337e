package ric

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"ricjs/internal/bytecode"
	"ricjs/internal/ic"
	"ricjs/internal/objects"
	"ricjs/internal/parser"
	"ricjs/internal/source"
	"ricjs/internal/vm"
)

// compile parses and compiles one script.
func compileSrc(t testing.TB, name, src string) *bytecode.Program {
	t.Helper()
	prog, err := parser.Parse(name, src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	bc, err := bytecode.Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return bc
}

// initialRun executes src on a fresh VM and extracts a record.
func initialRun(t *testing.T, src string, cfg Config) (*vm.VM, *Record) {
	t.Helper()
	bc := compileSrc(t, "lib.js", src)
	v := vm.New(vm.Options{})
	if _, err := v.RunProgram(bc); err != nil {
		t.Fatalf("initial run: %v", err)
	}
	return v, Extract(v, "lib.js", cfg)
}

// reuseRun executes src with a Reuser built from rec.
func reuseRun(t *testing.T, src string, rec *Record) (*vm.VM, *Reuser) {
	t.Helper()
	bc := compileSrc(t, "lib.js", src)
	reuser := NewReuser(rec)
	v := vm.New(vm.Options{Hooks: reuser})
	// The VM and its hooks reference each other; complete the wiring.
	reuser.Attach(v)
	if _, err := v.RunProgram(bc); err != nil {
		t.Fatalf("reuse run: %v", err)
	}
	return v, reuser
}

const pointLib = `
	function Point(x, y) { this.x = x; this.y = y; }
	Point.prototype.dot = function (o) { return this.x * o.x + this.y * o.y; };
	function Rect(w, h) { this.w = w; this.h = h; }
	Rect.prototype.area = function () { return this.w * this.h; };
	var acc = 0;
	var pts = [];
	for (var i = 0; i < 20; i++) pts.push(new Point(i, i + 1));
	for (var j = 0; j < 20; j++) acc += pts[j].x + pts[j].y;
	var r1 = new Rect(3, 4);
	var r2 = new Rect(5, 6);
	acc += r1.area() + r2.area() + pts[0].dot(pts[1]);
	print('acc', acc);
`

func TestExtractBasics(t *testing.T) {
	_, rec := initialRun(t, pointLib, Config{})
	if rec.HCCount == 0 {
		t.Fatal("no hidden classes extracted")
	}
	if len(rec.SiteTOAST) == 0 {
		t.Fatal("no triggering sites extracted")
	}
	if len(rec.BuiltinTOAST) == 0 {
		t.Fatal("no builtin entries extracted")
	}
	if rec.Stats.DependentSlots == 0 {
		t.Fatal("no dependent slots extracted")
	}
	if err := rec.validateShape(); err != nil {
		t.Fatalf("extracted record invalid: %v", err)
	}
	// The instance-field loads (pts[j].x) must be dependents of the Point
	// hidden classes somewhere.
	found := false
	for _, deps := range rec.Deps {
		for _, d := range deps {
			if d.Desc.Kind == ic.KindLoadField {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no LoadField dependents recorded")
	}
}

func TestReuseReducesMisses(t *testing.T) {
	v1, rec := initialRun(t, pointLib, Config{})
	conventional := vmRun(t, pointLib) // fresh conventional reuse run
	v2, reuser := reuseRun(t, pointLib, rec)

	if v1.Output() != v2.Output() || conventional.Output() != v2.Output() {
		t.Fatalf("outputs differ:\ninitial: %q\nconventional: %q\nric: %q",
			v1.Output(), conventional.Output(), v2.Output())
	}

	convStats := conventional.Prof.Snapshot()
	ricStats := v2.Prof.Snapshot()
	if ricStats.ICMisses >= convStats.ICMisses {
		t.Fatalf("RIC misses (%d) must be below conventional misses (%d)",
			ricStats.ICMisses, convStats.ICMisses)
	}
	if ricStats.MissesSaved == 0 {
		t.Fatal("no misses were saved by preloaded entries")
	}
	if ricStats.Preloads == 0 || ricStats.Validations == 0 {
		t.Fatalf("preloads=%d validations=%d", ricStats.Preloads, ricStats.Validations)
	}
	if ricStats.TotalInstr() >= convStats.TotalInstr() {
		t.Fatalf("RIC instructions (%d) must be below conventional (%d)",
			ricStats.TotalInstr(), convStats.TotalInstr())
	}
	if reuser.ValidatedCount() == 0 {
		t.Fatal("no hidden classes validated")
	}
}

// vmRun executes src on a fresh conventional VM.
func vmRun(t *testing.T, src string) *vm.VM {
	t.Helper()
	bc := compileSrc(t, "lib.js", src)
	v := vm.New(vm.Options{})
	if _, err := v.RunProgram(bc); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestDivergentControlFlowFailsValidationSafely(t *testing.T) {
	// Initial run takes the branch; reuse run does not (paper Figure 7(e)):
	// validation must fail for the branch-dependent shape, and execution
	// must stay correct.
	initialSrc := `
		var cond = true;
		var o = {};
		if (cond) o.x = 1;
		o.y = 2;
		print(o.y);
	`
	reuseSrc := `
		var cond = false;
		var o = {};
		if (cond) o.x = 1;
		o.y = 2;
		print(o.y);
	`
	_, rec := initialRun(t, initialSrc, Config{})
	v2, _ := reuseRun(t, reuseSrc, rec)
	if v2.Output() != "2\n" {
		t.Fatalf("output = %q", v2.Output())
	}
	s := v2.Prof.Snapshot()
	if s.ValFailures == 0 {
		t.Fatal("divergence must produce validation failures")
	}
}

func TestRecordFromDifferentProgramIsHarmless(t *testing.T) {
	_, rec := initialRun(t, pointLib, Config{})
	other := `
		var cfg = {mode: 'fast', level: 3};
		print(cfg.mode, cfg.level);
	`
	v, _ := reuseRun(t, other, rec)
	if v.Output() != "fast 3\n" {
		t.Fatalf("output = %q", v.Output())
	}
}

func TestReuseEquivalenceOnRichProgram(t *testing.T) {
	src := `
		function Node(v) { this.v = v; this.next = null; }
		function List() { this.head = null; this.n = 0; }
		List.prototype.add = function (v) {
			var nd = new Node(v);
			nd.next = this.head;
			this.head = nd;
			this.n++;
			return this;
		};
		List.prototype.sum = function () {
			var s = 0;
			for (var nd = this.head; nd; nd = nd.next) s += nd.v;
			return s;
		};
		var l = new List();
		for (var i = 1; i <= 10; i++) l.add(i * i);
		print(l.sum(), l.n);
		var mixed = [{k: 1}, {k: 2, extra: true}, {j: 0, k: 3}];
		var total = 0;
		for (var m = 0; m < mixed.length; m++) total += mixed[m].k;
		print(total);
		try { null.x; } catch (e) { print('caught'); }
	`
	v1, rec := initialRun(t, src, Config{})
	v2, _ := reuseRun(t, src, rec)
	if v1.Output() != v2.Output() {
		t.Fatalf("outputs differ:\n%q\n%q", v1.Output(), v2.Output())
	}
	if v2.Prof.Snapshot().MissesSaved == 0 {
		t.Fatal("expected saved misses")
	}
}

func TestGlobalsExcludedByDefault(t *testing.T) {
	src := `
		var a = 1; var b = 2; var c = 3;
		function f() { return a + b + c; }
		print(f() + f());
	`
	_, rec := initialRun(t, src, Config{})
	for site := range rec.SiteTOAST {
		_ = site
	}
	// No builtin TOAST entry for global declarations.
	for _, b := range rec.BuiltinTOAST {
		if strings.HasPrefix(b.Name, "global:") {
			t.Fatalf("global transition %q extracted despite globals disabled", b.Name)
		}
	}
	// Reuse still works and classifies global misses as Global.
	v2, _ := reuseRun(t, src, rec)
	s := v2.Prof.Snapshot()
	if s.MissGlobal == 0 {
		t.Fatal("expected global-classified misses")
	}
}

func TestGlobalsAblationIncluded(t *testing.T) {
	src := `
		var a = 1; var b = 2;
		function f() { return a + b; }
		print(f());
	`
	_, rec := initialRun(t, src, Config{IncludeGlobals: true})
	found := false
	for _, b := range rec.BuiltinTOAST {
		if strings.HasPrefix(b.Name, "global:") {
			found = true
		}
	}
	if !found {
		t.Fatal("globals ablation must extract global transitions")
	}
	v2, _ := reuseRun(t, src, rec)
	if v2.Output() != "3\n" {
		t.Fatalf("output = %q", v2.Output())
	}
}

func TestRejectedSitesClassifyHandlerMisses(t *testing.T) {
	// A method call through the prototype produces a context-dependent
	// LoadFromPrototype handler; its site must be rejected and its reuse
	// miss classified as a Handler miss.
	src := `
		function C() { this.f = 1; }
		C.prototype.m = function () { return this.f; };
		var c = new C();
		print(c.m() + c.m());
	`
	_, rec := initialRun(t, src, Config{})
	if len(rec.RejectedSites) == 0 {
		t.Fatal("prototype-method site must be rejected")
	}
	v2, _ := reuseRun(t, src, rec)
	if s := v2.Prof.Snapshot(); s.MissHandler == 0 {
		t.Fatal("expected Handler-classified misses in reuse run")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	_, rec := initialRun(t, pointLib, Config{})
	data := rec.Encode()
	if len(data) == 0 {
		t.Fatal("empty encoding")
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back.HCCount != rec.HCCount ||
		len(back.SiteTOAST) != len(rec.SiteTOAST) ||
		len(back.BuiltinTOAST) != len(rec.BuiltinTOAST) ||
		len(back.RejectedSites) != len(rec.RejectedSites) {
		t.Fatalf("round trip mismatch: %+v vs %+v", back.Stats, rec.Stats)
	}
	for site, pairs := range rec.SiteTOAST {
		got := back.SiteTOAST[site]
		if len(got) != len(pairs) {
			t.Fatalf("site %s pairs %d != %d", site, len(got), len(pairs))
		}
		for i := range pairs {
			if got[i] != pairs[i] {
				t.Fatalf("site %s pair %d: %+v != %+v", site, i, got[i], pairs[i])
			}
		}
	}
	for i := range rec.Deps {
		if len(back.Deps[i]) != len(rec.Deps[i]) {
			t.Fatalf("deps[%d] %d != %d", i, len(back.Deps[i]), len(rec.Deps[i]))
		}
		for j := range rec.Deps[i] {
			if back.Deps[i][j] != rec.Deps[i][j] {
				t.Fatalf("deps[%d][%d] differ", i, j)
			}
		}
	}
	// Deterministic encoding.
	if string(rec.Encode()) != string(data) {
		t.Fatal("encoding must be deterministic")
	}
	// A decoded record drives a reuse run identically.
	v2, _ := reuseRun(t, pointLib, back)
	if !strings.Contains(v2.Output(), "acc") {
		t.Fatalf("reuse with decoded record broken: %q", v2.Output())
	}
	if v2.Prof.Snapshot().MissesSaved == 0 {
		t.Fatal("decoded record saved no misses")
	}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	_, rec := initialRun(t, pointLib, Config{})
	data := rec.Encode()

	if _, err := Decode(nil); err == nil {
		t.Error("nil input must fail")
	}
	if _, err := Decode([]byte("NOTAREC0")); err == nil {
		t.Error("bad magic must fail")
	}
	if _, err := Decode(data[:len(data)/2]); err == nil {
		t.Error("truncated input must fail")
	}
	if _, err := Decode(append(append([]byte{}, data...), 0xFF)); err == nil {
		t.Error("trailing bytes must fail")
	}
	// Flip bytes through the body; with the CRC32 trailer every single-byte
	// flip must be rejected outright, and decoding must never panic.
	for i := len(recordTag) + 1; i < len(data); i += 7 {
		mut := append([]byte{}, data...)
		mut[i] ^= 0x55
		if _, err := Decode(mut); err == nil {
			t.Fatalf("single-byte flip at %d slipped past the checksum", i)
		}
	}
}

func TestCorruptRecordDegradesGracefully(t *testing.T) {
	// Build a record whose dependent offsets are nonsense; the reuse run
	// must not preload them (handlerFits) and must produce correct output.
	_, rec := initialRun(t, pointLib, Config{})
	for i := range rec.Deps {
		for j := range rec.Deps[i] {
			rec.Deps[i][j].Desc.Offset = 1 << 20
		}
	}
	v2, _ := reuseRun(t, pointLib, rec)
	if !strings.Contains(v2.Output(), "acc") {
		t.Fatalf("output = %q", v2.Output())
	}
	if v2.Prof.Snapshot().MissesSaved != 0 {
		t.Fatal("corrupt handlers must not be preloaded")
	}
}

func TestValidatedAccessors(t *testing.T) {
	_, rec := initialRun(t, pointLib, Config{})
	_, reuser := reuseRun(t, pointLib, rec)
	if reuser.Validated(-1) || reuser.Validated(rec.HCCount+5) {
		t.Fatal("out-of-range Validated must be false")
	}
	any := false
	for id := int32(0); id < rec.HCCount; id++ {
		if reuser.Validated(id) {
			any = true
		}
	}
	if !any {
		t.Fatal("no validated ids visible")
	}
}

// Property: reuse-run output always equals conventional output on randomly
// generated property-access programs (the paper's correctness claim).
func TestReuseEquivalenceProperty(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	gen := func(ops []uint16) string {
		var b strings.Builder
		b.WriteString("var o1 = {}; var o2 = {}; var log = '';\n")
		for _, op := range ops {
			obj := "o1"
			if op&1 == 1 {
				obj = "o2"
			}
			name := names[int(op>>1)%len(names)]
			switch (op >> 4) % 3 {
			case 0:
				b.WriteString(obj + "." + name + " = " + objectsNum(op) + ";\n")
			case 1:
				b.WriteString("log += " + obj + "." + name + " + ',';\n")
			case 2:
				b.WriteString("if (" + obj + "." + name + ") log += 'T';\n")
			}
		}
		b.WriteString("print(log);\n")
		return b.String()
	}
	f := func(ops []uint16) bool {
		if len(ops) == 0 {
			return true
		}
		if len(ops) > 40 {
			ops = ops[:40]
		}
		src := gen(ops)
		v1, rec := initialRun(t, src, Config{})
		v2, _ := reuseRun(t, src, rec)
		return v1.Output() == v2.Output()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func objectsNum(op uint16) string {
	return []string{"1", "2", "'s'", "true"}[int(op>>8)%4]
}

// Property: encode/decode round-trips synthetic records exactly.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(nHC uint8, sites []uint16, builtins []uint8) bool {
		hcCount := int32(nHC%32) + 1
		rec := &Record{
			Script:        "p.js",
			HCCount:       hcCount,
			Deps:          make([][]DepEntry, hcCount),
			SiteTOAST:     map[source.Site][]Pair{},
			RejectedSites: map[source.Site]bool{},
		}
		for i, s := range sites {
			site := source.At("p.js", uint32(s%50)+1, uint32(i)+1)
			rec.SiteTOAST[site] = []Pair{{In: int32(s)%hcCount - 1, Out: int32(s) % hcCount}}
			hcid := int32(s) % hcCount
			kind := ic.KindLoadField
			if s%3 == 1 {
				kind = ic.KindStoreField
			} else if s%3 == 2 {
				kind = ic.KindLoadArrayLength
			}
			rec.Deps[hcid] = append(rec.Deps[hcid], DepEntry{
				Site: site,
				Desc: ic.CIDescriptor{Kind: kind, Offset: int32(s % 7)},
			})
			if s%4 == 0 {
				rec.RejectedSites[site] = true
			}
		}
		ids := map[string]int32{}
		for i, b := range builtins {
			ids[strings.Repeat("b", i%3+1)+string(rune('A'+b%26))] = int32(b) % hcCount
		}
		rec.BuiltinTOAST = builtinTable(ids)
		back, err := Decode(rec.Encode())
		if err != nil {
			return false
		}
		if back.HCCount != rec.HCCount || len(back.SiteTOAST) != len(rec.SiteTOAST) ||
			len(back.BuiltinTOAST) != len(rec.BuiltinTOAST) ||
			len(back.RejectedSites) != len(rec.RejectedSites) {
			return false
		}
		for i := range rec.Deps {
			if len(back.Deps[i]) != len(rec.Deps[i]) {
				return false
			}
			for j := range rec.Deps[i] {
				if back.Deps[i][j] != rec.Deps[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyedHandlersParticipateInReuse(t *testing.T) {
	// Element accesses and constant-key named accesses produce
	// context-independent keyed handlers that the record carries and the
	// Reuse run preloads.
	src := `
		function Box(v) { this.v = v; }
		var boxes = [new Box(1), new Box(2), new Box(3)];
		var key = 'v';
		var s = 0;
		for (var i = 0; i < boxes.length; i++) s += boxes[i][key];
		print(s);
	`
	_, rec := initialRun(t, src, Config{})
	hasKeyed := false
	for _, deps := range rec.Deps {
		for _, d := range deps {
			if d.Kind.IsKeyed() {
				hasKeyed = true
				if _, err := d.Desc.Rebuild(); err != nil {
					t.Fatalf("keyed descriptor does not rebuild: %v", err)
				}
			}
		}
	}
	if !hasKeyed {
		t.Fatal("no keyed dependents extracted")
	}
	v2, _ := reuseRun(t, src, rec)
	if v2.Output() != "6\n" {
		t.Fatalf("output = %q", v2.Output())
	}
	if v2.Prof.Snapshot().MissesSaved == 0 {
		t.Fatal("keyed reuse saved no misses")
	}
}

// TestBuiltinTOASTPolicy pins how extraction builds the name-keyed TOAST:
// sorted with each name once, the first created class of a name (lowest
// record ID) wins, and a builtin object's post-startup class overrides it,
// a later one of a name winning, unless that class is not numbered or
// belongs to the skipped global lineage; a post-startup class whose name
// no class was created under gets its own entry.
func TestBuiltinTOASTPolicy(t *testing.T) {
	space := objects.NewSpace(1)
	hcs := make([]*objects.HiddenClass, 5)
	for i := range hcs {
		hcs[i] = space.NewRootHC(nil, objects.Creator{Builtin: "final"})
	}
	// Record IDs 20..23 for the first four classes; the last one is not
	// numbered; ID 23 is in the global lineage.
	n := numbering{ids: make([]int32, space.HiddenClasses()), globalLo: 23, globalHi: 24}
	for i := range n.ids {
		n.ids[i] = -1
	}
	for i, hc := range hcs[:4] {
		n.ids[hc.Ordinal()] = int32(20 + i)
	}
	created := []Builtin{{"D", 4}, {"A", 2}, {"Z", 10}, {"C", 9}, {"D", 8}, {"B", 3}, {"C", 11}, {"E", 6}}
	finals := []vm.BuiltinHC{
		{Name: "C", HC: hcs[0]}, // overrides C's first class
		{Name: "E", HC: hcs[1]},
		{Name: "E", HC: hcs[2]}, // the later final of E wins
		{Name: "B", HC: hcs[3]}, // global lineage: B keeps its class
		{Name: "D", HC: hcs[4]}, // not numbered: D keeps its class
		{Name: "F", HC: hcs[0]}, // no class created under F
	}
	got := builtinTOAST(created, finals, &n)
	want := []Builtin{{"A", 2}, {"B", 3}, {"C", 20}, {"D", 4}, {"E", 22}, {"F", 20}, {"Z", 10}}
	if !slices.Equal(got, want) {
		t.Fatalf("builtin TOAST = %v, want %v", got, want)
	}
	if cap(got) != len(got) {
		t.Errorf("table capacity %d, length %d", cap(got), len(got))
	}
}
