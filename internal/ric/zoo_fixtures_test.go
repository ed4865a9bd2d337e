package ric

import (
	"os"
	"path/filepath"
	"testing"

	"ricjs/internal/analysis"
	"ricjs/internal/bytecode"
	"ricjs/internal/ic"
	"ricjs/internal/vm"
)

// keyedFixtureSrc is the source behind the committed keyed*.ric fixtures
// (it must stay byte-identical to testdata/keyed.js). It concentrates on
// the keyed-IC regime: dense element loads/stores and array-length reads
// over a numeric array, plus constant-string keyed access against a record
// literal so the record carries KeyedNamed deps alongside the element ones.
const keyedFixtureSrc = `
	var ks = [];
	for (var i = 0; i < 16; i++) ks.push(i % 7);
	function ksum(a) { var s = 0; for (var si = 0; si < a.length; si++) s += a[si]; return s; }
	function kscale(a) { for (var ci = 0; ci < a.length; ci++) a[ci] = a[ci] * 2 - ci; return a.length; }
	var krec = { alpha: 1, beta: 2, gamma: 3 };
	function kget(r, k) { return r[k]; }
	function kbump(r, k) { r[k] = r[k] + 1; return r[k]; }
	var acc = 0;
	for (var t = 0; t < 6; t++) {
		acc += ksum(ks) + kscale(ks);
		acc += kget(krec, 'alpha') + kbump(krec, 'beta');
	}
	print('keyed', acc);
`

// dictFixtureSrc is the source behind the committed dict.ric fixture (it
// must stay byte-identical to testdata/dict.js). Warm named sites over a
// constructor shape, then delete-driven demotion to dictionary mode with
// post-delete reads and a pristine sibling through the same sites: the
// record must describe only the fast shapes and stay truthful.
const dictFixtureSrc = `
	function Entry(n) { this.k0 = n; this.k1 = n + 1; this.k2 = n + 2; this.k3 = n * 2; }
	function dread(e) { return e.k0 + e.k3; }
	function dupd(e, n) { e.k3 = e.k3 + n; return e.k3; }
	var pool = [];
	for (var i = 0; i < 6; i++) pool.push(new Entry(i));
	var acc = 0;
	for (var w = 0; w < 4; w++) {
		for (var j = 0; j < pool.length; j++) acc += dread(pool[j]) + dupd(pool[j], 1);
	}
	for (var d = 0; d < 3; d++) {
		delete pool[d].k1;
		delete pool[d].k2;
		pool[d].extra = d * 2;
	}
	var post = 0;
	for (var r = 0; r < pool.length; r++) post += dread(pool[r]);
	var fast = new Entry(40);
	post += dread(fast);
	print('dict', acc, post);
`

// zooFixtureRecord runs src under the given script name (the committed
// fixtures are not lib.js, so initialRun does not fit) and extracts a
// typed record plus the analysis the offline layers verify against.
func zooFixtureRecord(t *testing.T, script, src string) (*Record, *analysis.Result, *bytecode.Program) {
	t.Helper()
	prog := compileSrc(t, script, src)
	res := analysis.Analyze(prog)
	v := vm.New(vm.Options{})
	if _, err := v.RunProgram(prog); err != nil {
		t.Fatalf("%s: initial run: %v", script, err)
	}
	rec := Extract(v, script, Config{})
	rec.AttachTypedShapes(res)
	return rec, res, prog
}

// countDepKinds tallies handler-descriptor kinds across all HCVT rows.
func countDepKinds(rec *Record) map[ic.HandlerKind]int {
	kinds := map[ic.HandlerKind]int{}
	for _, deps := range rec.Deps {
		for _, d := range deps {
			kinds[d.Desc.Kind]++
		}
	}
	return kinds
}

// forgeKeyedElementDep moves one element-kind dependent from its truthful
// row (the Array builtin lineage) onto a row whose shape is a plain fast
// object: the dep's site still exists with matching kind/name, so layer 2
// (Validate) accepts the record, and only the analysis cross-check
// (VerifyStatic) can see that an element handler claims a non-array shape.
func forgeKeyedElementDep(t *testing.T, rec *Record, res *analysis.Result, prog *bytecode.Program) *Record {
	t.Helper()
	reDecode := func() *Record {
		r, err := Decode(rec.Encode())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	probe := reDecode()
	srcRow, srcIdx := -1, -1
	for id, deps := range probe.Deps {
		for i, d := range deps {
			if d.Desc.Kind == ic.KindLoadElement || d.Desc.Kind == ic.KindStoreElement {
				srcRow, srcIdx = id, i
				break
			}
		}
		if srcRow >= 0 {
			break
		}
	}
	if srcRow < 0 {
		t.Fatal("keyed record carries no element dep to forge")
	}
	for target, deps := range probe.Deps {
		if target == srcRow || len(deps) == 0 {
			continue
		}
		elemRow := false
		for _, d := range deps {
			if d.Desc.Kind == ic.KindLoadElement || d.Desc.Kind == ic.KindStoreElement ||
				d.Desc.Kind == ic.KindLoadArrayLength {
				elemRow = true
				break
			}
		}
		if elemRow {
			continue // another array-lineage row would make the lie true
		}
		trial := reDecode()
		mov := trial.Deps[srcRow][srcIdx]
		trial.Deps[srcRow] = append(trial.Deps[srcRow][:srcIdx:srcIdx], trial.Deps[srcRow][srcIdx+1:]...)
		trial.Deps[target] = append(trial.Deps[target], mov)
		if err := trial.Validate(prog); err != nil {
			continue // the forgery must survive layer 2 to be interesting
		}
		if trial.VerifyStatic(res) == nil {
			continue // target shape unresolved; the lie would go unnoticed
		}
		return trial
	}
	t.Fatal("no forgery both passes Validate and is rejected by VerifyStatic")
	return nil
}

// TestZooFixtureRecordsFresh checks the live extraction path for the two
// regime fixtures before anything is pinned on disk: the keyed record
// must actually carry element, array-length, and keyed-named handlers,
// the dict record must carry field handlers, and both must clear all four
// offline layers plus a byte-identical encode/decode round trip.
func TestZooFixtureRecordsFresh(t *testing.T) {
	t.Run("keyed", func(t *testing.T) {
		rec, res, prog := zooFixtureRecord(t, "keyed.js", keyedFixtureSrc)
		kinds := countDepKinds(rec)
		if kinds[ic.KindLoadElement] == 0 || kinds[ic.KindStoreElement] == 0 {
			t.Fatalf("keyed fixture misses element deps: %v", kinds)
		}
		if kinds[ic.KindKeyedNamed] == 0 {
			t.Fatalf("keyed fixture misses KeyedNamed deps: %v", kinds)
		}
		if kinds[ic.KindLoadArrayLength] == 0 {
			t.Fatalf("keyed fixture misses array-length deps: %v", kinds)
		}
		checkZooLayers(t, rec, res, prog)
	})
	t.Run("dict", func(t *testing.T) {
		rec, res, prog := zooFixtureRecord(t, "dict.js", dictFixtureSrc)
		kinds := countDepKinds(rec)
		if kinds[ic.KindLoadField] == 0 || kinds[ic.KindStoreField] == 0 {
			t.Fatalf("dict fixture misses field deps: %v", kinds)
		}
		checkZooLayers(t, rec, res, prog)
	})
}

func checkZooLayers(t *testing.T, rec *Record, res *analysis.Result, prog *bytecode.Program) {
	t.Helper()
	back, err := Decode(rec.Encode()) // layer 1
	if err != nil {
		t.Fatalf("layer 1 (decode): %v", err)
	}
	if err := back.Validate(prog); err != nil { // layer 2
		t.Fatalf("layer 2 (validate): %v", err)
	}
	if err := back.VerifyStatic(res); err != nil { // layer 3
		t.Fatalf("layer 3 (static): %v", err)
	}
	if err := back.VerifyTyped(res); err != nil { // layer 4
		t.Fatalf("layer 4 (typed): %v", err)
	}
}

// TestRegenerateZooFixtures rewrites the committed regime fixtures — the
// record files, their forged sibling, and the .js sources — into BOTH
// testdata directories (the package-local one the tests read, and the
// repo-root one the ci.sh riclint sweep reads). Run after a wire change:
//
//	RIC_REGEN_FIXTURES=1 go test ./internal/ric/ -run TestRegenerateZooFixtures
func TestRegenerateZooFixtures(t *testing.T) {
	if os.Getenv("RIC_REGEN_FIXTURES") == "" {
		t.Skip("set RIC_REGEN_FIXTURES=1 to regenerate committed zoo fixtures")
	}
	write := func(name string, b []byte) {
		for _, dir := range []string{"testdata", filepath.Join("..", "..", "testdata")} {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	keyed, keyedRes, keyedProg := zooFixtureRecord(t, "keyed.js", keyedFixtureSrc)
	dict, _, _ := zooFixtureRecord(t, "dict.js", dictFixtureSrc)
	write("keyed.js", []byte(keyedFixtureSrc))
	write("dict.js", []byte(dictFixtureSrc))
	write("keyed.ric", keyed.Encode())
	write("dict.ric", dict.Encode())
	forged := forgeKeyedElementDep(t, keyed, keyedRes, keyedProg)
	write("keyed-forged.ric", forged.Encode())
}

// TestAcceptsCommittedZooFixtures pins the committed regime fixtures: the
// sources on disk match the constants the records were extracted from,
// and each record clears all four offline layers.
func TestAcceptsCommittedZooFixtures(t *testing.T) {
	cases := []struct {
		script, srcConst, ricName string
	}{
		{"keyed.js", keyedFixtureSrc, "keyed.ric"},
		{"dict.js", dictFixtureSrc, "dict.ric"},
	}
	for _, c := range cases {
		t.Run(c.ricName, func(t *testing.T) {
			onDisk, err := os.ReadFile(filepath.Join("testdata", c.script))
			if err != nil {
				t.Fatal(err)
			}
			if string(onDisk) != c.srcConst {
				t.Fatalf("testdata/%s drifted from the fixture constant; regenerate with RIC_REGEN_FIXTURES=1", c.script)
			}
			prog := compileSrc(t, c.script, c.srcConst)
			res := analysis.Analyze(prog)
			rec := loadFixture(t, c.ricName)
			if err := rec.Validate(prog); err != nil {
				t.Fatalf("layer 2 rejected committed %s: %v", c.ricName, err)
			}
			if err := rec.VerifyStatic(res); err != nil {
				t.Fatalf("layer 3 rejected committed %s: %v", c.ricName, err)
			}
			if err := rec.VerifyTyped(res); err != nil {
				t.Fatalf("layer 4 rejected committed %s: %v", c.ricName, err)
			}
		})
	}
}

// TestRejectsCommittedForgedKeyed pins the forged sibling: it decodes and
// validates (the lie is checksum- and site-consistent) and only the
// analysis cross-check catches the element handler on a non-array shape.
func TestRejectsCommittedForgedKeyed(t *testing.T) {
	prog := compileSrc(t, "keyed.js", keyedFixtureSrc)
	res := analysis.Analyze(prog)
	rec := loadFixture(t, "keyed-forged.ric")
	if err := rec.Validate(prog); err != nil {
		t.Fatalf("forged fixture should pass layer 2, got: %v", err)
	}
	if err := rec.VerifyStatic(res); err == nil {
		t.Fatal("forged keyed fixture accepted by VerifyStatic")
	} else {
		t.Logf("rejected: %v", err)
	}
}

// TestZooFixtureReuseRuns closes the loop on the committed records: a
// Reuse run driven by each fixture must print exactly what a conventional
// run prints and must serve preloaded hits, so the fixtures stay live
// records of real executions rather than hand-maintained blobs.
func TestZooFixtureReuseRuns(t *testing.T) {
	cases := []struct {
		script, src, ricName string
	}{
		{"keyed.js", keyedFixtureSrc, "keyed.ric"},
		{"dict.js", dictFixtureSrc, "dict.ric"},
	}
	for _, c := range cases {
		t.Run(c.ricName, func(t *testing.T) {
			prog := compileSrc(t, c.script, c.src)
			conv := vm.New(vm.Options{})
			if _, err := conv.RunProgram(prog); err != nil {
				t.Fatal(err)
			}
			rec := loadFixture(t, c.ricName)
			reuser := NewReuser(rec)
			reuse := vm.New(vm.Options{Hooks: reuser})
			reuser.Attach(reuse)
			reuse.RegisterProgram(prog)
			reuser.ReplayPreloads()
			if _, err := reuse.RunProgram(prog); err != nil {
				t.Fatal(err)
			}
			if reuse.Output() != conv.Output() {
				t.Fatalf("reuse diverged: %q vs %q", reuse.Output(), conv.Output())
			}
			if saved := reuse.Prof.Snapshot().MissesSaved; saved == 0 {
				t.Fatal("reuse run averted no misses from the committed record")
			}
		})
	}
}
