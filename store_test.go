package ricjs

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func extractDemo(t *testing.T, src, label string) *Record {
	t.Helper()
	e := NewEngine(Options{})
	if err := e.Run(label, src); err != nil {
		t.Fatal(err)
	}
	return e.ExtractRecord(label)
}

func TestRecordStoreSaveLoadRoundTrip(t *testing.T) {
	store, err := OpenRecordStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := extractDemo(t, demoLib, "demo.js")
	if err := store.Save("demo.js", rec); err != nil {
		t.Fatal(err)
	}
	back, err := store.Load("demo.js")
	if err != nil {
		t.Fatal(err)
	}
	if back == nil {
		t.Fatal("stored record not found")
	}
	if string(back.Encode()) != string(rec.Encode()) {
		t.Fatal("round trip changed the record")
	}
}

func TestRecordStoreMissingKey(t *testing.T) {
	store, err := OpenRecordStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := store.Load("never-saved")
	if err != nil || rec != nil {
		t.Fatalf("missing key must be (nil, nil), got (%v, %v)", rec, err)
	}
}

func TestRecordStoreCorruptQuarantines(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenRecordStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := extractDemo(t, demoLib, "demo.js")
	if err := store.Save("demo.js", rec); err != nil {
		t.Fatal(err)
	}
	// Corrupt the stored file.
	path := store.path("demo.js")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := store.Load("demo.js")
	if err != nil || back != nil {
		t.Fatalf("corrupt record must read as absent, got (%v, %v)", back, err)
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Fatal("corrupt record file must be moved out of the way")
	}
	if _, statErr := os.Stat(path + quarantineExt); statErr != nil {
		t.Fatalf("corrupt record must be quarantined, not deleted: %v", statErr)
	}
	quarantined, err := store.Quarantined()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Base(path) + quarantineExt}
	if !reflect.DeepEqual(quarantined, want) {
		t.Fatalf("Quarantined = %v, want %v", quarantined, want)
	}
	// Saving again under the same key must work (the regeneration path).
	if err := store.Save("demo.js", rec); err != nil {
		t.Fatal(err)
	}
	if back, err := store.Load("demo.js"); err != nil || back == nil {
		t.Fatalf("regenerated record must load, got (%v, %v)", back, err)
	}
}

func TestRecordStoreOldFormatQuarantines(t *testing.T) {
	// A record in the superseded v2 wire format (no checksum) must be
	// treated as corrupt: quarantined and regenerated, never trusted.
	dir := t.TempDir()
	store, err := OpenRecordStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := store.path("old.js")
	if err := os.WriteFile(path, []byte("RICREC\x02legacy-payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := store.Load("old.js")
	if err != nil || back != nil {
		t.Fatalf("old-format record must read as absent, got (%v, %v)", back, err)
	}
	quarantined, err := store.Quarantined()
	if err != nil || len(quarantined) != 1 {
		t.Fatalf("old-format record must be quarantined, got (%v, %v)", quarantined, err)
	}
}

func TestRecordStoreKeyCollision(t *testing.T) {
	// "a/b" and "a_b" sanitize to the same name; the key hash must keep
	// their files distinct.
	store, err := OpenRecordStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if store.path("a/b") == store.path("a_b") {
		t.Fatal("distinct keys map to the same file")
	}
	recA := extractDemo(t, demoLib, "a.js")
	recB := extractDemo(t, "function F(){this.f=1;} var f = new F(); print(f.f);", "b.js")
	if err := store.Save("a/b", recA); err != nil {
		t.Fatal(err)
	}
	if err := store.Save("a_b", recB); err != nil {
		t.Fatal(err)
	}
	backA, err := store.Load("a/b")
	if err != nil || backA == nil {
		t.Fatal(err)
	}
	backB, err := store.Load("a_b")
	if err != nil || backB == nil {
		t.Fatal(err)
	}
	if string(backA.Encode()) != string(recA.Encode()) {
		t.Fatal("a/b record clobbered by a_b")
	}
	if string(backB.Encode()) != string(recB.Encode()) {
		t.Fatal("a_b record clobbered by a/b")
	}
}

func TestRecordStoreKeysAndDelete(t *testing.T) {
	store, err := OpenRecordStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := extractDemo(t, demoLib, "demo.js")
	for _, key := range []string{"b.js", "a.js", "weird/key with spaces"} {
		if err := store.Save(key, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Delete("a.js"); err != nil {
		t.Fatal(err)
	}
	if back, err := store.Load("a.js"); err != nil || back != nil {
		t.Fatalf("Load after delete = (%v, %v), want (nil, nil)", back, err)
	}
	if err := store.Delete("a.js"); err != nil {
		t.Fatal("double delete must be a no-op")
	}
	if back, err := store.Load("a.js"); err != nil || back != nil {
		t.Fatalf("Load after double delete = (%v, %v), want (nil, nil)", back, err)
	}
	for _, key := range []string{"b.js", "weird/key with spaces"} {
		if back, err := store.Load(key); err != nil || back == nil {
			t.Fatalf("Delete(a.js) disturbed %q: (%v, %v)", key, back, err)
		}
	}
}

func TestRecordStoreSaveWritesOneFile(t *testing.T) {
	// A record is one file: Save writes no sidecar next to it.
	dir := t.TempDir()
	store, err := OpenRecordStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := extractDemo(t, demoLib, "demo.js")
	for _, key := range []string{"a.js", "b/c.js", "d e.js"} {
		if err := store.Save(key, rec); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 3 {
		t.Fatalf("store directory holds %v, want exactly three record files", names)
	}
	for _, name := range names {
		if filepath.Ext(name) != recordExt {
			t.Fatalf("store directory holds %v, want only %s files", names, recordExt)
		}
	}
}

func TestRecordStoreKeysRoundTrip(t *testing.T) {
	// Every saved key must load back exactly the bytes saved under it —
	// including keys that sanitize identically and keys that sanitize
	// away entirely.
	store, err := OpenRecordStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	recs := map[string]*Record{
		"a/b":           extractDemo(t, demoLib, "ab1.js"),
		"a_b":           extractDemo(t, "function F(){this.f=1;} var f=new F(); print(f.f);", "ab2.js"),
		"café/ünïcode":  extractDemo(t, "function G(){this.g=2;} var g=new G(); print(g.g);", "uni.js"),
		"plain.js":      extractDemo(t, "function H(){this.h=3;} var h=new H(); print(h.h);", "plain.js"),
		"with spaces !": extractDemo(t, "function K(){this.k=4;} var k=new K(); print(k.k);", "sp.js"),
	}
	for key, rec := range recs {
		if err := store.Save(key, rec); err != nil {
			t.Fatalf("save %q: %v", key, err)
		}
	}
	for key, rec := range recs {
		back, err := store.Load(key)
		if err != nil {
			t.Fatalf("Load(%q): %v", key, err)
		}
		if back == nil {
			t.Fatalf("Load(%q) found nothing: round trip broken", key)
		}
		if string(back.Encode()) != string(rec.Encode()) {
			t.Fatalf("Load(%q) returned a different record", key)
		}
	}
}
