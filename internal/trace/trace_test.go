package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"ricjs/internal/source"
)

func site(script string, line, col uint32) source.Site {
	return source.Site{Script: script, Pos: source.Pos{Line: line, Col: col}}
}

func TestNilBufferIsInertSink(t *testing.T) {
	var b *Buffer
	b.Emit(EvICHit, site("a.js", 1, 1), "x", 0) // must not panic
	if b.Len() != 0 || b.Dropped() != 0 || b.Count(EvICHit) != 0 {
		t.Fatalf("nil buffer reported activity: len=%d dropped=%d", b.Len(), b.Dropped())
	}
	if got := b.Events(); got != nil {
		t.Fatalf("nil buffer returned events: %v", got)
	}
	s := b.Summary()
	if s.Events != 0 || len(s.Sites) != 0 {
		t.Fatalf("nil buffer summary not empty: %+v", s)
	}
}

func TestRingKeepsMostRecentAndRegistryKeepsAll(t *testing.T) {
	b := NewBuffer(4)
	for i := 0; i < 10; i++ {
		b.Emit(EvICHit, site("a.js", uint32(i+1), 1), "x", int64(i))
	}
	if b.Len() != 10 {
		t.Fatalf("Len = %d, want 10", b.Len())
	}
	if b.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", b.Dropped())
	}
	ev := b.Events()
	if len(ev) != 4 {
		t.Fatalf("ring retained %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if want := uint64(6 + i); e.Seq != want {
			t.Fatalf("event %d has seq %d, want %d (oldest-first order)", i, e.Seq, want)
		}
	}
	// The registry never drops: all 10 hits are counted, across 10 sites.
	if b.Count(EvICHit) != 10 {
		t.Fatalf("registry count = %d, want 10", b.Count(EvICHit))
	}
	if s := b.Summary(); len(s.Sites) != 10 || s.Events != 10 {
		t.Fatalf("summary lost events: %d events over %d sites", s.Events, len(s.Sites))
	}
}

func TestEventsBeforeWrapAreInOrder(t *testing.T) {
	b := NewBuffer(8)
	for i := 0; i < 3; i++ {
		b.Emit(EvHCCreated, source.Site{}, "", 0)
	}
	ev := b.Events()
	if len(ev) != 3 {
		t.Fatalf("got %d events, want 3", len(ev))
	}
	for i, e := range ev {
		if e.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
}

func TestResetClearsEventsAndKeepsTags(t *testing.T) {
	b := NewBuffer(8).Tag(7)
	b.Emit(EvICMissOther, site("a.js", 1, 1), "x", 0)
	b.Reset()
	if b.Len() != 0 || b.Count(EvICMissOther) != 0 || len(b.Events()) != 0 {
		t.Fatal("reset did not clear the buffer")
	}
	b.Emit(EvICHit, site("a.js", 1, 1), "x", 0)
	e := b.Events()[0]
	if e.Session != 7 {
		t.Fatalf("tag lost across reset: session=%d", e.Session)
	}
	if e.Seq != 0 {
		t.Fatalf("seq did not restart: %d", e.Seq)
	}
}

func TestSummaryStringDeterministicAndSorted(t *testing.T) {
	mk := func(order []int) string {
		b := NewBuffer(0)
		sites := []source.Site{site("b.js", 2, 1), site("a.js", 10, 2), site("a.js", 2, 9)}
		for _, i := range order {
			b.Emit(EvICHit, sites[i], "x", 0)
			b.Emit(EvICMissOther, sites[i], "x", 0)
		}
		b.Emit(EvValidateFail, source.Site{}, "", 0)
		return b.Summary().String()
	}
	s1 := mk([]int{0, 1, 2})
	s2 := mk([]int{2, 0, 1})
	if s1 != s2 {
		t.Fatalf("summary depends on emission order:\n%s\nvs\n%s", s1, s2)
	}
	// Sites sort numerically by line/col, not lexically, and the zero site
	// renders as (none).
	wantOrder := []string{"site (none)", "site a.js:2:9", "site a.js:10:2", "site b.js:2:1"}
	last := -1
	for _, w := range wantOrder {
		idx := strings.Index(s1, w)
		if idx < 0 {
			t.Fatalf("summary missing %q:\n%s", w, s1)
		}
		if idx < last {
			t.Fatalf("summary site order wrong (%q out of place):\n%s", w, s1)
		}
		last = idx
	}
	if !strings.HasPrefix(s1, "events 7\n") {
		t.Fatalf("summary header wrong:\n%s", s1)
	}
	if !strings.Contains(s1, "total ic-hit 3\n") {
		t.Fatalf("summary totals wrong:\n%s", s1)
	}
}

func TestMergeSummaries(t *testing.T) {
	b1 := NewBuffer(0)
	b1.Emit(EvICHit, site("a.js", 1, 1), "x", 0)
	b1.Emit(EvPoolSession, source.Site{}, "", 0)
	b2 := NewBuffer(0)
	b2.Emit(EvICHit, site("a.js", 1, 1), "x", 0)
	b2.Emit(EvICMissGlobal, site("a.js", 1, 1), "x", 0)

	m := MergeSummaries(b1.Summary(), nil, b2.Summary())
	if m.Events != 4 {
		t.Fatalf("merged events = %d, want 4", m.Events)
	}
	if m.Count(EvICHit) != 2 || m.Count(EvICMissGlobal) != 1 || m.Count(EvPoolSession) != 1 {
		t.Fatalf("merged totals wrong: %+v", m.Total)
	}
	found := false
	for _, sc := range m.Sites {
		if sc.Site == site("a.js", 1, 1) {
			found = true
			if sc.Counts[EvICHit] != 2 {
				t.Fatalf("per-site merge wrong: %+v", sc.Counts)
			}
		}
	}
	if !found {
		t.Fatal("merged summary lost the site")
	}
}

func TestTypeNamesCompleteAndUnique(t *testing.T) {
	seen := map[string]Type{}
	for ty := Type(0); ty < NumTypes; ty++ {
		name := ty.String()
		if name == "unknown" || name == "" {
			t.Fatalf("event type %d has no wire name", ty)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("types %d and %d share wire name %q", prev, ty, name)
		}
		seen[name] = ty
	}
	if NumTypes.String() != "unknown" {
		t.Fatal("out-of-range type must render as unknown")
	}
}

func TestWriteJSONLRoundTrips(t *testing.T) {
	b := NewBuffer(0).Tag(3)
	b.Emit(EvICHit, site("lib.js", 4, 7), "count", 2)
	b.Emit(EvDegrade, source.Site{}, "validate", 0)

	var out bytes.Buffer
	if err := WriteJSONL(&out, b.Events()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), out.String())
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 1 is not valid JSON: %v\n%s", err, lines[0])
	}
	if first["type"] != "ic-hit" || first["site"] != "lib.js:4:7" ||
		first["name"] != "count" || first["n"] != float64(2) ||
		first["session"] != float64(3) {
		t.Fatalf("line 1 fields wrong: %v", first)
	}
	var second map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatalf("line 2 is not valid JSON: %v", err)
	}
	if _, hasSite := second["site"]; hasSite {
		t.Fatalf("zero site must be omitted: %v", second)
	}
	if second["name"] != "validate" {
		t.Fatalf("line 2 fields wrong: %v", second)
	}
}

func TestWriteChromeTraceIsValidJSON(t *testing.T) {
	b := NewBuffer(0).Tag(9)
	b.Emit(EvICMissOther, site("lib.js", 1, 1), "p", 0)
	b.Emit(EvPreloadApplied, site("lib.js", 2, 5), "q", 1)
	b.Emit(EvPoolPublish, source.Site{}, "extract", 0)

	var out bytes.Buffer
	if err := WriteChromeTrace(&out, b.Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   uint64         `json:"ts"`
			Pid  uint64         `json:"pid"`
			Tid  uint64         `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, out.String())
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("got %d trace events, want 3", len(doc.TraceEvents))
	}
	e0 := doc.TraceEvents[0]
	if e0.Name != "ic-miss-other" || e0.Ph != "i" || e0.Pid != 9 || e0.Tid != 0 {
		t.Fatalf("event 0 wrong: %+v", e0)
	}
	if e0.Args["site"] != "lib.js:1:1" {
		t.Fatalf("event 0 args wrong: %v", e0.Args)
	}
	if doc.TraceEvents[2].Args["name"] != "extract" {
		t.Fatalf("event 2 args wrong: %v", doc.TraceEvents[2].Args)
	}
	if doc.TraceEvents[1].Ts != 1 {
		t.Fatalf("ts must be the sequence number, got %d", doc.TraceEvents[1].Ts)
	}
}

func TestEmitWithZeroCapacityDefaults(t *testing.T) {
	b := NewBuffer(-1)
	if cap(b.ring) != DefaultCapacity {
		t.Fatalf("capacity = %d, want DefaultCapacity", cap(b.ring))
	}
}
