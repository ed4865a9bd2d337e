package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteJSONL writes one JSON object per event, one per line — the format
// behind `ricjs -trace out.jsonl`. Fields with zero values (site, name, n,
// session) are omitted, so a standalone engine's trace stays
// compact. The encoding is hand-rolled: it is deterministic (fixed key
// order), allocation-light, and needs no reflection.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	for i := range events {
		writeEventJSON(bw, &events[i])
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

func writeEventJSON(bw *bufio.Writer, e *Event) {
	bw.WriteString(`{"seq":`)
	bw.WriteString(strconv.FormatUint(e.Seq, 10))
	bw.WriteString(`,"type":"`)
	bw.WriteString(e.Type.String())
	bw.WriteByte('"')
	if e.Site.Script != "" || !e.Site.Pos.IsZero() {
		bw.WriteString(`,"site":`)
		bw.WriteString(quoteJSON(e.Site.String()))
	}
	if e.Name != "" {
		bw.WriteString(`,"name":`)
		bw.WriteString(quoteJSON(e.Name))
	}
	if e.N != 0 {
		bw.WriteString(`,"n":`)
		bw.WriteString(strconv.FormatInt(e.N, 10))
	}
	if e.Session != 0 {
		bw.WriteString(`,"session":`)
		bw.WriteString(strconv.FormatUint(e.Session, 10))
	}
	bw.WriteByte('}')
}

// quoteJSON quotes a string for JSON. Site strings and property names are
// ASCII in practice; strconv.Quote's escaping is a superset of what JSON
// needs for them, except for its \x escapes, which cannot appear for the
// inputs this package produces (script names, identifiers, phases).
func quoteJSON(s string) string {
	if strings.IndexFunc(s, func(r rune) bool { return r < 0x20 || r == '"' || r == '\\' || r > 0x7e }) < 0 {
		return `"` + s + `"`
	}
	return strconv.Quote(s)
}

// WriteChromeTrace writes the events in the Chrome trace_event JSON format
// (the "JSON Array Format" of the Trace Event spec), loadable in
// chrome://tracing and in Perfetto's legacy-trace importer. The engine has
// no wall clock — execution is deterministic by design — so the event
// sequence number stands in for the microsecond timestamp: the horizontal
// axis reads as "event index", which is exactly the deterministic ordering
// the golden tests lock down. Sessions map to pids (tid is always 0), so a
// pool trace lays each session out on its own track.
func WriteChromeTrace(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	for i := range events {
		if i > 0 {
			bw.WriteByte(',')
		}
		e := &events[i]
		fmt.Fprintf(bw, `{"name":%s,"ph":"i","s":"t","ts":%d,"pid":%d,"tid":0,"cat":"ic","args":{`,
			quoteJSON(e.Type.String()), e.Seq, e.Session)
		first := true
		if e.Site.Script != "" || !e.Site.Pos.IsZero() {
			fmt.Fprintf(bw, `"site":%s`, quoteJSON(e.Site.String()))
			first = false
		}
		if e.Name != "" {
			if !first {
				bw.WriteByte(',')
			}
			fmt.Fprintf(bw, `"name":%s`, quoteJSON(e.Name))
			first = false
		}
		if e.N != 0 {
			if !first {
				bw.WriteByte(',')
			}
			fmt.Fprintf(bw, `"n":%d`, e.N)
		}
		bw.WriteString(`}}`)
	}
	bw.WriteString(`]}`)
	return bw.Flush()
}
