package trace

import (
	"fmt"
	"io"
	"strings"
)

// noSite is the textual form of the zero site in summaries: events with no
// site identity (builtin validations, degradations, pool lifecycle).
const noSite = "(none)"

// String renders the summary in the stable line format the golden-trace
// files are committed in:
//
//	events <total>
//	total <type> <count>            # one line per nonzero type
//	site <site> <type> <count>      # sites sorted, types in declaration order
//
// Zero counts are omitted, so adding a new event type does not disturb
// existing golden files until the event actually fires.
func (s *Summary) String() string {
	var b strings.Builder
	s.write(&b)
	return b.String()
}

func (s *Summary) write(w io.Writer) {
	fmt.Fprintf(w, "events %d\n", s.Events)
	for t := Type(0); t < NumTypes; t++ {
		if s.Total[t] > 0 {
			fmt.Fprintf(w, "total %s %d\n", t, s.Total[t])
		}
	}
	for _, sc := range s.Sites {
		name := sc.Site.String()
		if sc.Site.Script == "" && sc.Site.Pos.IsZero() {
			name = noSite
		}
		for t := Type(0); t < NumTypes; t++ {
			if sc.Counts[t] > 0 {
				fmt.Fprintf(w, "site %s %s %d\n", name, t, sc.Counts[t])
			}
		}
	}
}
