// The workload zoo: four generator families beyond the Table 3 library
// regime, each stressing an IC population the libraries leave cold.
// "The False Lead of Optimizing Inline Caches" argues IC conclusions drawn
// from one access regime do not generalize; the zoo opens the keyed-element,
// dictionary-mode, polymorphic-prototype, and JSON-ingestion regimes the
// engine has machinery for but the libraries never exercise.
//
// Every family keeps a compact named-access core (constructors, readers,
// updaters over the Constructors/MinProps/ReaderFns knobs) so each profile
// still produces typed slot claims, preloaded reuse hits, and store-field
// handlers — the properties the soundness and reconciliation gates assert
// per workload — while the family-specific section dominates the miss mix.
package workloads

import (
	"fmt"
	"strings"
)

// Zoo family kinds, dispatched by Profile.Kind.
const (
	KindKeyed    = "keyed"    // array-heavy numeric kernels (AccessKeyedLoad/Store)
	KindDict     = "dict"     // delete-demoted dictionary objects read hot
	KindProto    = "proto"    // prototype method calls over 2/4/8-shape receiver sets
	KindJSONPipe = "jsonpipe" // streaming JSON-record transformation pipeline
)

// Zoo lists the four family profiles, appended to Profiles after the
// Table 3 libraries.
var Zoo = []Profile{
	{
		Name: "KeyedKernels", Script: "keyed.js",
		Domain: "numeric array kernels (keyed-element ICs)",
		Kind:   KindKeyed, Seed: 0x6B3D,
		Constructors: 2, MinProps: 3, MaxProps: 3, Methods: 1, Instances: 3,
		ReaderFns: 2, UpdaterFns: 1, ReadLoops: 6, GlobalTouches: 4,
		ArrayLen: 48, Kernels: 4, StringKeys: 3,
	},
	{
		Name: "DictRegistry", Script: "dict.js",
		Domain: "config registry demoted to dictionary mode, then read hot",
		Kind:   KindDict, Seed: 0xD1C7,
		Constructors: 2, MinProps: 4, MaxProps: 5, Methods: 1, Instances: 2,
		ReaderFns: 2, UpdaterFns: 1, ReadLoops: 5, GlobalTouches: 4,
		DictObjects: 12, DictDeletes: 2,
	},
	{
		Name: "ProtoDispatch", Script: "proto.js",
		Domain: "prototype method dispatch over polymorphic receiver sets",
		Kind:   KindProto, Seed: 0x9407,
		Constructors: 2, MinProps: 3, MaxProps: 3, Methods: 2, Instances: 2,
		ReaderFns: 1, UpdaterFns: 1, ReadLoops: 8, GlobalTouches: 4,
		ProtoShapes: 8,
	},
	{
		Name: "JSONPipe", Script: "jsonpipe.js",
		Domain: "streaming JSON-record transformation (jq/awk style)",
		Kind:   KindJSONPipe, Seed: 0x150A,
		Constructors: 2, MinProps: 3, MaxProps: 3, Methods: 1, Instances: 2,
		ReaderFns: 2, UpdaterFns: 1, ReadLoops: 4, GlobalTouches: 4,
		JSONRecords: 10, JSONVariants: 3,
	},
}

// generateZoo emits a family workload with the same outer layout as the
// library generator — globals, an IIFE holding all state, a checksum
// print — so harnesses treat both populations identically.
func (p Profile) generateZoo() string {
	r := &rng{s: p.Seed ^ 0x9E3779B97F4A7C15}
	var b strings.Builder
	ns := sanitizeIdent(p.Name)

	fmt.Fprintf(&b, "// synthetic %s-regime workload %s (%s)\n", p.Kind, p.Name, p.Domain)
	for i := 0; i < p.GlobalTouches; i++ {
		fmt.Fprintf(&b, "var %s_g%d = %d;\n", ns, i, r.intn(100))
	}
	fmt.Fprintf(&b, "var %s = (function () {\n", ns)
	b.WriteString("\tvar state = {loaded: 0, errors: 0};\n")
	b.WriteString("\tvar acc = 0;\n")

	emitNamedCore(&b, r, p)
	switch p.Kind {
	case KindKeyed:
		emitKeyed(&b, r, p)
	case KindDict:
		emitDict(&b, r, p)
	case KindProto:
		emitProto(&b, r, p)
	case KindJSONPipe:
		emitJSONPipe(&b, r, p)
	}

	for i := 0; i < p.GlobalTouches; i++ {
		fmt.Fprintf(&b, "\t%s_g%d = %s_g%d + 1;\n", ns, i, ns, i)
	}
	fmt.Fprintf(&b, "\tvar api = {version: '1.0', name: '%s', ready: true};\n", p.Name)
	b.WriteString("\tapi.acc = acc;\n")
	b.WriteString("\tapi.loaded = state.loaded;\n")
	b.WriteString("\treturn api;\n")
	b.WriteString("})();\n")
	fmt.Fprintf(&b, "window.%s = %s;\n", ns, ns)
	fmt.Fprintf(&b, "print('%s', %s.acc, %s.loaded);\n", p.Name, ns, ns)
	return b.String()
}

// emitNamedCore is the compact constructor/reader/updater block shared by
// all zoo families. Readers only touch fields below MinProps, which every
// constructor is guaranteed to have.
func emitNamedCore(b *strings.Builder, r *rng, p Profile) {
	for c := 0; c < p.Constructors; c++ {
		n := p.MinProps
		if p.MaxProps > p.MinProps {
			n += r.intn(p.MaxProps - p.MinProps + 1)
		}
		fmt.Fprintf(b, "\tfunction N%d(seed) {\n", c)
		for j := 0; j < n; j++ {
			fmt.Fprintf(b, "\t\tthis.f%d = seed + %d;\n", j, j)
		}
		b.WriteString("\t}\n")
		for m := 0; m < p.Methods; m++ {
			fmt.Fprintf(b, "\tN%d.prototype.nm%d = function () { return this.f%d + %d; };\n",
				c, m, m%n, m)
		}
		fmt.Fprintf(b, "\tvar npool%d = [];\n", c)
		fmt.Fprintf(b, "\tfor (var ni%d = 0; ni%d < %d; ni%d++) npool%d.push(new N%d(ni%d));\n",
			c, c, p.Instances, c, c, c, c)
	}
	id := 0
	for c := 0; c < p.Constructors; c++ {
		for rd := 0; rd < p.ReaderFns; rd++ {
			fmt.Fprintf(b, "\tfunction nread%d(o) { return o.f%d + o.f%d; }\n",
				id, r.intn(p.MinProps), r.intn(p.MinProps))
			fmt.Fprintf(b,
				"\tfor (var nr%d = 0; nr%d < %d; nr%d++) "+
					"for (var nk%d = 0; nk%d < npool%d.length; nk%d++) "+
					"acc += nread%d(npool%d[nk%d]);\n",
				id, id, p.ReadLoops, id, id, id, c, id, id, c, id)
			id++
		}
		for up := 0; up < p.UpdaterFns; up++ {
			f0 := r.intn(p.MinProps)
			fmt.Fprintf(b, "\tfunction nupd%d(o) { o.f%d = o.f%d + %d; return o.f%d; }\n",
				id, f0, r.intn(p.MinProps), up+1, f0)
			fmt.Fprintf(b,
				"\tfor (var nu%d = 0; nu%d < npool%d.length; nu%d++) "+
					"acc += nupd%d(npool%d[nu%d]);\n",
				id, id, c, id, id, c, id)
			id++
		}
	}
	b.WriteString("\tstate.loaded = state.loaded + 1;\n")
}

// emitKeyed builds Kernels numeric arrays and drives them through
// alternating load-reduce and store-scale kernels (LoadElement/StoreElement
// handlers), then StringKeys constant-string record accessors (KeyedNamed
// handlers), plus one varying-name site that goes megamorphic.
func emitKeyed(b *strings.Builder, r *rng, p Profile) {
	for k := 0; k < p.Kernels; k++ {
		fmt.Fprintf(b, "\tvar arr%d = [];\n", k)
		fmt.Fprintf(b, "\tfor (var ka%d = 0; ka%d < %d; ka%d++) arr%d.push((ka%d * %d + %d) %% %d);\n",
			k, k, p.ArrayLen, k, k, k, 3+r.intn(7), r.intn(11), 17+r.intn(16))
		if k%2 == 0 {
			fmt.Fprintf(b, "\tfunction ksum%d(a) { var s = 0; for (var i = 0; i < a.length; i++) { s += a[i]; } return s; }\n", k)
		} else {
			fmt.Fprintf(b, "\tfunction kscale%d(a) { for (var i = 0; i < a.length; i++) { a[i] = a[i] * 2 - i; } return a[a.length - 1]; }\n", k)
		}
		name := fmt.Sprintf("ksum%d", k)
		if k%2 == 1 {
			name = fmt.Sprintf("kscale%d", k)
		}
		fmt.Fprintf(b, "\tfor (var kr%d = 0; kr%d < %d; kr%d++) acc += %s(arr%d);\n",
			k, k, p.ReadLoops, k, name, k)
	}
	// Constant-string keyed access over a fixed record: the key is a local
	// string variable, so the site compiles to OpLoadKeyed/OpStoreKeyed but
	// resolves to one name — a KeyedNamed handler.
	b.WriteString("\tvar krec = {alpha: 1, beta: 2, gamma: 3, delta: 4};\n")
	keys := []string{"alpha", "beta", "gamma", "delta"}
	for s := 0; s < p.StringKeys; s++ {
		k0, k1 := keys[s%len(keys)], keys[(s+1)%len(keys)]
		fmt.Fprintf(b, "\tfunction kpick%d(r) { var k = '%s'; var j = '%s'; r[k] = r[k] + 1; return r[k] + r[j]; }\n",
			s, k0, k1)
		fmt.Fprintf(b, "\tfor (var kp%d = 0; kp%d < %d; kp%d++) acc += kpick%d(krec);\n",
			s, s, p.ReadLoops, s, s)
	}
	// One site fed a rotating key name: the same hidden class under varying
	// names forces the keyed slot megamorphic.
	b.WriteString("\tvar knames = ['alpha', 'beta', 'gamma', 'delta'];\n")
	b.WriteString("\tfunction kvary(r, i) { return r[knames[i % knames.length]]; }\n")
	fmt.Fprintf(b, "\tfor (var kv = 0; kv < %d; kv++) acc += kvary(krec, kv);\n", 4*p.ReadLoops)
	b.WriteString("\tstate.loaded = state.loaded + 1;\n")
}

// emitDict builds DictObjects registry entries, demotes each to dictionary
// mode with DictDeletes deletes plus a post-delete add, then reads and
// updates them in hot loops. Dictionary receivers bypass the IC entirely
// (generic lookups), which is exactly the regime under test.
func emitDict(b *strings.Builder, r *rng, p Profile) {
	n := p.MaxProps
	fmt.Fprintf(b, "\tfunction Entry(seed) {\n")
	for j := 0; j < n; j++ {
		fmt.Fprintf(b, "\t\tthis.k%d = seed + %d;\n", j, j)
	}
	b.WriteString("\t}\n")
	b.WriteString("\tvar registry = [];\n")
	fmt.Fprintf(b, "\tfor (var de = 0; de < %d; de++) {\n", p.DictObjects)
	b.WriteString("\t\tvar e = new Entry(de);\n")
	for d := 0; d < p.DictDeletes && d+1 < n; d++ {
		fmt.Fprintf(b, "\t\tdelete e.k%d;\n", d+1)
	}
	b.WriteString("\t\te.extra = de * 2;\n")
	b.WriteString("\t\tregistry.push(e);\n")
	b.WriteString("\t}\n")
	fmt.Fprintf(b, "\tfunction dread(e) { return e.k0 + e.k%d + e.extra; }\n", n-1)
	b.WriteString("\tfunction dupd(e) { e.k0 = e.k0 + 1; return e.k0; }\n")
	fmt.Fprintf(b,
		"\tfor (var dr = 0; dr < %d; dr++) for (var dk = 0; dk < registry.length; dk++) "+
			"acc += dread(registry[dk]) + dupd(registry[dk]);\n",
		p.ReadLoops)
	// A fast-mode sibling keeps one pristine Entry flowing through the same
	// sites, so the generic path and the IC path interleave per iteration.
	b.WriteString("\tvar fast = new Entry(99);\n")
	b.WriteString("\tfast.extra = 7;\n")
	fmt.Fprintf(b, "\tfor (var df = 0; df < %d; df++) acc += dread(fast);\n", p.ReadLoops)
	// A fast-only site never sees a dictionary receiver, so it stays
	// monomorphic on the pristine shape.
	fmt.Fprintf(b, "\tfunction dfast(e) { return e.k0 + e.k%d; }\n", n-1)
	fmt.Fprintf(b, "\tfor (var dg = 0; dg < %d; dg++) acc += dfast(fast);\n", p.ReadLoops)
	// Delete demotion poisons the whole Entry lineage for typed-shape
	// inference (any Entry might go dictionary), so typed-shape claims
	// need a companion that is never deleted: a tally whose float slot
	// keeps its claim and whose reads contrast with the generic lookups.
	b.WriteString("\tfunction DTally(seed) { this.total = seed * 0.5; this.n = seed; }\n")
	b.WriteString("\tvar tally = new DTally(3);\n")
	b.WriteString("\tfunction dtote(t) { return t.total; }\n")
	fmt.Fprintf(b, "\tfor (var dt = 0; dt < %d; dt++) acc += dtote(tally);\n", p.ReadLoops)
	_ = r
	b.WriteString("\tstate.loaded = state.loaded + 1;\n")
}

// emitProto builds dispatch groups of 2, 4, ..., ProtoShapes constructor
// shapes sharing prototype method names, and drives a per-group call site
// over the mixed receiver set — polymorphic at 2 and 4, megamorphic at 8.
func emitProto(b *strings.Builder, r *rng, p Profile) {
	g := 0
	for size := 2; size <= p.ProtoShapes; size *= 2 {
		for s := 0; s < size; s++ {
			fmt.Fprintf(b, "\tfunction P%d_%d(seed) { this.tag = seed + %d; this.w = %d; }\n",
				g, s, s, s+1)
			for m := 0; m < p.Methods; m++ {
				fmt.Fprintf(b, "\tP%d_%d.prototype.pm%d = function () { return this.tag * %d + this.w; };\n",
					g, s, m, m+1+r.intn(3))
			}
		}
		fmt.Fprintf(b, "\tvar pgrp%d = [];\n", g)
		for s := 0; s < size; s++ {
			fmt.Fprintf(b, "\tpgrp%d.push(new P%d_%d(%d));\n", g, g, s, s)
		}
		call := "o.pm0()"
		if p.Methods > 1 {
			call = "o.pm0() + o.pm1()"
		}
		fmt.Fprintf(b, "\tfunction pcall%d(o) { return %s; }\n", g, call)
		fmt.Fprintf(b,
			"\tfor (var pr%d = 0; pr%d < %d; pr%d++) "+
				"for (var pk%d = 0; pk%d < pgrp%d.length; pk%d++) "+
				"acc += pcall%d(pgrp%d[pk%d]);\n",
			g, g, p.ReadLoops, g, g, g, g, g, g, g, g)
		g++
	}
	b.WriteString("\tstate.loaded = state.loaded + 1;\n")
}

// emitJSONPipe embeds JSONRecords JSON source lines over JSONVariants
// schemas, then runs ReadLoops batches of parse → read → extend → collect.
// Parsed records materialize through the hidden-class transition path (see
// vm.setupJSON), so the reader and the score-store sites are ordinary
// polymorphic ICs over parse-created shapes.
func emitJSONPipe(b *strings.Builder, r *rng, p Profile) {
	b.WriteString("\tvar lines = [];\n")
	for i := 0; i < p.JSONRecords; i++ {
		variant := i % p.JSONVariants
		line := fmt.Sprintf(`{"id": %d, "v": %d`, i, r.intn(100))
		switch variant {
		case 1:
			line += fmt.Sprintf(`, "w": %d`, r.intn(50))
		case 2:
			line += fmt.Sprintf(`, "tag": "t%d", "deep": {"z": %d}`, r.intn(9), r.intn(20))
		}
		line += "}"
		fmt.Fprintf(b, "\tlines.push('%s');\n", line)
	}
	b.WriteString("\tfunction jscore(rec) { return rec.id * 2 + rec.v; }\n")
	b.WriteString("\tvar out = [];\n")
	fmt.Fprintf(b, "\tfor (var jb = 0; jb < %d; jb++) {\n", p.ReadLoops)
	b.WriteString("\t\tfor (var ji = 0; ji < lines.length; ji++) {\n")
	b.WriteString("\t\t\tvar rec = JSON.parse(lines[ji]);\n")
	b.WriteString("\t\t\trec.score = jscore(rec);\n")
	b.WriteString("\t\t\tout.push(rec);\n")
	b.WriteString("\t\t\tacc += rec.score;\n")
	b.WriteString("\t\t}\n")
	b.WriteString("\t}\n")
	b.WriteString("\tacc += JSON.stringify(out[0]).length;\n")
	b.WriteString("\tstate.loaded = state.loaded + out.length;\n")
}
