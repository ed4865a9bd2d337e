// Package ric implements Reusable Inline Caching — the paper's core
// contribution (§4, §5).
//
// After an Initial run, the extraction phase (Extract) analyzes the
// ICVectors and hidden-class graph the program produced and builds an
// ICRecord holding only context-independent information:
//
//   - the Hidden Class Validation Table (HCVT): one row per hidden class,
//     carrying the dependent sites to preload once the class validates;
//   - the Triggering Object Access Site Table (TOAST): keyed by access-site
//     identity (script:line:col) or builtin name, giving the
//     (incoming, outgoing) hidden-class-ID pairs of each triggering site;
//   - the context-independent handlers of the dependent sites, as
//     rebuildable descriptors.
//
// During a Reuse run, a Reuser (installed as the VM's hooks) incrementally
// validates hidden classes — builtins at startup, then transition targets
// whose incoming class already validated — and preloads the ICVector slots
// of dependent sites, averting their IC misses.
package ric

import (
	"fmt"
	"sort"
	"sync/atomic"

	"ricjs/internal/bytecode"
	"ricjs/internal/heapsize"
	"ricjs/internal/ic"
	"ricjs/internal/objects"
	"ricjs/internal/source"
	"ricjs/internal/symtab"
)

// Pair is one (incoming, outgoing) hidden-class-ID pair of a TOAST entry.
// In is -1 for rootless creations (constructor hidden classes and builtin
// roots have no incoming class).
type Pair struct {
	In  int32
	Out int32
}

// DepEntry is one dependent site of an HCVT row: when the row's hidden
// class validates, Site's ICVector slot is preloaded with the handler
// described by Desc (which is context-independent by construction).
// Kind and Name pin the access the Initial run saw at the site; preloading
// verifies the live slot matches, so a record from a different program
// version whose site positions coincidentally collide can never install a
// handler for the wrong property. Fields are ordered widest first, so
// NameID and Kind share one word (72 bytes, not 88).
type DepEntry struct {
	Site source.Site
	Name string
	Desc ic.CIDescriptor
	// NameID is Name resolved against the process-global symbol table,
	// filled once at extraction or record decode; the preload path compares
	// it against the live slot's NameID so per-dependent matching never
	// hashes the string again. It is never persisted (symbol IDs are not
	// stable across processes — the wire format carries names).
	NameID symtab.ID
	Kind   ic.AccessKind
}

// Builtin is one name-keyed TOAST entry: a builtin and the outgoing HCID
// created for it.
type Builtin struct {
	Name string
	ID   int32
}

// builtinTable returns a name-keyed TOAST as the record keeps it: sorted
// by name, one entry per name.
func builtinTable(ids map[string]int32) []Builtin {
	t := make([]Builtin, 0, len(ids))
	for name, id := range ids {
		t = append(t, Builtin{Name: name, ID: id})
	}
	sort.Slice(t, func(i, j int) bool { return t[i].Name < t[j].Name })
	return t
}

// SlotClaim is one typed-shape claim of an HCVT row: the slot at Offset of
// the row's hidden class only ever holds values of Type. Claims are
// computed offline by the static value-type analysis (AttachTypedShapes)
// and verified offline by riclint (VerifyTyped); served records carry
// none, and no runtime path reads them.
type SlotClaim struct {
	Offset int32
	Type   objects.SlotType
}

// Stats summarizes an extraction for the §7.3 overhead analysis.
type Stats struct {
	// HiddenClasses is the number of HCVT rows.
	HiddenClasses int
	// TriggeringSites is the number of site-keyed TOAST entries.
	TriggeringSites int
	// BuiltinEntries is the number of name-keyed TOAST entries.
	BuiltinEntries int
	// DependentSlots is the total number of (hidden class, site) preload
	// opportunities recorded.
	DependentSlots int
	// RejectedSites is the number of sites excluded because their handler
	// was context-dependent.
	RejectedSites int
	// ContextIndependentHandlers counts the saved handler descriptors
	// (equal to DependentSlots; kept for reporting symmetry).
	ContextIndependentHandlers int
	// TypedSlotClaims is the total number of typed-shape slot claims the
	// record carries (the v5 section). It is 0 for every record
	// Engine.ExtractRecord serves; only offline AttachTypedShapes raises it.
	TypedSlotClaims int
}

// Record is the ICRecord (paper Figure 6): the persistent,
// context-independent extract of one execution's IC state.
//
// Immutability contract: a Record is written only during construction
// (Extract, Merge, Decode) and is read-only from then on. The Reuser
// keeps all run-varying reuse state (addresses, validation bits, preload
// progress) in per-Reuser runtime columns, never in the Record, so one
// decoded Record may be shared by any number of concurrent sessions
// (ricjs.SessionPool relies on this). Anything that needs a modified
// record must build a new one. The one exception is the validation memo
// (see Validate): it caches one verdict only, computed from the record
// and one immutable program, so any session recomputing it gets the same
// verdict and ordinals; it is swapped atomically and never mutated.
type Record struct {
	// Script names the workload the record was extracted from (several
	// scripts may contribute; this is the label of the run).
	Script string

	// HCCount is the number of hidden classes enumerated; valid HCIDs are
	// [0, HCCount).
	HCCount int32

	// Deps[hcid] lists the dependent sites to preload when hcid validates
	// (the HCVT's "List of (Dependent Site, Handler)" column).
	Deps [][]DepEntry

	// SiteTOAST maps triggering-site identities to their transition pairs.
	SiteTOAST map[source.Site][]Pair

	// BuiltinTOAST gives the outgoing HCID created for each builtin name
	// (entries "have no incoming hidden class and only one outgoing hidden
	// class", §5.1), sorted by name with each name once; BuiltinID looks a
	// name up. A sorted slice costs a quarter of the map it replaces in
	// every resident record.
	BuiltinTOAST []Builtin

	// RejectedSites lists sites whose Initial-run handlers were
	// context-dependent; the Reuse run classifies their misses as
	// "Handler" misses in the Table 4 breakdown.
	RejectedSites map[source.Site]bool

	// IncludesGlobals records whether global-object state was extracted
	// (off by default, paper §6).
	IncludesGlobals bool

	// TypedSlots maps an HCID to its typed-shape claims (the v5 wire
	// section). Nil or absent entries mean "no claims", which is what
	// every served record carries: only offline tooling attaches claims.
	TypedSlots map[int32][]SlotClaim

	Stats Stats

	// resident is the heap the record keeps alive, fixed where the record
	// is built; see ResidentBytes.
	resident int

	// memo holds the verdict of the last single-program Validate, keyed by
	// the program's serial; the last writer wins.
	memo atomic.Pointer[verdict]
}

// verdict is one memoized Validate result for one program: nil or the
// staleness error, plus where each dependent's slot sits in the slab a VM
// registers the program as (vm.Registration). ords[hcid][j] is the slab
// ordinal of Deps[hcid][j], or -1 when the program has no site there.
//
// The verdict names its program by serial, not by pointer: a record
// outlives the programs it validated, and a pointer here would keep the
// last one alive after the code cache let it go.
type verdict struct {
	serial uint64
	err    error
	ords   [][]int32
}

// BuiltinID returns the HCID the builtin TOAST gives name, by binary
// search over the sorted table.
func (r *Record) BuiltinID(name string) (int32, bool) {
	t := r.BuiltinTOAST
	i := sort.Search(len(t), func(i int) bool { return t[i].Name >= name })
	if i < len(t) && t[i].Name == name {
		return t[i].ID, true
	}
	return 0, false
}

// ResidentBytes is the heap the record keeps alive: the record itself,
// its HCVT rows, its TOAST (the site map with its pair lists, and the
// builtin table) and its rejected-site and typed-shape maps, each costed
// as the Go allocator lays it out. Names are not counted: a record's
// names are the process-global symbol table's strings, shared by every
// record that mentions them. Extract, Decode and Merge compute the figure
// once; a hand-built record reports 0.
func (r *Record) ResidentBytes() int { return r.resident }

// residentBytes computes ResidentBytes.
func (r *Record) residentBytes() int {
	n := heapsize.Alloc(heapsize.Of[Record]()) + heapsize.Slice(r.Deps)
	for _, row := range r.Deps {
		n += heapsize.Slice(row)
	}
	n += heapsize.MapOf(r.SiteTOAST)
	for _, pairs := range r.SiteTOAST {
		n += heapsize.Slice(pairs)
	}
	n += heapsize.Slice(r.BuiltinTOAST) + heapsize.MapOf(r.RejectedSites)
	if r.TypedSlots != nil {
		n += heapsize.MapOf(r.TypedSlots)
		for _, claims := range r.TypedSlots {
			n += heapsize.Slice(claims)
		}
	}
	return n
}

// packDeps moves every HCVT row into one exactly sized backing array, in
// row order, so a resident record keeps no spare capacity from the
// appends that built its rows and its dependents sit in one allocation.
// Empty rows become nil.
func packDeps(rows [][]DepEntry) {
	n := 0
	for _, row := range rows {
		n += len(row)
	}
	flat := make([]DepEntry, n)
	for i, row := range rows {
		if len(row) == 0 {
			rows[i] = nil
			continue
		}
		packed := flat[:len(row):len(row)]
		copy(packed, row)
		rows[i] = packed
		flat = flat[len(row):]
	}
}

// validateShape checks internal consistency; the decoder and tests use it
// to reject corrupt records before they reach a Reuser.
func (r *Record) validateShape() error {
	if r.HCCount < 0 {
		return fmt.Errorf("ric: negative hidden class count %d", r.HCCount)
	}
	if len(r.Deps) != int(r.HCCount) {
		return fmt.Errorf("ric: %d dep rows for %d hidden classes", len(r.Deps), r.HCCount)
	}
	for site, pairs := range r.SiteTOAST {
		for _, p := range pairs {
			if p.Out < 0 || p.Out >= r.HCCount {
				return fmt.Errorf("ric: TOAST %s: outgoing id %d out of range", site, p.Out)
			}
			if p.In < -1 || p.In >= r.HCCount {
				return fmt.Errorf("ric: TOAST %s: incoming id %d out of range", site, p.In)
			}
		}
	}
	for i, b := range r.BuiltinTOAST {
		if b.ID < 0 || b.ID >= r.HCCount {
			return fmt.Errorf("ric: builtin %q: id %d out of range", b.Name, b.ID)
		}
		if i > 0 && r.BuiltinTOAST[i-1].Name >= b.Name {
			return fmt.Errorf("ric: builtin %q: builtin TOAST not sorted by unique name", b.Name)
		}
	}
	for hcid, deps := range r.Deps {
		for _, d := range deps {
			if _, err := d.Desc.Rebuild(); err != nil {
				return fmt.Errorf("ric: HCID %d dependent %s: %v", hcid, d.Site, err)
			}
			if fieldHandler(d.Desc) && d.Desc.Offset < 0 {
				return fmt.Errorf("ric: HCID %d dependent %s: negative field offset %d",
					hcid, d.Site, d.Desc.Offset)
			}
		}
	}
	for hcid, claims := range r.TypedSlots {
		if hcid < 0 || hcid >= r.HCCount {
			return fmt.Errorf("ric: typed shape id %d out of range", hcid)
		}
		for _, c := range claims {
			if c.Offset < 0 {
				return fmt.Errorf("ric: typed shape %d: negative slot offset %d", hcid, c.Offset)
			}
			if !objects.ValidSlotTag(c.Type) {
				return fmt.Errorf("ric: typed shape %d: invalid slot type tag %d", hcid, c.Type)
			}
		}
	}
	return nil
}

// fieldHandler reports whether a descriptor carries a meaningful in-object
// slot offset.
func fieldHandler(d ic.CIDescriptor) bool {
	switch d.Kind {
	case ic.KindLoadField, ic.KindStoreField:
		return true
	case ic.KindKeyedNamed:
		return d.Inner == ic.KindLoadField || d.Inner == ic.KindStoreField
	}
	return false
}

// Validate cross-checks the record against compiled bytecode before a
// Reuse run begins (the staleness check the checksum cannot provide): a
// structurally valid, checksum-valid record may still come from an edited
// or different version of the script, in which case its site references
// point at positions that no longer carry an object access — or carry a
// different access. Every site reference belonging to a script covered by
// progs must resolve to a live feedback site with the recorded access kind
// and property name. Sites in scripts not covered by progs are skipped:
// a merged record legitimately spans scripts the current session never
// loads.
//
// Record and compiled program are both immutable, so the verdict for one
// program is computed in full the first time and then served from a
// single-entry memo on the record, keyed by the program's serial. A check
// against another program replaces the entry; a check against several
// programs at once is not memoized.
func (r *Record) Validate(progs ...*bytecode.Program) error {
	if len(progs) != 1 {
		_, err := r.validate(progs)
		return err
	}
	return r.verdictFor(progs[0]).err
}

// verdictFor returns the memoized verdict for one program, computing and
// storing it when the memo holds another program's.
func (r *Record) verdictFor(prog *bytecode.Program) *verdict {
	serial := prog.Serial()
	if v := r.memo.Load(); v != nil && v.serial == serial {
		return v
	}
	ords, err := r.validate([]*bytecode.Program{prog})
	v := &verdict{serial: serial, err: err, ords: ords}
	r.memo.Store(v)
	return v
}

// siteRef is a compiled site and its ordinal in its program's site walk.
type siteRef struct {
	info *ic.SiteInfo
	ord  int32
}

// validate is Validate without the memo. Besides the verdict it returns
// every dependent's slab ordinal (see verdict); ordinals are only
// meaningful when progs holds one program.
func (r *Record) validate(progs []*bytecode.Program) ([][]int32, error) {
	sites := make(map[source.Site]siteRef)
	// declSites are function declaration positions: constructor initial
	// hidden classes key their TOAST entries to the declaring function's
	// site rather than to a feedback slot.
	declSites := make(map[source.Site]bool)
	covered := make(map[string]bool)
	for _, p := range progs {
		if p == nil || p.Toplevel == nil {
			continue
		}
		covered[p.Script] = true
		ord := int32(0)
		p.Toplevel.WalkProtos(func(fp *bytecode.FuncProto) {
			for i := range fp.Sites {
				sites[fp.Sites[i].Site()] = siteRef{info: &fp.Sites[i], ord: ord}
				ord++
			}
			if !fp.DeclPos.IsZero() {
				declSites[source.Site{Script: fp.Script, Pos: fp.DeclPos}] = true
			}
		})
	}
	known := func(s source.Site) (siteRef, bool, bool) {
		if !covered[s.Script] {
			return siteRef{}, false, false
		}
		ref, ok := sites[s]
		return ref, ok, true
	}
	ndeps := 0
	for _, deps := range r.Deps {
		ndeps += len(deps)
	}
	flat := make([]int32, ndeps)
	ords := make([][]int32, len(r.Deps))
	var err error
	for hcid, deps := range r.Deps {
		row := flat[:len(deps):len(deps)]
		flat = flat[len(deps):]
		ords[hcid] = row
		for j, d := range deps {
			// The walk resolves every dependent, also past the first
			// error, so a stale record's ordinals stay usable; the error
			// reported is the first one in dependent order.
			row[j] = -1
			ref, ok, inScope := known(d.Site)
			switch {
			case !inScope:
			case !ok:
				if err == nil {
					err = fmt.Errorf("ric: HCID %d dependent %s: no such access site in compiled bytecode (stale record?)", hcid, d.Site)
				}
			default:
				row[j] = ref.ord
				if si := ref.info; err == nil && (si.Kind != d.Kind || si.Name != d.Name) {
					err = fmt.Errorf("ric: HCID %d dependent %s: record says %s %q, bytecode has %s %q (stale record?)",
						hcid, d.Site, d.Kind, d.Name, si.Kind, si.Name)
				}
			}
		}
	}
	if err != nil {
		return ords, err
	}
	for site := range r.SiteTOAST {
		if _, ok, inScope := known(site); inScope && !ok && !declSites[site] {
			return ords, fmt.Errorf("ric: TOAST site %s: no such access site in compiled bytecode (stale record?)", site)
		}
	}
	for site := range r.RejectedSites {
		if _, ok, inScope := known(site); inScope && !ok && !declSites[site] {
			return ords, fmt.Errorf("ric: rejected site %s: no such access site in compiled bytecode (stale record?)", site)
		}
	}
	return ords, nil
}
