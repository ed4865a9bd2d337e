package ric

import (
	"ricjs/internal/ic"
	"ricjs/internal/objects"
	"ricjs/internal/profiler"
	"ricjs/internal/source"
	"ricjs/internal/symtab"
	"ricjs/internal/trace"
	"ricjs/internal/vm"
)

// Reuser is the Reuse-run half of RIC (paper §5.2.2). It implements
// vm.Hooks: on every hidden-class creation it consults the TOAST,
// incrementally validates the outgoing class when the incoming class is
// already validated (or when the creation is a rootless builtin/ctor
// event), and preloads the ICVector slots of the class's dependent sites.
//
// Validation never affects correctness: a failed validation simply means
// the affected dependent sites take ordinary IC misses, exactly as in a
// conventional run.
type Reuser struct {
	rec  *Record
	prof *profiler.Counters
	tr   *trace.Buffer
	vm   *vm.VM
	// progs mirrors the VM's registrations, each with the record's slab
	// ordinals for that program, so a dependent resolves to its slot by
	// index, with no site lookup.
	progs []progSlots

	// Runtime HCVT columns: the Reuse-run address and Validated bit per
	// HCID (the record itself stays immutable and shareable), plus the
	// live hidden class each validated row corresponds to.
	addr  []uint64
	valid []bool
	hcs   []*objects.HiddenClass
	// done[id][j] marks dependent j of HCID id as applied (preloaded or
	// permanently rejected), so ReplayPreloads after later script loads
	// only retries dependents whose sites were not yet registered.
	done [][]bool
}

var _ vm.Hooks = (*Reuser)(nil)

// NewReuser prepares the reuse state for one run. Pass it as the VM's
// hooks, then Attach it to the VM once the VM exists (see
// ricjs.NewEngine).
func NewReuser(rec *Record) *Reuser {
	return &Reuser{
		rec:   rec,
		addr:  make([]uint64, rec.HCCount),
		valid: make([]bool, rec.HCCount),
		hcs:   make([]*objects.HiddenClass, rec.HCCount),
		done:  make([][]bool, rec.HCCount),
	}
}

// ValidatedClass returns the live hidden class validated for HCID id in
// this run, or nil when the row is out of range or not validated. Tests
// use it to map a record's rows back to the classes the run built.
func (r *Reuser) ValidatedClass(id int32) *objects.HiddenClass {
	if id < 0 || int(id) >= len(r.hcs) {
		return nil
	}
	return r.hcs[id]
}

// progSlots is one registered program as the reuser sees it: the slot
// slab the VM registered it as, and the record's ordinals into that slab
// (verdict.ords).
type progSlots struct {
	slab []ic.Slot
	ords [][]int32
}

// Attach completes the circular wiring between a VM and its Reuser: the
// Reuser is passed as the VM's hooks at construction, then attached to the
// VM's profiler and registered programs once the VM exists.
func (r *Reuser) Attach(v *vm.VM) {
	r.prof = v.Prof
	r.tr = v.Trace()
	r.vm = v
}

// syncPrograms picks up programs the VM registered since the last call.
// Their ordinals come from the record's validation memo, which already
// holds them when the engine validated the program before loading it.
func (r *Reuser) syncPrograms() {
	if r.vm == nil {
		return
	}
	regs := r.vm.Registrations()
	for _, reg := range regs[len(r.progs):] {
		r.progs = append(r.progs, progSlots{slab: reg.Slab, ords: r.rec.verdictFor(reg.Prog).ords})
	}
}

// slotFor returns the live slot of dependent j of HCID id, or nil when no
// registered program has its site. A later registration of a site
// shadows an earlier one.
func (r *Reuser) slotFor(id int32, j int) *ic.Slot {
	for i := len(r.progs) - 1; i >= 0; i-- {
		p := &r.progs[i]
		if o := p.ords[id][j]; o >= 0 {
			return &p.slab[o]
		}
	}
	return nil
}

// emit forwards a reuse-pipeline event to the attached trace buffer, if
// any. The nil check keeps the disabled cost to a single branch, exactly
// as in vm.VM.emit.
func (r *Reuser) emit(t trace.Type, site source.Site, name string, n int64) {
	if r.tr != nil {
		r.tr.Emit(t, site, name, n)
	}
}

// Validated reports whether an HCID has been validated in this run (for
// tests and diagnostics).
func (r *Reuser) Validated(id int32) bool {
	return id >= 0 && int(id) < len(r.valid) && r.valid[id]
}

// ValidatedCount returns the number of validated hidden classes.
func (r *Reuser) ValidatedCount() int {
	n := 0
	for _, v := range r.valid {
		if v {
			n++
		}
	}
	return n
}

// OnHCCreated implements vm.Hooks. creator identifies the triggering event;
// incoming is nil for rootless creations (builtins, constructor hidden
// classes, Object.create roots).
func (r *Reuser) OnHCCreated(creator objects.Creator, incoming, outgoing *objects.HiddenClass) {
	if creator.Global && !r.rec.IncludesGlobals {
		return
	}
	if creator.IsBuiltin() {
		if id, ok := r.rec.BuiltinID(creator.Builtin); ok {
			r.validate(creator, id, outgoing)
		}
		// Builtins absent from the record are not failures: the record may
		// simply predate them (e.g. a different script set).
		return
	}

	pairs, ok := r.rec.SiteTOAST[creator.Site]
	if !ok {
		// The Initial run never saw this site create a class: the Reuse
		// run diverged here (paper Figure 7(e)).
		if r.prof != nil {
			r.prof.ValidateFail()
		}
		r.emit(trace.EvValidateFail, creator.Site, creator.Builtin, 0)
		return
	}
	for _, p := range pairs {
		if p.In < 0 {
			if incoming == nil {
				r.validate(creator, p.Out, outgoing)
				return
			}
			continue
		}
		if incoming != nil && r.valid[p.In] && r.addr[p.In] == incoming.Addr() {
			r.validate(creator, p.Out, outgoing)
			return
		}
	}
	// No pair matched the incoming class: divergence; the outgoing class
	// cannot be certified and its dependents will miss normally.
	if r.prof != nil {
		r.prof.ValidateFail()
	}
	r.emit(trace.EvValidateFail, creator.Site, creator.Builtin, 0)
}

// validate certifies that a Reuse-run hidden class corresponds to an
// Initial-run HCID, then preloads every dependent site recorded for it.
// creator is the triggering event, carried only for trace identity.
func (r *Reuser) validate(creator objects.Creator, id int32, hc *objects.HiddenClass) {
	if id < 0 || int(id) >= len(r.valid) {
		return
	}
	r.addr[id] = hc.Addr()
	r.valid[id] = true
	r.hcs[id] = hc
	if r.prof != nil {
		r.prof.Validate()
	}
	r.emit(trace.EvValidatePass, creator.Site, creator.Builtin, int64(id))
	r.preloadDeps(id, hc)
}

// preloadDeps fills the ICVector slots of an HCID's dependent sites.
func (r *Reuser) preloadDeps(id int32, hc *objects.HiddenClass) {
	deps := r.rec.Deps[id]
	if len(deps) == 0 {
		return
	}
	if r.done[id] == nil {
		r.done[id] = make([]bool, len(deps))
	}
	r.syncPrograms()
	preloaded := 0
	for j, dep := range deps {
		if r.done[id][j] {
			continue
		}
		slot := r.slotFor(id, j)
		if slot == nil {
			// The site's script is not loaded (yet) in this run;
			// ReplayPreloads retries after later script loads.
			continue
		}
		if slot.Kind != dep.Kind || slot.NameID != dep.NameID {
			// The live site accesses a different property (or through a
			// different access kind) than the record saw: the record is
			// from a different program version. Never preload.
			r.done[id][j] = true
			r.emit(trace.EvPreloadRejected, dep.Site, dep.Name, int64(id))
			continue
		}
		h, err := dep.Desc.Rebuild()
		if err != nil || !handlerFits(h, slot, hc) {
			// Defensive: a corrupt or mismatched record must degrade to
			// conventional behaviour, never to a wrong preload.
			r.done[id][j] = true
			r.emit(trace.EvPreloadRejected, dep.Site, dep.Name, int64(id))
			continue
		}
		r.done[id][j] = true
		if slot.Preload(hc, h) {
			preloaded++
			r.emit(trace.EvPreloadApplied, dep.Site, dep.Name, int64(id))
		} else {
			r.emit(trace.EvPreloadRejected, dep.Site, dep.Name, int64(id))
		}
	}
	if preloaded > 0 && r.prof != nil {
		r.prof.Preload(preloaded)
	}
}

// ReplayPreloads retries dependent-site preloading for every validated
// hidden class. Call it after registering a new script's ICVectors:
// hidden classes validated earlier (builtins at startup, classes created
// by previously loaded scripts) may have dependents in the new script.
func (r *Reuser) ReplayPreloads() {
	for id, ok := range r.valid {
		if ok {
			r.preloadDeps(int32(id), r.hcs[id])
		}
	}
}

// handlerFits verifies a rebuilt handler semantically against the live
// slot and hidden class it is being preloaded for. A record passes the
// checksum and shape checks even when its *contents* lie — e.g. a
// hidden-class ID remapped by a fault so a LoadField offset of one class
// lands on another. Bounds checks alone would accept such a handler and
// silently read the wrong field, so instead every claim the handler makes
// is recomputed from the live hidden class: field handlers must name a
// property the class actually stores at exactly that offset, and
// element/length handlers must target a class descended from the Array
// root. A handler that passes is correct for this class no matter what
// the record said.
func handlerFits(h ic.Handler, slot *ic.Slot, hc *objects.HiddenClass) bool {
	switch t := h.(type) {
	case ic.LoadField:
		if slot.Kind.IsStore() || slot.Kind.IsKeyed() {
			return false
		}
		off, ok := hc.OffsetID(slot.NameID)
		return ok && off == t.Offset
	case ic.StoreField:
		if !slot.Kind.IsStore() || slot.Kind.IsKeyed() {
			return false
		}
		off, ok := hc.OffsetID(slot.NameID)
		return ok && off == t.Offset
	case ic.LoadArrayLength:
		return !slot.Kind.IsStore() && !slot.Kind.IsKeyed() &&
			slot.NameID == symtab.SymLength && isArrayClass(hc)
	case ic.LoadElement:
		return slot.Kind == ic.AccessKeyedLoad && isArrayClass(hc)
	case ic.StoreElement:
		return slot.Kind == ic.AccessKeyedStore && isArrayClass(hc)
	case ic.KeyedNamed:
		switch inner := t.Inner.(type) {
		case ic.LoadField:
			if slot.Kind != ic.AccessKeyedLoad {
				return false
			}
			off, ok := hc.OffsetID(t.NameID)
			return ok && off == inner.Offset
		case ic.StoreField:
			if slot.Kind != ic.AccessKeyedStore {
				return false
			}
			off, ok := hc.OffsetID(t.NameID)
			return ok && off == inner.Offset
		case ic.LoadArrayLength:
			return slot.Kind == ic.AccessKeyedLoad && t.NameID == symtab.SymLength && isArrayClass(hc)
		default:
			return false
		}
	default:
		return false
	}
}

// isArrayClass reports whether a hidden class descends from the builtin
// Array root — the only classes whose instances carry element storage.
func isArrayClass(hc *objects.HiddenClass) bool {
	root := hc
	for root.Parent() != nil {
		root = root.Parent()
	}
	return root.Creator().Builtin == "Array"
}

// ClassifyMiss implements vm.Hooks: the Table 4 miss breakdown. Misses at
// triggering sites are "Other" (RIC does not avert them by construction,
// §7.1: "Many of these misses occur in Triggering sites"); misses at sites
// rejected for context-dependent handlers are "Handler"; global-object
// misses are "Global" while RIC-for-globals is off.
func (r *Reuser) ClassifyMiss(site source.Site, receiverIsGlobal bool) profiler.MissKind {
	if receiverIsGlobal && !r.rec.IncludesGlobals {
		return profiler.MissGlobal
	}
	if _, triggering := r.rec.SiteTOAST[site]; triggering {
		return profiler.MissOther
	}
	if r.rec.RejectedSites[site] {
		return profiler.MissHandler
	}
	return profiler.MissOther
}
