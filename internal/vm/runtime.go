package vm

import (
	"math"

	"ricjs/internal/bytecode"
	"ricjs/internal/ic"
	"ricjs/internal/objects"
	"ricjs/internal/profiler"
	"ricjs/internal/source"
	"ricjs/internal/symtab"
	"ricjs/internal/trace"
)

// missBurnWork sizes the simulated runtime work per abstract instruction
// charged during IC miss handling. V8's miss path — a call into the C++
// runtime, a megamorphic lookup, handler compilation — costs microseconds,
// orders of magnitude above its inline fast path; this interpreter's
// natural miss path is only modestly dearer than its fast path, so wall
// -clock measurements (the paper's Figure 9) would understate the effect
// the instruction counts (Figure 8) capture. The burn loop performs real,
// optimizer-proof work proportional to the charged miss instructions,
// restoring the cost ratio. DESIGN.md documents this substitution.
const missBurnWork = 3

// burn performs n rounds of deterministic mixing whose result feeds a
// VM-visible sink, so the compiler cannot elide it.
func (vm *VM) burn(n uint64) {
	h := vm.burnSink
	for i := uint64(0); i < n; i++ {
		h = h*0x9E3779B97F4A7C15 + i
		h ^= h >> 29
	}
	vm.burnSink = h
}

// classifyMiss labels an IC miss for the Table 4 breakdown. Without hooks
// (Initial or Conventional runs), global-object misses are still labelled
// so the Initial run's statistics are interpretable.
func (vm *VM) classifyMiss(si *ic.SiteInfo, receiver *objects.Object) profiler.MissKind {
	isGlobal := receiver == vm.global
	if vm.hooks != nil {
		return vm.hooks.ClassifyMiss(si.Site(), isGlobal)
	}
	if isGlobal {
		return profiler.MissGlobal
	}
	return profiler.MissOther
}

// notifyHC reports a hidden-class creation to the profiler and the RIC
// hooks. Zero creators (keyed stores) are not announceable: they have no
// context-independent identity.
func (vm *VM) notifyHC(creator objects.Creator, incoming, outgoing *objects.HiddenClass) {
	vm.Prof.HCCreated()
	vm.Prof.Charge(profiler.CostHCTransition)
	if vm.tr != nil {
		vm.tr.Emit(trace.EvHCCreated, creator.Site, creator.Builtin, 0)
	}
	if vm.hooks != nil && !creator.IsZero() {
		vm.hooks.OnHCCreated(creator, incoming, outgoing)
	}
}

// observeSite reports a slot-mediated access to the configured site
// observer: the receiver's hidden class is exactly what the feedback slot
// could cache for this access. Like emit, it inlines to one nil check and
// builds the site only past it, in reportSite.
func (vm *VM) observeSite(slot *ic.Slot, o *objects.Object) {
	if vm.siteObs != nil {
		vm.reportSite(slot, o)
	}
}

func (vm *VM) reportSite(slot *ic.Slot, o *objects.Object) {
	vm.siteObs(slot.Site(), slot.Kind, o.HC())
}

// ---- Named loads ----

// loadNamed performs obj.name through the inline cache: fast path on a
// hidden-class match, runtime miss handling otherwise (paper §2.3). The
// property identity comes from the slot (Name and its interned NameID),
// so the hot path never touches the string form.
func (vm *VM) loadNamed(objVal objects.Value, slot *ic.Slot) (objects.Value, error) {
	switch objVal.Kind() {
	case objects.KindString:
		return vm.stringProperty(objVal.Str(), slot.Name), nil
	case objects.KindNumber, objects.KindBool:
		vm.Prof.Charge(profiler.CostGenericAccess)
		return objects.Undefined(), nil
	case objects.KindObject:
		// fall through
	default:
		return objects.Undefined(), throwf("cannot read property %q of %s", slot.Name, objVal.ToString())
	}
	o := objVal.Obj()

	if o.IsDictionary() {
		vm.Prof.Charge(profiler.CostGenericAccess)
		v, _ := o.GetNamed(slot.Name)
		return v, nil
	}
	vm.observeSite(slot, o)
	if slot.State == ic.Megamorphic {
		// Megamorphic accesses go through a generic stub: no runtime call,
		// so no miss is recorded, but the access is slower than a
		// monomorphic hit.
		vm.Prof.Hit(ic.MaxPolymorphic, false)
		vm.emit(trace.EvICHit, slot.SiteInfo, slot.Name, int64(ic.MaxPolymorphic))
		vm.Prof.Charge(profiler.CostGenericAccess)
		v, _ := o.GetNamedID(slot.NameID, slot.Name)
		return v, nil
	}
	hc := o.HC()
	if e, idx := slot.Find(hc); e != nil {
		if e.Fast == ic.FastLoadField && !e.Preloaded {
			// Denormalized hit: one byte compare and a direct field read.
			// Field handlers carry no validity condition beyond the
			// hidden-class match, so the staleness check is skipped.
			vm.Prof.Hit(idx, false)
			vm.emit(trace.EvICHit, slot.SiteInfo, slot.Name, int64(idx))
			return o.Slot(int(e.FastOffset)), nil
		}
		if vm.staleProtoHandler(e.H) {
			// A prototype in some chain changed shape since this handler
			// was generated; evict it and take the miss path, which will
			// re-resolve the property (V8's validity-cell behaviour).
			slot.Remove(hc)
		} else {
			vm.Prof.Hit(idx, e.Preloaded)
			vm.emit(hitEvent(e.Preloaded), slot.SiteInfo, slot.Name, int64(idx))
			if e.Preloaded {
				// A preloaded entry averts exactly one miss: its first
				// access.
				e.Preloaded = false
			}
			if e.Fast == ic.FastLoadArrayLength {
				return objects.Num(float64(o.Len())), nil
			}
			return vm.runLoadHandler(e.H, o, slot.Name), nil
		}
	}

	// IC miss: enter the runtime (paper §2.4). The miss bookkeeping is
	// sequenced explicitly rather than deferred: a defer anywhere in this
	// function would make every hit-path return walk the runtime's defer
	// chain, which dominates the cost of a monomorphic hit.
	kind := vm.classifyMiss(slot.SiteInfo, o)
	vm.Prof.Miss(kind)
	vm.emit(missEvent(kind), slot.SiteInfo, slot.Name, 0)
	vm.Prof.BeginICMiss()
	missStart := vm.Prof.ICMissInstrCount()
	vm.Prof.Charge(profiler.CostMissEntry)

	incoming := o.HC()
	handler, value := vm.resolveLoad(o, slot.NameID, slot.Name, slot.SiteInfo)

	ci := handler.ContextIndependent()
	vm.Prof.HandlerMade(ci)
	vm.emit(handlerEvent(ci), slot.SiteInfo, slot.Name, 0)
	vm.Prof.Charge(profiler.CostHandlerGen)
	slot.Add(incoming, handler)
	if slot.State == ic.Megamorphic {
		vm.emit(trace.EvMegamorphic, slot.SiteInfo, slot.Name, 0)
	}
	vm.Prof.Charge(profiler.CostVectorUpdate)
	vm.burn((vm.Prof.ICMissInstrCount() - missStart) * missBurnWork)
	vm.Prof.EndICMiss()
	return value, nil
}

// resolveLoad performs a generic named load and generates the handler the
// runtime would install for it (the paper's §2.4 runtime work). Shared by
// the named and keyed miss paths; id must be name's interned symbol.
func (vm *VM) resolveLoad(o *objects.Object, id symtab.ID, name string, si *ic.SiteInfo) (ic.Handler, objects.Value) {
	switch {
	case o.IsArray() && id == symtab.SymLength:
		return ic.LoadArrayLength{}, objects.Num(float64(o.Len()))
	case o.Func() != nil && id == symtab.SymPrototype:
		// Lazily materialize the function's prototype object; first access
		// transitions the function object's hidden class, making this a
		// triggering site.
		protoObj := vm.functionPrototype(o, objects.Creator{Site: si.Site()})
		off, _ := o.OwnOffsetID(symtab.SymPrototype)
		return ic.LoadField{Offset: off}, objects.Obj(protoObj)
	default:
		holder, off, ok, steps := o.LookupID(id, name)
		vm.Prof.Charge(uint64(steps) * profiler.CostLookupStep)
		switch {
		case !ok:
			return ic.LoadMissing{Name: name, Epoch: vm.Space.ProtoEpoch()}, objects.Undefined()
		case holder == o:
			return ic.LoadField{Offset: off}, o.Slot(off)
		default:
			h := ic.LoadFromPrototype{
				Holder: holder, Name: name, Offset: off,
				Epoch: vm.Space.ProtoEpoch(),
			}
			if off >= 0 {
				return h, holder.Slot(off)
			}
			v, _ := holder.GetNamed(name)
			return h, v
		}
	}
}

// staleProtoHandler reports whether a cached handler's validity depended
// on prototype-chain shapes that have since changed.
func (vm *VM) staleProtoHandler(h ic.Handler) bool {
	switch t := h.(type) {
	case ic.LoadFromPrototype:
		return t.Epoch != vm.Space.ProtoEpoch()
	case ic.LoadMissing:
		return t.Epoch != vm.Space.ProtoEpoch()
	case ic.KeyedNamed:
		return vm.staleProtoHandler(t.Inner)
	default:
		return false
	}
}

// runLoadHandler executes a cached load handler on a receiver whose hidden
// class matched the cache entry.
func (vm *VM) runLoadHandler(h ic.Handler, o *objects.Object, name string) objects.Value {
	switch t := h.(type) {
	case ic.LoadField:
		return o.Slot(t.Offset)
	case ic.LoadArrayLength:
		return objects.Num(float64(o.Len()))
	case ic.LoadFromPrototype:
		holder := t.Holder
		if t.Offset >= 0 && !holder.IsDictionary() && t.Offset < holder.HC().NumFields() {
			return holder.Slot(t.Offset)
		}
		v, _ := holder.GetNamed(t.Name)
		return v
	case ic.LoadMissing:
		return objects.Undefined()
	default:
		// A store handler in a load slot would be a VM bug.
		v, _ := o.GetNamed(name)
		return v
	}
}

// ---- Named stores ----

// storeNamed performs obj.name = v through the inline cache. Like
// loadNamed, the property identity comes from the slot.
func (vm *VM) storeNamed(objVal objects.Value, v objects.Value, slot *ic.Slot) error {
	switch objVal.Kind() {
	case objects.KindString, objects.KindNumber, objects.KindBool:
		// Property writes on primitives are silently dropped (sloppy mode).
		vm.Prof.Charge(profiler.CostGenericAccess)
		return nil
	case objects.KindObject:
		// fall through
	default:
		return throwf("cannot set property %q of %s", slot.Name, objVal.ToString())
	}
	o := objVal.Obj()

	if o.IsArray() && slot.NameID == symtab.SymLength {
		vm.Prof.Charge(profiler.CostGenericAccess)
		o.SetLen(int(v.ToNumber()))
		return nil
	}
	if o.IsDictionary() {
		vm.Prof.Charge(profiler.CostGenericAccess)
		o.SetNamed(vm.Space, slot.Name, v, objects.Creator{})
		vm.observeStore(o)
		return nil
	}

	vm.observeSite(slot, o)
	if slot.State == ic.Megamorphic {
		vm.Prof.Hit(ic.MaxPolymorphic, false)
		vm.emit(trace.EvICHit, slot.SiteInfo, slot.Name, int64(ic.MaxPolymorphic))
		vm.Prof.Charge(profiler.CostGenericAccess)
		vm.genericStore(o, slot.Name, v, slot)
		return nil
	}
	if e, idx := slot.Find(o.HC()); e != nil {
		if e.Fast == ic.FastStoreField && !e.Preloaded {
			// Denormalized hit: one byte compare and a direct field write.
			vm.Prof.Hit(idx, false)
			vm.emit(trace.EvICHit, slot.SiteInfo, slot.Name, int64(idx))
			o.SetSlot(int(e.FastOffset), v)
			vm.observeStore(o)
			vm.maybeInvalidateCtorHCID(o, slot.NameID)
			return nil
		}
		vm.Prof.Hit(idx, e.Preloaded)
		vm.emit(hitEvent(e.Preloaded), slot.SiteInfo, slot.Name, int64(idx))
		if e.Preloaded {
			e.Preloaded = false
		}
		vm.runStoreHandler(e.H, o, slot.Name, v)
		vm.maybeInvalidateCtorHCID(o, slot.NameID)
		return nil
	}

	// IC miss.
	kind := vm.classifyMiss(slot.SiteInfo, o)
	vm.Prof.Miss(kind)
	vm.emit(missEvent(kind), slot.SiteInfo, slot.Name, 0)
	vm.Prof.BeginICMiss()
	missStart := vm.Prof.ICMissInstrCount()
	vm.Prof.Charge(profiler.CostMissEntry)

	incoming := o.HC()
	handler := vm.resolveStore(o, slot.NameID, slot.Name, v, slot.SiteInfo)

	ci := handler.ContextIndependent()
	vm.Prof.HandlerMade(ci)
	vm.emit(handlerEvent(ci), slot.SiteInfo, slot.Name, 0)
	vm.Prof.Charge(profiler.CostHandlerGen)
	slot.Add(incoming, handler)
	if slot.State == ic.Megamorphic {
		vm.emit(trace.EvMegamorphic, slot.SiteInfo, slot.Name, 0)
	}
	vm.Prof.Charge(profiler.CostVectorUpdate)
	vm.burn((vm.Prof.ICMissInstrCount() - missStart) * missBurnWork)
	vm.Prof.EndICMiss()

	vm.maybeInvalidateCtorHCID(o, slot.NameID)
	return nil
}

// observeStore reports a completed named store (or transition) to the
// differential store observer, with the receiver in its post-store state.
func (vm *VM) observeStore(o *objects.Object) {
	if vm.storeObs != nil {
		vm.storeObs(o)
	}
}

// resolveStore performs a generic named store and generates the handler
// the runtime would install for it. Shared by the named and keyed miss
// paths. A new-property store transitions the hidden class and announces
// the triggering event.
func (vm *VM) resolveStore(o *objects.Object, id symtab.ID, name string, v objects.Value, si *ic.SiteInfo) ic.Handler {
	incoming := o.HC()
	if off, ok := o.OwnOffsetID(id); ok {
		vm.Prof.Charge(uint64(off+1) * profiler.CostLookupStep)
		o.SetSlot(off, v)
		vm.observeStore(o)
		return ic.StoreField{Offset: off}
	}
	vm.Prof.Charge(uint64(max(1, incoming.NumFields())) * profiler.CostLookupStep)
	creator := objects.Creator{Site: si.Site(), Global: o == vm.global}
	next, created := o.AddOwnID(vm.Space, id, name, v, creator)
	vm.observeStore(o)
	if created {
		vm.notifyHC(next.Creator(), incoming, next)
	}
	return ic.StoreTransition{Next: next, Offset: next.NumFields() - 1}
}

// runStoreHandler executes a cached store handler.
func (vm *VM) runStoreHandler(h ic.Handler, o *objects.Object, name string, v objects.Value) {
	switch t := h.(type) {
	case ic.StoreField:
		o.SetSlot(t.Offset, v)
		vm.observeStore(o)
	case ic.StoreTransition:
		o.ApplyTransition(t.Next, v)
		vm.observeStore(o)
	default:
		vm.genericStore(o, name, v, nil)
	}
}

// genericStore performs a store without caching; transitions it creates
// are still announced (they are triggering events regardless of how the
// store reached the runtime).
func (vm *VM) genericStore(o *objects.Object, name string, v objects.Value, slot *ic.Slot) {
	creator := objects.Creator{Global: o == vm.global}
	if slot != nil {
		creator.Site = slot.Site()
	}
	incoming := o.HC()
	next, created := o.SetNamed(vm.Space, name, v, creator)
	vm.observeStore(o)
	if created {
		vm.notifyHC(next.Creator(), incoming, next)
	}
	vm.maybeInvalidateCtorHC(o, name)
}

// maybeInvalidateCtorHC drops a function's cached constructor hidden class
// when its prototype property is reassigned, so the next `new` rebuilds it
// against the new prototype (paper Figure 2's Constructor HC).
func (vm *VM) maybeInvalidateCtorHC(o *objects.Object, name string) {
	if name == "prototype" {
		if fd := o.Func(); fd != nil {
			fd.CtorHC = nil
		}
	}
}

// maybeInvalidateCtorHCID is maybeInvalidateCtorHC for paths that already
// hold the property's symbol: the store hit path uses it so the check is
// one integer compare.
func (vm *VM) maybeInvalidateCtorHCID(o *objects.Object, id symtab.ID) {
	if id == symtab.SymPrototype {
		if fd := o.Func(); fd != nil {
			fd.CtorHC = nil
		}
	}
}

// declGlobal implements toplevel `var`: define the global as undefined if
// absent. The transition is flagged Global and keyed to the variable name,
// which is context-independent if each global is declared once.
func (vm *VM) declGlobal(id symtab.ID, name string) {
	if _, ok := vm.global.OwnOffsetID(id); ok {
		vm.Prof.Charge(profiler.CostLookupStep)
		return
	}
	if vm.global.IsDictionary() {
		if _, found, _ := vm.global.GetOwn(name); found {
			return
		}
	}
	vm.Prof.Charge(profiler.CostGenericAccess)
	incoming := vm.global.HC()
	next, created := vm.global.AddOwnID(vm.Space, id, name, objects.Undefined(),
		objects.Creator{Builtin: "global:" + name, Global: true})
	vm.observeStore(vm.global)
	if created {
		vm.notifyHC(next.Creator(), incoming, next)
	}
}

// ---- Keyed access ----

// loadKeyed performs obj[key] through the keyed inline cache, modelling
// V8's KeyedLoadIC: array-index accesses cache a LoadElement handler;
// string-keyed accesses cache a name-checked named handler; a site that
// sees varying names over one hidden class goes megamorphic.
func (vm *VM) loadKeyed(objVal, key objects.Value, slot *ic.Slot) (objects.Value, error) {
	if objVal.IsString() {
		vm.Prof.Charge(profiler.CostGenericAccess)
		s := objVal.Str()
		if key.IsNumber() {
			i := int(key.Num())
			if i >= 0 && i < len(s) {
				return objects.Str(s[i : i+1]), nil
			}
			return objects.Undefined(), nil
		}
		return vm.stringProperty(s, key.ToString()), nil
	}
	o := objVal.Obj()
	if o == nil {
		if objVal.IsNullish() {
			return objects.Undefined(), throwf("cannot read property [%s] of %s", key.ToString(), objVal.ToString())
		}
		vm.Prof.Charge(profiler.CostGenericAccess)
		return objects.Undefined(), nil // number/bool receivers
	}
	if o.IsDictionary() {
		vm.Prof.Charge(profiler.CostGenericAccess)
		return vm.genericKeyedLoad(o, key), nil
	}
	vm.observeSite(slot, o)
	if slot.State == ic.Megamorphic {
		vm.Prof.Hit(ic.MaxPolymorphic, false)
		vm.emit(trace.EvICHit, slot.SiteInfo, slot.Name, int64(ic.MaxPolymorphic))
		vm.Prof.Charge(profiler.CostGenericAccess)
		return vm.genericKeyedLoad(o, key), nil
	}

	idx, isIndex := arrayIndex(key)
	elementAccess := isIndex && o.IsArray()

	if e, found, pos := slot.Lookup(o.HC()); found {
		switch h := e.H.(type) {
		case ic.LoadElement:
			if elementAccess {
				vm.Prof.Hit(pos, e.Preloaded)
				vm.emit(hitEvent(e.Preloaded), slot.SiteInfo, slot.Name, int64(pos))
				if e.Preloaded {
					slot.Entries[pos].Preloaded = false
				}
				return o.Elem(idx), nil
			}
		case ic.KeyedNamed:
			if !elementAccess && h.Name == key.ToString() && !vm.staleProtoHandler(h.Inner) {
				vm.Prof.Hit(pos, e.Preloaded)
				vm.emit(hitEvent(e.Preloaded), slot.SiteInfo, h.Name, int64(pos))
				if e.Preloaded {
					slot.Entries[pos].Preloaded = false
				}
				return vm.runLoadHandler(h.Inner, o, h.Name), nil
			}
		}
		// Same hidden class, different key flavour or name: per-entry
		// caching cannot discriminate further; go megamorphic.
		kind := vm.classifyMiss(slot.SiteInfo, o)
		vm.Prof.Miss(kind)
		vm.emit(missEvent(kind), slot.SiteInfo, slot.Name, 0)
		vm.Prof.BeginICMiss()
		vm.Prof.Charge(profiler.CostMissEntry + profiler.CostGenericAccess)
		slot.ForceMegamorphic()
		vm.emit(trace.EvMegamorphic, slot.SiteInfo, slot.Name, 0)
		vm.Prof.EndICMiss()
		return vm.genericKeyedLoad(o, key), nil
	}

	// Keyed IC miss.
	kind := vm.classifyMiss(slot.SiteInfo, o)
	vm.Prof.Miss(kind)
	vm.emit(missEvent(kind), slot.SiteInfo, slot.Name, 0)
	vm.Prof.BeginICMiss()
	missStart := vm.Prof.ICMissInstrCount()
	vm.Prof.Charge(profiler.CostMissEntry)
	incoming := o.HC()

	var handler ic.Handler
	var value objects.Value
	if elementAccess {
		handler = ic.LoadElement{}
		value = o.Elem(idx)
	} else {
		name := key.ToString()
		nameID := symtab.Intern(name)
		inner, v := vm.resolveLoad(o, nameID, name, slot.SiteInfo)
		handler = ic.KeyedNamed{Name: name, NameID: nameID, Inner: inner}
		value = v
	}
	ci := handler.ContextIndependent()
	vm.Prof.HandlerMade(ci)
	vm.emit(handlerEvent(ci), slot.SiteInfo, slot.Name, 0)
	vm.Prof.Charge(profiler.CostHandlerGen)
	slot.Add(incoming, handler)
	if slot.State == ic.Megamorphic {
		vm.emit(trace.EvMegamorphic, slot.SiteInfo, slot.Name, 0)
	}
	vm.Prof.Charge(profiler.CostVectorUpdate)
	vm.burn((vm.Prof.ICMissInstrCount() - missStart) * missBurnWork)
	vm.Prof.EndICMiss()
	return value, nil
}

// genericKeyedLoad is the uncached keyed read.
func (vm *VM) genericKeyedLoad(o *objects.Object, key objects.Value) objects.Value {
	if idx, ok := arrayIndex(key); ok && o.IsArray() {
		return o.Elem(idx)
	}
	if o.IsArray() && key.ToString() == "length" {
		return objects.Num(float64(o.Len()))
	}
	v, _ := o.GetNamed(key.ToString())
	return v
}

// storeKeyed performs obj[key] = v through the keyed inline cache.
func (vm *VM) storeKeyed(objVal, key, v objects.Value, slot *ic.Slot) error {
	o := objVal.Obj()
	if o == nil {
		if objVal.IsNullish() {
			return throwf("cannot set property [%s] of %s", key.ToString(), objVal.ToString())
		}
		vm.Prof.Charge(profiler.CostGenericAccess)
		return nil // primitive receiver: dropped
	}
	idx, isIndex := arrayIndex(key)
	elementAccess := isIndex && o.IsArray()
	if o.IsArray() && !elementAccess && key.ToString() == "length" {
		vm.Prof.Charge(profiler.CostGenericAccess)
		o.SetLen(int(v.ToNumber()))
		return nil
	}
	if o.IsDictionary() {
		vm.Prof.Charge(profiler.CostGenericAccess)
		vm.genericKeyedStore(o, key, v)
		return nil
	}
	vm.observeSite(slot, o)
	if slot.State == ic.Megamorphic {
		vm.Prof.Hit(ic.MaxPolymorphic, false)
		vm.emit(trace.EvICHit, slot.SiteInfo, slot.Name, int64(ic.MaxPolymorphic))
		vm.Prof.Charge(profiler.CostGenericAccess)
		vm.genericKeyedStore(o, key, v)
		return nil
	}

	if e, found, pos := slot.Lookup(o.HC()); found {
		switch h := e.H.(type) {
		case ic.StoreElement:
			if elementAccess {
				vm.Prof.Hit(pos, e.Preloaded)
				vm.emit(hitEvent(e.Preloaded), slot.SiteInfo, slot.Name, int64(pos))
				if e.Preloaded {
					slot.Entries[pos].Preloaded = false
				}
				o.SetElem(idx, v)
				return nil
			}
		case ic.KeyedNamed:
			if !elementAccess && h.Name == key.ToString() {
				vm.Prof.Hit(pos, e.Preloaded)
				vm.emit(hitEvent(e.Preloaded), slot.SiteInfo, h.Name, int64(pos))
				if e.Preloaded {
					slot.Entries[pos].Preloaded = false
				}
				vm.runStoreHandler(h.Inner, o, h.Name, v)
				vm.maybeInvalidateCtorHC(o, h.Name)
				return nil
			}
		}
		kind := vm.classifyMiss(slot.SiteInfo, o)
		vm.Prof.Miss(kind)
		vm.emit(missEvent(kind), slot.SiteInfo, slot.Name, 0)
		vm.Prof.BeginICMiss()
		vm.Prof.Charge(profiler.CostMissEntry + profiler.CostGenericAccess)
		slot.ForceMegamorphic()
		vm.emit(trace.EvMegamorphic, slot.SiteInfo, slot.Name, 0)
		vm.Prof.EndICMiss()
		vm.genericKeyedStore(o, key, v)
		return nil
	}

	// Keyed IC miss.
	kind := vm.classifyMiss(slot.SiteInfo, o)
	vm.Prof.Miss(kind)
	vm.emit(missEvent(kind), slot.SiteInfo, slot.Name, 0)
	vm.Prof.BeginICMiss()
	missStart := vm.Prof.ICMissInstrCount()
	vm.Prof.Charge(profiler.CostMissEntry)
	incoming := o.HC()

	var handler ic.Handler
	if elementAccess {
		handler = ic.StoreElement{}
		o.SetElem(idx, v)
	} else {
		name := key.ToString()
		nameID := symtab.Intern(name)
		inner := vm.resolveStore(o, nameID, name, v, slot.SiteInfo)
		handler = ic.KeyedNamed{Name: name, NameID: nameID, Inner: inner}
		vm.maybeInvalidateCtorHCID(o, nameID)
	}
	ci := handler.ContextIndependent()
	vm.Prof.HandlerMade(ci)
	vm.emit(handlerEvent(ci), slot.SiteInfo, slot.Name, 0)
	vm.Prof.Charge(profiler.CostHandlerGen)
	slot.Add(incoming, handler)
	if slot.State == ic.Megamorphic {
		vm.emit(trace.EvMegamorphic, slot.SiteInfo, slot.Name, 0)
	}
	vm.Prof.Charge(profiler.CostVectorUpdate)
	vm.burn((vm.Prof.ICMissInstrCount() - missStart) * missBurnWork)
	vm.Prof.EndICMiss()
	return nil
}

// genericKeyedStore is the uncached keyed write.
func (vm *VM) genericKeyedStore(o *objects.Object, key, v objects.Value) {
	if idx, ok := arrayIndex(key); ok && o.IsArray() {
		o.SetElem(idx, v)
		return
	}
	vm.genericStore(o, key.ToString(), v, nil)
}

// arrayIndex reports whether a key is a valid dense array index.
func arrayIndex(key objects.Value) (int, bool) {
	var f float64
	switch key.Kind() {
	case objects.KindNumber:
		f = key.Num()
	case objects.KindString:
		f = key.ToNumber()
		if math.IsNaN(f) {
			return 0, false
		}
	default:
		return 0, false
	}
	i := int(f)
	if float64(i) != f || i < 0 {
		return 0, false
	}
	return i, true
}

// deleteNamed implements the delete operator.
func (vm *VM) deleteNamed(objVal objects.Value, name string) (bool, error) {
	vm.Prof.Charge(profiler.CostGenericAccess)
	o := objVal.Obj()
	if o == nil {
		if objVal.IsNullish() {
			return false, throwf("cannot delete property %q of %s", name, objVal.ToString())
		}
		return true, nil
	}
	return o.Delete(vm.Space, name), nil
}

// hasProperty implements the `in` operator.
func (vm *VM) hasProperty(objVal, key objects.Value) (bool, error) {
	vm.Prof.Charge(profiler.CostGenericAccess)
	o := objVal.Obj()
	if o == nil {
		return false, throwf("'in' requires an object, got %s", objVal.ToString())
	}
	if idx, ok := arrayIndex(key); ok && o.IsArray() {
		return idx < o.Len(), nil
	}
	_, _, found, _ := o.Lookup(key.ToString())
	return found, nil
}

// instanceOf implements the instanceof operator.
func (vm *VM) instanceOf(objVal, ctorVal objects.Value) (bool, error) {
	vm.Prof.Charge(profiler.CostGenericAccess)
	if !ctorVal.IsCallable() {
		return false, throwf("right-hand side of instanceof is not callable")
	}
	protoVal, _ := ctorVal.Obj().GetNamed("prototype")
	proto := protoVal.Obj()
	if proto == nil {
		return false, nil
	}
	o := objVal.Obj()
	if o == nil {
		return false, nil
	}
	for p := o.Proto(); p != nil; p = p.Proto() {
		if p == proto {
			return true, nil
		}
	}
	return false, nil
}

// ---- Construction ----

// construct implements `new ctor(args)` (paper §2.2 and Figure 2): the
// first construction creates the function's Constructor Hidden Class,
// keyed to the function's declaration site, and announces it as a
// triggering event.
func (vm *VM) construct(ctorVal objects.Value, args []objects.Value) (objects.Value, error) {
	if !ctorVal.IsCallable() {
		return objects.Undefined(), throwf("%s is not a constructor", ctorVal.ToString())
	}
	fnObj := ctorVal.Obj()
	fd := fnObj.Func()
	vm.Prof.Charge(profiler.CostCall)

	if fd.Native != nil {
		// Builtin constructors (Object, Array, ...) produce their own
		// objects.
		res, err := fd.Native(vm, objects.Undefined(), args)
		if err != nil {
			return objects.Undefined(), err
		}
		if res.IsObject() {
			return res, nil
		}
		vm.Prof.Alloc()
		return objects.Obj(vm.Space.NewObject(vm.emptyObjectHC)), nil
	}

	proto := fd.Code.(*bytecode.FuncProto)
	if fd.CtorHC == nil {
		creator := objects.Creator{Site: source.Site{Script: proto.Script, Pos: proto.DeclPos}}
		protoObj := vm.functionPrototype(fnObj, creator)
		fd.CtorHC = vm.newRootHC(protoObj, creator)
		vm.notifyHC(creator, nil, fd.CtorHC)
	}
	vm.Prof.Alloc()
	obj := vm.Space.NewObject(fd.CtorHC)
	res, err := vm.runFunction(proto, fd.Ctx, objects.Obj(obj), args)
	if err != nil {
		return objects.Undefined(), err
	}
	if res.IsObject() {
		return res, nil
	}
	return objects.Obj(obj), nil
}

// functionPrototype returns the function's prototype object, creating it
// (plus the function object's hidden-class transition that holds it) on
// first use. creator attributes the transition if it is created here.
func (vm *VM) functionPrototype(fnObj *objects.Object, creator objects.Creator) *objects.Object {
	if off, ok := fnObj.OwnOffset("prototype"); ok {
		if p := fnObj.Slot(off).Obj(); p != nil {
			return p
		}
		// Non-object prototype: constructions inherit Object.prototype.
		return vm.objectProto
	}
	if fnObj.IsDictionary() {
		if v, found, _ := fnObj.GetOwn("prototype"); found {
			if p := v.Obj(); p != nil {
				return p
			}
			return vm.objectProto
		}
	}
	vm.Prof.Alloc()
	protoObj := vm.Space.NewObject(vm.fnProtoRootHC)
	pin := protoObj.HC()
	pnext, pcreated := protoObj.AddOwn(vm.Space, "constructor", objects.Obj(fnObj),
		objects.Creator{Builtin: "FunctionPrototype.constructor"})
	vm.observeStore(protoObj)
	if pcreated {
		vm.notifyHC(pnext.Creator(), pin, pnext)
	}
	fin := fnObj.HC()
	fnext, fcreated := fnObj.AddOwn(vm.Space, "prototype", objects.Obj(protoObj), creator)
	vm.observeStore(fnObj)
	if fcreated {
		vm.notifyHC(fnext.Creator(), fin, fnext)
	}
	return protoObj
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
