package ric

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"strings"

	"ricjs/internal/ic"
	"ricjs/internal/objects"
	"ricjs/internal/source"
	"ricjs/internal/symtab"
)

// Record wire format (all integers are unsigned/zigzag varints):
//
//	magic "RICREC" + format-version byte (currently 5)
//	label string
//	flags (bit 0: includes globals)
//	script string table (count, strings)
//	symbol table (count, strings)
//	hidden class count
//	deps: per HCID: count × (siteRef, accessKind, nameRef,
//	                         handlerKind, offset, nameRef, innerKind)
//	site TOAST: count × (siteRef, pairCount × (in+1, out))
//	builtin TOAST: count × (nameRef, id)
//	rejected sites: count × siteRef
//	typed shapes: count × (hcid, claimCount × (offset, typeTag byte))
//	CRC32-IEEE of everything above (4 bytes little-endian)
//
// A siteRef is (scriptIdx, line, col). A nameRef is a varint index into
// the record-local symbol table. Map-ordered sections are sorted so
// encoding is deterministic; the typed-shape section is sorted by hidden
// class id, then slot offset.
//
// The symbol table holds every property/builtin name the record mentions,
// each exactly once, in first-use order of the (deterministic) section
// walk. Decoding interns each table entry into the process-global symtab
// once, so a record naming a property N times costs one hash instead of N;
// the dense indices also deduplicate repeated names on disk. Process-local
// symbol IDs are never persisted — they are not stable across executions —
// only the record-local indices are.
//
// A typeTag is one objects.SlotType byte; tags outside the valid claim
// range (⊤, ⊥, or unknown values) are rejected at decode, so a record can
// never smuggle a claim the lattice cannot express.
//
// Decode accepts only the current version. Records in any other format
// are rejected as unsupported: persisted IC state is a pure cache, so the
// correct recovery is quarantine-and-regenerate, never a compatibility
// shim.
var recordTag = []byte("RICREC")

// recordVersion is the wire-format version byte.
const recordVersion = 5

// recordTrailerLen is the length of the CRC32 trailer.
const recordTrailerLen = 4

// encoder appends a record's wire form to buf. Scripts and symbols are
// numbered in first-use order of the section walk.
type encoder struct {
	buf []byte
	// scripts lists the script table; lastScript caches the index of the
	// last script looked up, since consecutive sites nearly always share
	// their script.
	scripts    []string
	lastScript int
	// syms numbers the symbol table; symNames lists it.
	syms     map[string]uint32
	symNames []string
}

func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// scriptIdx registers a script in the script table (first use assigns the
// next index) and returns its index. A record names a handful of scripts,
// so a scan beats hashing the name.
func (e *encoder) scriptIdx(s string) uint64 {
	if e.lastScript < len(e.scripts) && e.scripts[e.lastScript] == s {
		return uint64(e.lastScript)
	}
	i := slices.Index(e.scripts, s)
	if i < 0 {
		i = len(e.scripts)
		e.scripts = append(e.scripts, s)
	}
	e.lastScript = i
	return uint64(i)
}

// symIdx registers a name in the record-local symbol table (first use
// assigns the next dense index) and returns its index.
func (e *encoder) symIdx(s string) uint32 {
	if i, ok := e.syms[s]; ok {
		return i
	}
	i := uint32(len(e.symNames))
	e.syms[s] = i
	e.symNames = append(e.symNames, s)
	return i
}

func (e *encoder) site(s source.Site) {
	e.uvarint(e.scriptIdx(s.Script))
	e.uvarint(uint64(s.Pos.Line))
	e.uvarint(uint64(s.Pos.Col))
}

// sortedSites returns map keys ordered by script, line and column.
func sortedSites[V any](m map[source.Site]V) []source.Site {
	keys := make([]source.Site, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b source.Site) int {
		if a.Script != b.Script {
			return strings.Compare(a.Script, b.Script)
		}
		if a.Pos.Line != b.Pos.Line {
			return cmp.Compare(a.Pos.Line, b.Pos.Line)
		}
		return cmp.Compare(a.Pos.Col, b.Pos.Col)
	})
	return keys
}

// Encode serializes the record into a compact, deterministic byte form.
// Its length is the record's memory overhead (paper §7.3 reports 11–118 KB
// per library for V8).
//
// The script and symbol tables precede the sections that reference them,
// so a first pass walks every reference in exactly the order the body
// emission walks it: table order equals first-use order, and re-encoding
// a decoded record is byte-identical. The pass keeps each reference's
// symbol index, so the body looks no name up twice.
func (r *Record) Encode() []byte {
	siteKeys := sortedSites(r.SiteTOAST)
	rejected := sortedSites(r.RejectedSites)
	ndeps := 0
	for _, deps := range r.Deps {
		ndeps += len(deps)
	}
	e := &encoder{syms: make(map[string]uint32)}
	symRefs := make([]uint32, 0, 2*ndeps+len(r.BuiltinTOAST))
	for _, deps := range r.Deps {
		for _, d := range deps {
			e.scriptIdx(d.Site.Script)
			symRefs = append(symRefs, e.symIdx(d.Name), e.symIdx(d.Desc.Name))
		}
	}
	for _, s := range siteKeys {
		e.scriptIdx(s.Script)
	}
	for _, b := range r.BuiltinTOAST {
		symRefs = append(symRefs, e.symIdx(b.Name))
	}
	for _, s := range rejected {
		e.scriptIdx(s.Script)
	}

	// Most integers take one or two bytes; the estimate spares the
	// appends most regrowth.
	size := len(recordTag) + 1 + len(r.Script) + 16 + 12*ndeps + 10*len(siteKeys) +
		4*len(r.BuiltinTOAST) + 6*len(rejected) + recordTrailerLen
	for _, n := range e.scripts {
		size += len(n) + 1
	}
	for _, n := range e.symNames {
		size += len(n) + 1
	}
	e.buf = make([]byte, 0, size)
	e.buf = append(e.buf, recordTag...)
	e.buf = append(e.buf, recordVersion)
	e.str(r.Script)
	flags := uint64(0)
	if r.IncludesGlobals {
		flags |= 1
	}
	e.uvarint(flags)

	e.uvarint(uint64(len(e.scripts)))
	for _, n := range e.scripts {
		e.str(n)
	}

	e.uvarint(uint64(len(e.symNames)))
	for _, n := range e.symNames {
		e.str(n)
	}

	e.uvarint(uint64(r.HCCount))
	for _, deps := range r.Deps {
		e.uvarint(uint64(len(deps)))
		for _, d := range deps {
			e.site(d.Site)
			e.uvarint(uint64(d.Kind))
			e.uvarint(uint64(symRefs[0]))
			e.uvarint(uint64(d.Desc.Kind))
			e.varint(int64(d.Desc.Offset))
			e.uvarint(uint64(symRefs[1]))
			e.uvarint(uint64(d.Desc.Inner))
			symRefs = symRefs[2:]
		}
	}

	e.uvarint(uint64(len(siteKeys)))
	for _, s := range siteKeys {
		e.site(s)
		pairs := r.SiteTOAST[s]
		e.uvarint(uint64(len(pairs)))
		for _, p := range pairs {
			e.varint(int64(p.In))
			e.varint(int64(p.Out))
		}
	}

	e.uvarint(uint64(len(r.BuiltinTOAST)))
	for i, b := range r.BuiltinTOAST {
		e.uvarint(uint64(symRefs[i]))
		e.uvarint(uint64(b.ID))
	}

	e.uvarint(uint64(len(rejected)))
	for _, s := range rejected {
		e.site(s)
	}

	typedIDs := make([]int32, 0, len(r.TypedSlots))
	for id := range r.TypedSlots {
		typedIDs = append(typedIDs, id)
	}
	slices.Sort(typedIDs)
	e.uvarint(uint64(len(typedIDs)))
	for _, id := range typedIDs {
		claims := slices.Clone(r.TypedSlots[id])
		slices.SortStableFunc(claims, func(a, b SlotClaim) int { return cmp.Compare(a.Offset, b.Offset) })
		e.uvarint(uint64(id))
		e.uvarint(uint64(len(claims)))
		for _, c := range claims {
			e.uvarint(uint64(c.Offset))
			e.buf = append(e.buf, byte(c.Type))
		}
	}

	return binary.LittleEndian.AppendUint32(e.buf, crc32.ChecksumIEEE(e.buf))
}

type decoder struct {
	buf   *bytes.Reader
	names []string
	// syms/symIDs mirror the record-local symbol table: each persisted
	// name, interned into the process-global symtab exactly once at table
	// load ("" keeps the None sentinel, matching keyed sites).
	syms   []string
	symIDs []symtab.ID
}

func (d *decoder) uvarint() (uint64, error) { return binary.ReadUvarint(d.buf) }
func (d *decoder) varint() (int64, error)   { return binary.ReadVarint(d.buf) }

// bounded reads one integer — zigzag-encoded when signed, plain otherwise —
// and rejects it unless lo <= v <= hi. Every value the decoder narrows to
// a fixed-width record field is read through here, so an out-of-range wire
// integer is an error instead of a silently truncated field.
func (d *decoder) bounded(signed bool, lo, hi int64) (int64, error) {
	if signed {
		v, err := d.varint()
		if err != nil {
			return 0, err
		}
		if v < lo || v > hi {
			return 0, fmt.Errorf("ric: value %d out of range [%d, %d]", v, lo, hi)
		}
		return v, nil
	}
	u, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if u > uint64(hi) || int64(u) < lo {
		return 0, fmt.Errorf("ric: value %d out of range [%d, %d]", u, lo, hi)
	}
	return int64(u), nil
}

// minDepBytes is the shortest encoding of one HCVT dependent: nine
// integers (script, line, column, access kind, site name, handler kind,
// offset, handler name, inner kind) of at least one byte each.
const minDepBytes = 9

// plausibleCount rejects section counts that could not possibly fit in the
// remaining input (every element is at least one byte), so a corrupt count
// fails fast instead of allocating huge slices or looping pointlessly.
func (d *decoder) plausibleCount(n uint64, section string) error {
	if n > uint64(d.buf.Len()) {
		return fmt.Errorf("ric: %s: count %d exceeds remaining input", section, n)
	}
	return nil
}

func (d *decoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(d.buf.Len()) {
		return "", fmt.Errorf("ric: string length %d exceeds remaining input", n)
	}
	b := make([]byte, n)
	if _, err := d.buf.Read(b); err != nil {
		return "", err
	}
	return string(b), nil
}

// name reads a nameRef, a symbol-table index. The returned ID follows the
// slot convention — None for the empty name (keyed sites), an interned ID
// otherwise.
func (d *decoder) name() (string, symtab.ID, error) {
	idx, err := d.uvarint()
	if err != nil {
		return "", symtab.None, err
	}
	if idx >= uint64(len(d.syms)) {
		return "", symtab.None, fmt.Errorf("ric: symbol index %d out of range", idx)
	}
	return d.syms[idx], d.symIDs[idx], nil
}

func (d *decoder) site() (source.Site, error) {
	idx, err := d.uvarint()
	if err != nil {
		return source.Site{}, err
	}
	if idx >= uint64(len(d.names)) {
		return source.Site{}, fmt.Errorf("ric: script index %d out of range", idx)
	}
	line, err := d.bounded(false, 0, math.MaxUint32)
	if err != nil {
		return source.Site{}, err
	}
	col, err := d.bounded(false, 0, math.MaxUint32)
	if err != nil {
		return source.Site{}, err
	}
	return source.At(d.names[idx], uint32(line), uint32(col)), nil
}

// Decode parses an encoded record, validating integrity and structure so
// corrupt input is rejected rather than reused: the header and trailing
// CRC32 are verified first, then every count and reference is checked
// during structural decoding. Decode never panics on any input.
func Decode(data []byte) (*Record, error) {
	if len(data) < len(recordTag)+1+recordTrailerLen {
		return nil, fmt.Errorf("ric: record too short (%d bytes)", len(data))
	}
	if !bytes.Equal(data[:len(recordTag)], recordTag) {
		return nil, fmt.Errorf("ric: bad record magic")
	}
	ver := data[len(recordTag)]
	if ver != recordVersion {
		return nil, fmt.Errorf("ric: unsupported record format version %d (want %d)", ver, recordVersion)
	}
	body := data[:len(data)-recordTrailerLen]
	stored := binary.LittleEndian.Uint32(data[len(data)-recordTrailerLen:])
	if sum := crc32.ChecksumIEEE(body); sum != stored {
		return nil, fmt.Errorf("ric: checksum mismatch (stored %#08x, computed %#08x)", stored, sum)
	}
	d := &decoder{buf: bytes.NewReader(body[len(recordTag)+1:])}
	r := &Record{
		SiteTOAST:     make(map[source.Site][]Pair),
		RejectedSites: make(map[source.Site]bool),
		TypedSlots:    make(map[int32][]SlotClaim),
	}
	var err error
	if r.Script, err = d.str(); err != nil {
		return nil, fmt.Errorf("ric: label: %w", err)
	}
	flags, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("ric: flags: %w", err)
	}
	r.IncludesGlobals = flags&1 != 0

	nScripts, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("ric: script table: %w", err)
	}
	if err := d.plausibleCount(nScripts, "script table"); err != nil {
		return nil, err
	}
	for i := uint64(0); i < nScripts; i++ {
		s, err := d.str()
		if err != nil {
			return nil, fmt.Errorf("ric: script table: %w", err)
		}
		d.names = append(d.names, s)
	}

	nSyms, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("ric: symbol table: %w", err)
	}
	if err := d.plausibleCount(nSyms, "symbol table"); err != nil {
		return nil, err
	}
	d.syms = make([]string, 0, nSyms)
	d.symIDs = make([]symtab.ID, 0, nSyms)
	for i := uint64(0); i < nSyms; i++ {
		s, err := d.str()
		if err != nil {
			return nil, fmt.Errorf("ric: symbol table: %w", err)
		}
		id := symtab.None
		if s != "" {
			// The record keeps the symbol table's copy of the name, so
			// every resident record naming it shares one string.
			id = symtab.Intern(s)
			s = symtab.NameOf(id)
		}
		d.syms = append(d.syms, s)
		d.symIDs = append(d.symIDs, id)
	}

	hcCount, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("ric: hc count: %w", err)
	}
	const maxHCs = 1 << 24
	if hcCount > maxHCs {
		return nil, fmt.Errorf("ric: implausible hidden class count %d", hcCount)
	}
	if err := d.plausibleCount(hcCount, "hc count"); err != nil {
		return nil, err
	}
	r.HCCount = int32(hcCount)
	r.Deps = make([][]DepEntry, hcCount)
	for i := range r.Deps {
		n, err := d.uvarint()
		if err != nil {
			return nil, fmt.Errorf("ric: deps[%d]: %w", i, err)
		}
		// Each row is allocated once at its exact size. A count the
		// remaining input cannot hold is rejected first, so a corrupt one
		// can only size a row as large as the input could fill.
		if n > uint64(d.buf.Len())/minDepBytes {
			return nil, fmt.Errorf("ric: deps[%d]: count %d exceeds remaining input", i, n)
		}
		if n > 0 {
			r.Deps[i] = make([]DepEntry, 0, n)
		}
		for j := uint64(0); j < n; j++ {
			site, err := d.site()
			if err != nil {
				return nil, fmt.Errorf("ric: deps[%d]: %w", i, err)
			}
			accessKind, err := d.bounded(false, 0, math.MaxUint8)
			if err != nil {
				return nil, fmt.Errorf("ric: deps[%d]: %w", i, err)
			}
			// Name resolution against the live symbol table happens exactly
			// once per table entry; every later preload comparison is an
			// integer compare. Keyed sites persist an empty name and keep
			// the None ID, matching the slots the VM registers for them.
			siteName, nameID, err := d.name()
			if err != nil {
				return nil, fmt.Errorf("ric: deps[%d]: %w", i, err)
			}
			kind, err := d.bounded(false, 0, math.MaxUint8)
			if err != nil {
				return nil, fmt.Errorf("ric: deps[%d]: %w", i, err)
			}
			off, err := d.bounded(true, math.MinInt32, math.MaxInt32)
			if err != nil {
				return nil, fmt.Errorf("ric: deps[%d]: %w", i, err)
			}
			name, _, err := d.name()
			if err != nil {
				return nil, fmt.Errorf("ric: deps[%d]: %w", i, err)
			}
			inner, err := d.bounded(false, 0, math.MaxUint8)
			if err != nil {
				return nil, fmt.Errorf("ric: deps[%d]: %w", i, err)
			}
			r.Deps[i] = append(r.Deps[i], DepEntry{
				Site:   site,
				Kind:   ic.AccessKind(accessKind),
				Name:   siteName,
				NameID: nameID,
				Desc: ic.CIDescriptor{
					Kind:   ic.HandlerKind(kind),
					Offset: int32(off),
					Name:   name,
					Inner:  ic.HandlerKind(inner),
				},
			})
		}
	}

	nSites, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("ric: site TOAST: %w", err)
	}
	if err := d.plausibleCount(nSites, "site TOAST"); err != nil {
		return nil, err
	}
	for i := uint64(0); i < nSites; i++ {
		site, err := d.site()
		if err != nil {
			return nil, fmt.Errorf("ric: site TOAST: %w", err)
		}
		nPairs, err := d.uvarint()
		if err != nil {
			return nil, fmt.Errorf("ric: site TOAST: %w", err)
		}
		var pairs []Pair
		for j := uint64(0); j < nPairs; j++ {
			in, err := d.bounded(true, math.MinInt32, math.MaxInt32)
			if err != nil {
				return nil, fmt.Errorf("ric: site TOAST: %w", err)
			}
			out, err := d.bounded(true, math.MinInt32, math.MaxInt32)
			if err != nil {
				return nil, fmt.Errorf("ric: site TOAST: %w", err)
			}
			pairs = append(pairs, Pair{In: int32(in), Out: int32(out)})
		}
		r.SiteTOAST[site] = pairs
	}

	nBuiltins, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("ric: builtin TOAST: %w", err)
	}
	if err := d.plausibleCount(nBuiltins, "builtin TOAST"); err != nil {
		return nil, err
	}
	r.BuiltinTOAST = make([]Builtin, 0, nBuiltins)
	for i := uint64(0); i < nBuiltins; i++ {
		name, _, err := d.name()
		if err != nil {
			return nil, fmt.Errorf("ric: builtin TOAST: %w", err)
		}
		id, err := d.bounded(false, 0, math.MaxInt32)
		if err != nil {
			return nil, fmt.Errorf("ric: builtin TOAST: %w", err)
		}
		// Encode writes the table in name order; validateShape rejects
		// any other order, so lookups can binary-search it.
		r.BuiltinTOAST = append(r.BuiltinTOAST, Builtin{Name: name, ID: int32(id)})
	}

	nRejected, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("ric: rejected sites: %w", err)
	}
	if err := d.plausibleCount(nRejected, "rejected sites"); err != nil {
		return nil, err
	}
	for i := uint64(0); i < nRejected; i++ {
		site, err := d.site()
		if err != nil {
			return nil, fmt.Errorf("ric: rejected sites: %w", err)
		}
		r.RejectedSites[site] = true
	}

	nTyped, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("ric: typed shapes: %w", err)
	}
	if err := d.plausibleCount(nTyped, "typed shapes"); err != nil {
		return nil, err
	}
	for i := uint64(0); i < nTyped; i++ {
		id, err := d.bounded(false, 0, math.MaxInt32)
		if err != nil {
			return nil, fmt.Errorf("ric: typed shapes: %w", err)
		}
		nClaims, err := d.uvarint()
		if err != nil {
			return nil, fmt.Errorf("ric: typed shapes[%d]: %w", id, err)
		}
		if err := d.plausibleCount(nClaims, "typed shape claims"); err != nil {
			return nil, err
		}
		claims := make([]SlotClaim, 0, nClaims)
		for j := uint64(0); j < nClaims; j++ {
			off, err := d.bounded(false, 0, math.MaxInt32)
			if err != nil {
				return nil, fmt.Errorf("ric: typed shapes[%d]: %w", id, err)
			}
			tag, err := d.buf.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("ric: typed shapes[%d]: %w", id, err)
			}
			if !objects.ValidSlotTag(objects.SlotType(tag)) {
				return nil, fmt.Errorf("ric: typed shapes[%d]: invalid slot type tag %d", id, tag)
			}
			claims = append(claims, SlotClaim{Offset: int32(off), Type: objects.SlotType(tag)})
		}
		r.TypedSlots[int32(id)] = claims
	}

	if d.buf.Len() != 0 {
		return nil, fmt.Errorf("ric: %d trailing bytes", d.buf.Len())
	}
	if err := r.validateShape(); err != nil {
		return nil, err
	}
	r.Stats = Stats{
		HiddenClasses:   int(r.HCCount),
		TriggeringSites: len(r.SiteTOAST),
		BuiltinEntries:  len(r.BuiltinTOAST),
		RejectedSites:   len(r.RejectedSites),
	}
	for _, deps := range r.Deps {
		r.Stats.DependentSlots += len(deps)
	}
	r.Stats.ContextIndependentHandlers = r.Stats.DependentSlots
	for _, claims := range r.TypedSlots {
		r.Stats.TypedSlotClaims += len(claims)
	}
	r.resident = r.residentBytes()
	return r, nil
}
