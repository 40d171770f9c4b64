package pisa

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"pera/internal/p4ir"
	"pera/internal/rot"
)

// Instance is a loaded program together with its runtime state: installed
// table entries, registers and counters. It corresponds to "the dataplane"
// of one switch; a control plane installs entries, the pipeline executes
// packets, and PERA attests its digests.
type Instance struct {
	prog *p4ir.Program
	lay  *layout // prog compiled; shared by every instance of prog

	parsedN atomic.Uint64 // packets parsed, for stats

	// tablesDigest caches TablesDigest between table mutations; entry
	// installs are control-plane rare, digest reads are per-attestation.
	tablesDigest atomic.Pointer[rot.Digest]

	// mu serializes the control plane's table writes and guards the
	// registers. The tables map and the ingress and egress lists are
	// fixed at Load; each table's entries are read through its snapshot.
	mu      sync.RWMutex
	tables  map[string]*tableState
	ingress []*tableState // prog.Ingress's tables, in order
	egress  []*tableState
	regs    [][]uint64 // by register index in prog.Registers
	counts  [][]uint64
}

type tableState struct {
	decl *p4ir.Table
	plan *tablePlan
	// snap is the table's contents as the last InstallEntry or
	// ClearTable published them, so a packet looks the table up without
	// a lock. A snapshot is never changed once published: an install
	// appends past the end of the current one, which readers of it
	// never see, and a clear publishes an empty one.
	snap atomic.Pointer[tableSnap]
}

// tableSnap is a table's installed entries and their bound actions.
type tableSnap struct {
	entries []p4ir.Entry
	acts    []entryAction // entries[i]'s action, resolved at install
}

// noEntries is every empty table's snapshot; snapshots are immutable, so
// one serves them all.
var noEntries = &tableSnap{}

// entryAction is an installed entry's action and its parameter values
// in the action's declared order.
type entryAction struct {
	act    *actPlan
	params []uint64
}

// Errors from instance operations.
var (
	ErrUnknownTable  = errors.New("pisa: unknown table")
	ErrTableFull     = errors.New("pisa: table full")
	ErrBadEntry      = errors.New("pisa: entry does not fit table")
	ErrUnknownAction = errors.New("pisa: unknown action")
)

// Several instances routinely load the same shared *Program (every
// forwarding switch in a testbed), so validation and the compiled
// layout are cached per program pointer.
var (
	layoutMu sync.Mutex
	layouts  = map[*p4ir.Program]*layout{}
)

const layoutCap = 64

// metaFor validates prog and returns its cached layout. Programs are
// treated as immutable after construction (nothing in the repo mutates
// a Program once built), so both the validation verdict and the layout
// are safe to reuse for the program's lifetime.
func metaFor(prog *p4ir.Program) (*layout, error) {
	layoutMu.Lock()
	l, ok := layouts[prog]
	layoutMu.Unlock()
	if ok {
		return l, nil
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	l = compile(prog)
	layoutMu.Lock()
	if ex, ok := layouts[prog]; ok {
		l = ex
	} else {
		if len(layouts) >= layoutCap {
			layouts = make(map[*p4ir.Program]*layout, layoutCap)
		}
		layouts[prog] = l
	}
	layoutMu.Unlock()
	return l, nil
}

// Load validates prog and returns a fresh instance with empty tables and
// zeroed registers.
func Load(prog *p4ir.Program) (*Instance, error) {
	l, err := metaFor(prog)
	if err != nil {
		return nil, err
	}
	in := &Instance{
		prog:   prog,
		lay:    l,
		tables: make(map[string]*tableState, len(prog.Ingress)+len(prog.Egress)),
		regs:   make([][]uint64, len(prog.Registers)),
		counts: make([][]uint64, len(prog.Registers)),
	}
	for _, t := range prog.Ingress {
		ts := &tableState{decl: t, plan: l.tables[t]}
		ts.snap.Store(noEntries)
		in.tables[t.Name] = ts
		in.ingress = append(in.ingress, ts)
	}
	for _, t := range prog.Egress {
		ts := &tableState{decl: t, plan: l.tables[t]}
		ts.snap.Store(noEntries)
		in.tables[t.Name] = ts
		in.egress = append(in.egress, ts)
	}
	for i, r := range prog.Registers {
		in.regs[i] = make([]uint64, r.Size)
		in.counts[i] = make([]uint64, r.Size)
	}
	return in, nil
}

// Program returns the loaded program.
func (in *Instance) Program() *p4ir.Program { return in.prog }

// InstallEntry adds an entry to a table, validating arity and action.
func (in *Instance) InstallEntry(table string, e p4ir.Entry) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	ts, ok := in.tables[table]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTable, table)
	}
	if len(e.Matches) != len(ts.decl.Keys) {
		return fmt.Errorf("%w: %d matches for %d keys", ErrBadEntry, len(e.Matches), len(ts.decl.Keys))
	}
	cur := ts.snap.Load()
	if ts.decl.MaxEntries > 0 && len(cur.entries) >= ts.decl.MaxEntries {
		return fmt.Errorf("%w: %q at %d entries", ErrTableFull, table, len(cur.entries))
	}
	if !actionPermitted(ts.decl, e.Action) {
		return fmt.Errorf("%w: %q not permitted in table %q", ErrUnknownAction, e.Action, table)
	}
	act, ok := in.lay.actions[e.Action]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownAction, e.Action)
	}
	ts.snap.Store(&tableSnap{
		entries: append(cur.entries, e),
		acts:    append(cur.acts, entryAction{act, act.bind(e.Params)}),
	})
	in.tablesDigest.Store(nil)
	return nil
}

func actionPermitted(t *p4ir.Table, name string) bool {
	if len(t.Actions) == 0 {
		return true
	}
	for _, a := range t.Actions {
		if a == name {
			return true
		}
	}
	return false
}

// ClearTable removes all entries from a table.
func (in *Instance) ClearTable(table string) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	ts, ok := in.tables[table]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTable, table)
	}
	ts.snap.Store(noEntries)
	in.tablesDigest.Store(nil)
	return nil
}

// Entries returns a copy of the entries installed in a table.
func (in *Instance) Entries(table string) ([]p4ir.Entry, error) {
	in.mu.RLock()
	defer in.mu.RUnlock()
	ts, ok := in.tables[table]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTable, table)
	}
	return append([]p4ir.Entry(nil), ts.snap.Load().entries...), nil
}

// lookup finds the entry of s best matching the current packet field
// values under the table's keys and returns its index. Selection: all
// keys must match; among matching entries the one with the highest
// (priority, total LPM prefix length) wins; ties go to the earliest
// installed. pkt must be bound to the instance's layout.
func (s *tableSnap) lookup(keys []keyPlan, pkt *Packet) (int, bool) {
	bestIdx := -1
	bestPrio, bestPfx := 0, -1
	for i := range s.entries {
		e := &s.entries[i]
		pfx, ok := entryMatches(keys, e, pkt)
		if !ok {
			continue
		}
		if bestIdx < 0 || e.Priority > bestPrio || (e.Priority == bestPrio && pfx > bestPfx) {
			bestIdx, bestPrio, bestPfx = i, e.Priority, pfx
		}
	}
	return bestIdx, bestIdx >= 0
}

// entryMatches checks e against pkt, returning the total prefix length
// used for LPM tie-breaking.
func entryMatches(keys []keyPlan, e *p4ir.Entry, pkt *Packet) (int, bool) {
	pfxTotal := 0
	for i, k := range keys {
		v := pkt.get(k.slot)
		m := &e.Matches[i]
		switch k.kind {
		case p4ir.MatchExact:
			if v != m.Value {
				return 0, false
			}
		case p4ir.MatchLPM:
			if m.PrefixLen > k.bits {
				return 0, false
			}
			shift := uint(k.bits - m.PrefixLen)
			if m.PrefixLen > 0 && v>>shift != m.Value>>shift {
				return 0, false
			}
			pfxTotal += m.PrefixLen
		case p4ir.MatchTernary:
			if v&m.Mask != m.Value&m.Mask {
				return 0, false
			}
		}
	}
	return pfxTotal, true
}

// RegRead returns register reg[idx] (zero for out-of-range reads, like
// hardware returning an undefined lane — we choose zero for determinism).
func (in *Instance) RegRead(reg string, idx uint64) uint64 {
	if r, ok := in.lay.regIdx[reg]; ok {
		return in.regRead(r, idx)
	}
	return 0
}

// RegWrite sets register reg[idx]; out-of-range writes are ignored.
func (in *Instance) RegWrite(reg string, idx, v uint64) {
	if r, ok := in.lay.regIdx[reg]; ok {
		in.regWrite(r, idx, v)
	}
}

// CounterValue returns counter reg[idx].
func (in *Instance) CounterValue(reg string, idx uint64) uint64 {
	r, ok := in.lay.regIdx[reg]
	if !ok {
		return 0
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	if arr := in.counts[r]; idx < uint64(len(arr)) {
		return arr[idx]
	}
	return 0
}

// regRead, regWrite and count address registers by their index in the
// program. An index past the end reads 0 and writes nothing.
func (in *Instance) regRead(r int, idx uint64) uint64 {
	in.mu.RLock()
	defer in.mu.RUnlock()
	if arr := in.regs[r]; idx < uint64(len(arr)) {
		return arr[idx]
	}
	return 0
}

func (in *Instance) regWrite(r int, idx, v uint64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if arr := in.regs[r]; idx < uint64(len(arr)) {
		arr[idx] = v
	}
}

func (in *Instance) count(r int, idx uint64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if arr := in.counts[r]; idx < uint64(len(arr)) {
		arr[idx]++
	}
}

// PacketsParsed reports how many packets this instance has parsed.
func (in *Instance) PacketsParsed() uint64 {
	return in.parsedN.Load()
}

// ProgramDigest is the attestable digest of the loaded code.
func (in *Instance) ProgramDigest() rot.Digest { return in.prog.Digest() }

// TablesDigest is the attestable digest over every table's installed
// entries, independent of installation order.
func (in *Instance) TablesDigest() rot.Digest {
	if d := in.tablesDigest.Load(); d != nil {
		return *d
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	names := make([]string, 0, len(in.tables))
	for n := range in.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		d := p4ir.EntriesDigest(n, in.tables[n].snap.Load().entries)
		h.Write(d[:])
	}
	var out rot.Digest
	h.Sum(out[:0])
	// Publish while still holding the read lock: invalidation (Store(nil)
	// in InstallEntry/ClearTable) runs under the write lock, so no table
	// mutation can slip between the computation above and this store.
	in.tablesDigest.Store(&out)
	return out
}

// StateDigest is the attestable digest of mutable program state
// (registers and counters) — the Fig. 4 "progstate" detail level.
func (in *Instance) StateDigest() rot.Digest {
	in.mu.RLock()
	defer in.mu.RUnlock()
	h := sha256.New()
	var buf [8]byte
	for _, r := range in.lay.regOrder {
		h.Write([]byte(in.prog.Registers[r].Name))
		for _, v := range in.regs[r] {
			binary.BigEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		for _, v := range in.counts[r] {
			binary.BigEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	var out rot.Digest
	h.Sum(out[:0])
	return out
}

// TableNames lists the instance's tables sorted by name.
func (in *Instance) TableNames() []string {
	in.mu.RLock()
	defer in.mu.RUnlock()
	names := make([]string, 0, len(in.tables))
	for n := range in.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DumpTables renders installed entries for operator inspection.
func (in *Instance) DumpTables() string {
	in.mu.RLock()
	defer in.mu.RUnlock()
	var b strings.Builder
	names := make([]string, 0, len(in.tables))
	for n := range in.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		entries := in.tables[n].snap.Load().entries
		fmt.Fprintf(&b, "table %s (%d entries)\n", n, len(entries))
		for _, e := range entries {
			fmt.Fprintf(&b, "  prio=%d %v -> %s%v\n", e.Priority, e.Matches, e.Action, e.Params)
		}
	}
	return b.String()
}
