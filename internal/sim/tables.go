package sim

import (
	"sort"
	"sync"

	"microp4/internal/ir"
)

// RuntimeKey is one key of a runtime table entry.
type RuntimeKey struct {
	DontCare  bool
	Value     uint64
	Mask      uint64 // for ternary keys; 0 means exact
	HasMask   bool
	PrefixLen int // for lpm keys
}

// Exact returns an exact-match key.
func Exact(v uint64) RuntimeKey { return RuntimeKey{Value: v} }

// Ternary returns a value/mask key.
func Ternary(v, m uint64) RuntimeKey { return RuntimeKey{Value: v, Mask: m, HasMask: true} }

// LPM returns a longest-prefix-match key.
func LPM(v uint64, plen int) RuntimeKey { return RuntimeKey{Value: v, PrefixLen: plen} }

// Any returns a don't-care key.
func Any() RuntimeKey { return RuntimeKey{DontCare: true} }

// RuntimeEntry is one control-plane-installed table entry.
type RuntimeEntry struct {
	Keys     []RuntimeKey
	Action   string
	Args     []uint64
	Priority int // lower wins among ternary matches

	// call is the entry's action invocation, prebuilt at install time so
	// the lookup hot path returns it without allocating.
	call *ir.ActionCall
}

// newRuntimeEntry builds an entry with its action call prebuilt.
func newRuntimeEntry(keys []RuntimeKey, action string, args []uint64, prio int) RuntimeEntry {
	return RuntimeEntry{
		Keys: keys, Action: action, Args: args, Priority: prio,
		call: &ir.ActionCall{Name: action, Args: args},
	}
}

// Tables is the control-plane state shared by the interpreter and the
// compiled executor: runtime entries and default-action overrides, keyed
// by fully-qualified table name (instance-path-prefixed, e.g.
// "l3_i.ipv4_lpm_tbl"). It is safe for concurrent use.
//
// Every write also updates the compiled engine's classifiers for the
// table (classify.go) before it returns, so the next packet sees it.
type Tables struct {
	mu     sync.RWMutex
	tables map[string]*tableRec
	seq    int

	actIDs  map[string]int32 // interned action names
	lastAct string           // the name actionID interned last, and its id
	lastID  int32
}

// tableRec is one table name's control-plane state.
type tableRec struct {
	entries []RuntimeEntry // installation order
	dflt    *ir.ActionCall // default override
	states  []*tableState  // compiled classifiers bound to the name
}

// NewTables returns empty control-plane state.
func NewTables() *Tables {
	return &Tables{tables: make(map[string]*tableRec), actIDs: make(map[string]int32), lastID: -1}
}

// rec returns a table's record, creating it. Callers hold t.mu.
func (t *Tables) rec(table string) *tableRec {
	r := t.tables[table]
	if r == nil {
		r = &tableRec{}
		t.tables[table] = r
	}
	return r
}

// AddEntry installs an entry; entries installed earlier win ties. The
// table keeps keys: the caller must not modify them afterwards.
func (t *Tables) AddEntry(table string, keys []RuntimeKey, action string, args ...uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	t.add(table, keys, action, args, t.seq)
}

// AddEntryWithPriority installs an entry with an explicit priority
// (lower wins).
func (t *Tables) AddEntryWithPriority(table string, prio int, keys []RuntimeKey, action string, args ...uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.add(table, keys, action, args, prio)
}

// add appends an entry and classifies it. Callers hold t.mu.
func (t *Tables) add(table string, keys []RuntimeKey, action string, args []uint64, prio int) {
	r := t.rec(table)
	r.entries = append(r.entries, newRuntimeEntry(keys, action, args, prio))
	for _, s := range r.states {
		s.add(r.entries, t.actionID(action))
	}
}

// SetDefault overrides a table's default action.
func (t *Tables) SetDefault(table, action string, args ...uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.rec(table)
	r.dflt = &ir.ActionCall{Name: action, Args: args}
	for _, s := range r.states {
		s.setDefault(t, r.dflt)
	}
}

// ClearTable removes all runtime entries of a table.
func (t *Tables) ClearTable(table string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r := t.tables[table]; r != nil {
		r.entries = nil
		for _, s := range r.states {
			s.clear()
		}
	}
}

// runtime returns a table's entries and default override. Callers hold
// t.mu.
func (t *Tables) runtime(table string) ([]RuntimeEntry, *ir.ActionCall) {
	if r := t.tables[table]; r != nil {
		return r.entries, r.dflt
	}
	return nil, nil
}

// Entries returns a copy of a table's runtime entries, in installation
// order.
func (t *Tables) Entries(table string) []RuntimeEntry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	es, _ := t.runtime(table)
	return append([]RuntimeEntry(nil), es...)
}

// EntryCount returns the number of runtime entries installed in a table.
func (t *Tables) EntryCount(table string) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	es, _ := t.runtime(table)
	return len(es)
}

// TablesSnapshot is a deep, immutable copy of control-plane table state
// — runtime entries, default overrides, and the priority sequence —
// taken by Snapshot and reinstated by Restore. It backs the switch
// checkpoints the ctrlplane's two-phase commit rolls back to on abort.
type TablesSnapshot struct {
	entries  map[string][]RuntimeEntry
	defaults map[string]*ir.ActionCall
	seq      int
}

// Snapshot returns a deep copy of the current table state. Safe to call
// while packets are being processed and entries installed; the snapshot
// is a consistent point-in-time view.
func (t *Tables) Snapshot() *TablesSnapshot {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := &TablesSnapshot{
		entries:  make(map[string][]RuntimeEntry),
		defaults: make(map[string]*ir.ActionCall),
		seq:      t.seq,
	}
	for name, r := range t.tables {
		if len(r.entries) > 0 {
			cp := make([]RuntimeEntry, len(r.entries))
			for i, e := range r.entries {
				cp[i] = newRuntimeEntry(
					append([]RuntimeKey(nil), e.Keys...),
					e.Action,
					append([]uint64(nil), e.Args...),
					e.Priority,
				)
			}
			s.entries[name] = cp
		}
		if d := r.dflt; d != nil {
			dc := *d
			dc.Args = append([]uint64(nil), d.Args...)
			s.defaults[name] = &dc
		}
	}
	return s
}

// Restore reinstates a snapshot, replacing all runtime entries and
// default overrides installed since it was taken. The snapshot itself is
// not consumed: it deep-copies on the way back in, so one snapshot may
// be restored more than once. The compiled classifiers are rebuilt in
// place, so Execs bound to this Tables stay valid.
func (t *Tables) Restore(s *TablesSnapshot) {
	if s == nil {
		return
	}
	entries := make(map[string][]RuntimeEntry, len(s.entries))
	for name, es := range s.entries {
		cp := make([]RuntimeEntry, len(es))
		for i, e := range es {
			cp[i] = newRuntimeEntry(
				append([]RuntimeKey(nil), e.Keys...),
				e.Action,
				append([]uint64(nil), e.Args...),
				e.Priority,
			)
		}
		entries[name] = cp
	}
	defaults := make(map[string]*ir.ActionCall, len(s.defaults))
	for name, d := range s.defaults {
		dc := *d
		dc.Args = append([]uint64(nil), d.Args...)
		defaults[name] = &dc
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq = s.seq
	for _, r := range t.tables {
		r.entries, r.dflt = nil, nil
	}
	for name, es := range entries {
		t.rec(name).entries = es
	}
	for name, d := range defaults {
		t.rec(name).dflt = d
	}
	for name, r := range t.tables {
		if r.entries == nil && r.dflt == nil && len(r.states) == 0 {
			delete(t.tables, name)
		}
		for _, st := range r.states {
			st.load(t, r.entries, r.dflt)
		}
	}
}

// LookupOutcome classifies a table lookup for observability.
type LookupOutcome int8

const (
	// LookupMiss: no entry matched and the table has no default action.
	LookupMiss LookupOutcome = iota
	// LookupHit: an installed or const entry matched.
	LookupHit
	// LookupDefault: no entry matched; the default action applies.
	LookupDefault
)

// Lookup matches key values against a table definition plus runtime
// state. Const entries (from the program text, including synthesized
// parser/deparser MAT entries) have priority over runtime entries, in
// declaration order. Returns the action to run, or the default action,
// or nil when the table has no default (a miss is then a no-op).
func (t *Tables) Lookup(fqName string, def *ir.Table, keyVals []uint64) *ir.ActionCall {
	call, _ := t.LookupWithOutcome(fqName, def, keyVals)
	return call
}

// LookupWithOutcome is Lookup, also reporting how the result was
// reached (entry hit, default action, or miss) for the per-table
// hit/miss/default counters.
// LookupWithOutcome is allocation-free: const entries match in place,
// and runtime entries return their prebuilt action call. Matching
// semantics: an entry with fewer keys than the table wildcards the
// rest; the best match has the highest LPM prefix-length sum, ties
// broken by lower priority (const entries rank by declaration order and
// always precede runtime entries).
func (t *Tables) LookupWithOutcome(fqName string, def *ir.Table, keyVals []uint64) (*ir.ActionCall, LookupOutcome) {
	t.mu.RLock()
	runtime, defOverride := t.runtime(fqName)
	t.mu.RUnlock()

	var best *ir.ActionCall
	bestPlen, bestPrio := 0, 0
	for i := range def.Entries {
		e := &def.Entries[i]
		plen, ok := matchConstEntry(def, e, keyVals)
		if !ok {
			continue
		}
		if best == nil || plen > bestPlen || (plen == bestPlen && i < bestPrio) {
			best, bestPlen, bestPrio = &e.Action, plen, i
		}
	}
	for j := range runtime {
		re := &runtime[j]
		plen, ok := matchRuntimeEntry(def, re, keyVals)
		if !ok {
			continue
		}
		prio := len(def.Entries) + re.Priority
		if best == nil || plen > bestPlen || (plen == bestPlen && prio < bestPrio) {
			call := re.call
			if call == nil { // zero-value entry installed out of band
				call = &ir.ActionCall{Name: re.Action, Args: re.Args}
			}
			best, bestPlen, bestPrio = call, plen, prio
		}
	}
	if best != nil {
		return best, LookupHit
	}
	if defOverride != nil {
		return defOverride, LookupDefault
	}
	if def.Default != nil {
		return def.Default, LookupDefault
	}
	return nil, LookupMiss
}

// matchConstEntry matches one const entry, returning its LPM
// prefix-length sum.
func matchConstEntry(def *ir.Table, e *ir.Entry, keyVals []uint64) (plen int, ok bool) {
	for i := range e.Keys {
		if i >= len(def.Keys) {
			return 0, false
		}
		k := &e.Keys[i]
		rk := RuntimeKey{DontCare: k.DontCare, Value: k.Value, Mask: k.Mask, HasMask: k.HasMask, PrefixLen: k.PrefixLen}
		if !matchKey(kindOf(def.Keys[i].MatchKind), rk, keyVals[i], def.Keys[i].Expr.Width) {
			return 0, false
		}
		if def.Keys[i].MatchKind == "lpm" && !k.DontCare {
			plen += k.PrefixLen
		}
	}
	return plen, true
}

// matchRuntimeEntry matches one installed entry, returning its LPM
// prefix-length sum.
func matchRuntimeEntry(def *ir.Table, e *RuntimeEntry, keyVals []uint64) (plen int, ok bool) {
	for i := range e.Keys {
		if i >= len(def.Keys) {
			return 0, false
		}
		if !matchKey(kindOf(def.Keys[i].MatchKind), e.Keys[i], keyVals[i], def.Keys[i].Expr.Width) {
			return 0, false
		}
		if def.Keys[i].MatchKind == "lpm" && !e.Keys[i].DontCare {
			plen += e.Keys[i].PrefixLen
		}
	}
	return plen, true
}

// matchKey checks one key column.
func matchKey(kind matchKind, k RuntimeKey, v uint64, width int) bool {
	if k.DontCare {
		return true
	}
	switch kind {
	case kindExact:
		return k.Value == v
	case kindTernary:
		if !k.HasMask {
			return k.Value == v
		}
		return k.Value&k.Mask == v&k.Mask
	case kindLPM:
		if k.PrefixLen == 0 {
			return true
		}
		shift := uint(width - k.PrefixLen)
		if width >= 64 {
			shift = uint(64 - k.PrefixLen)
		}
		return k.Value>>shift == v>>shift
	case kindRange:
		// Value..Mask treated as an inclusive range.
		return v >= k.Value && v <= k.Mask
	}
	return false
}

// TableNames lists tables with runtime entries (sorted, for debugging).
func (t *Tables) TableNames() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []string
	for n, r := range t.tables {
		if len(r.entries) > 0 {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
