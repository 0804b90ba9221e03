package sim

import (
	"slices"
	"sync/atomic"

	"microp4/internal/ir"
)

// This file holds the compiled engine's classifiers: per-table match
// structures that answer a lookup without scanning every entry. The
// reference interpreter keeps the linear scan in LookupWithOutcome;
// that scan is the oracle these structures must agree with bit for bit
// (FuzzClassifier checks it).
//
// Each table's entries split three ways by what their keys allow:
//
//   - exact index: tables whose keys are all exact, for entries that
//     give every key, hashed on the key tuple;
//   - LPM index: tables with one lpm key plus exact keys, for entries
//     whose prefix length is 1..width, one hash per prefix length keyed
//     on value>>shift plus the exact values, probed longest first;
//   - residual list: everything else, scanned linearly.
//
// An index keeps only the best entry per key (lowest priority,
// earliest installed): entries sharing a key tuple all have the same
// prefix length, so the others can never win. Runtime structures live in
// Tables and are updated by every write under its lock; const entries
// are classified once, when an Exec binds the table.

// matchKind is a key column's match kind, resolved from its string
// form once.
type matchKind uint8

const (
	kindOther matchKind = iota // unknown kind: only don't-care keys match
	kindExact
	kindTernary
	kindLPM
	kindRange
)

func kindOf(s string) matchKind {
	switch s {
	case "exact":
		return kindExact
	case "ternary":
		return kindTernary
	case "lpm":
		return kindLPM
	case "range":
		return kindRange
	}
	return kindOther
}

// keyShape is a table's key columns as the classifier reads them.
type keyShape struct {
	kinds  []matchKind
	widths []int // declared widths, as matchKey's shift arithmetic reads them
	index  bool  // keys are all exact, or exact plus one lpm
	lpmCol int   // the lpm column of an indexed table, or -1
}

func shapeOf(def *ir.Table) keyShape {
	s := keyShape{kinds: make([]matchKind, len(def.Keys)), widths: make([]int, len(def.Keys)),
		index: true, lpmCol: -1}
	for i, k := range def.Keys {
		s.kinds[i] = kindOf(k.MatchKind)
		if k.Expr != nil {
			s.widths[i] = k.Expr.Width
		}
		switch {
		case s.kinds[i] == kindExact:
		case s.kinds[i] == kindLPM && s.lpmCol < 0:
			s.lpmCol = i
		default:
			s.index = false
		}
	}
	if !s.index {
		s.lpmCol = -1
	}
	return s
}

func (s *keyShape) equal(o *keyShape) bool {
	return slices.Equal(s.kinds, o.kinds) && slices.Equal(s.widths, o.widths)
}

// lpmWidth is the width an lpm key's prefix counts down from: the
// declared width, capped at the 64 bits a key value holds.
func lpmWidth(w int) int {
	if w >= 64 {
		return 64
	}
	return w
}

// matchEntry matches one entry's keys against key values, returning
// its LPM prefix-length sum. An entry with fewer keys than the table
// wildcards the rest; one with more never matches.
func (s *keyShape) matchEntry(keys []RuntimeKey, kv []uint64) (plen int, ok bool) {
	for i := range keys {
		if i >= len(s.kinds) {
			return 0, false
		}
		if !matchKey(s.kinds[i], keys[i], kv[i], s.widths[i]) {
			return 0, false
		}
		if s.kinds[i] == kindLPM && !keys[i].DontCare {
			plen += keys[i].PrefixLen
		}
	}
	return plen, true
}

// lpmLevel is the hash of one prefix length's entries.
type lpmLevel struct {
	plen  int
	shift uint
	idx   hashIndex
}

// classifier is one table's match structure over one entry set. It
// indexes entries by position; a runtime classifier shares its entry
// slice with Tables (appends past its length never touch what it
// reads), so an entry is stored once.
type classifier struct {
	shape    *keyShape
	entries  []RuntimeEntry
	acts     []int32 // entries' interned action names (Tables.actionID)
	exact    hashIndex
	levels   []lpmLevel // longest prefix first
	residual []int32    // entry positions, in install order
	scratch  []uint64   // key tuple being inserted
}

func newClassifier(shape *keyShape) classifier {
	return classifier{shape: shape, scratch: make([]uint64, len(shape.kinds))}
}

// reset empties the classifier, keeping its index memory.
func (c *classifier) reset() {
	c.entries = nil
	c.acts = c.acts[:0]
	c.exact.reset()
	c.levels = c.levels[:0]
	c.residual = c.residual[:0]
}

// add classifies the last of entries, which extends c.entries by one,
// with its action id.
func (c *classifier) add(entries []RuntimeEntry, act int32) {
	c.entries = entries
	c.acts = append(c.acts, act)
	pos := int32(len(entries) - 1)
	keys := entries[pos].Keys
	s := c.shape
	if !s.index || len(keys) != len(s.kinds) {
		c.residual = append(c.residual, pos)
		return
	}
	shift := uint(0)
	for i := range keys {
		k := &keys[i]
		if k.DontCare {
			c.residual = append(c.residual, pos)
			return
		}
		c.scratch[i] = k.Value
		if i == s.lpmCol {
			w := lpmWidth(s.widths[i])
			if k.PrefixLen < 1 || k.PrefixLen > w {
				c.residual = append(c.residual, pos)
				return
			}
			shift = uint(w - k.PrefixLen)
		}
	}
	if s.lpmCol < 0 {
		c.exact.add(c.entries, pos, c.scratch, -1, 0)
		return
	}
	plen := keys[s.lpmCol].PrefixLen
	li := 0
	for li < len(c.levels) && c.levels[li].plen > plen {
		li++
	}
	if li == len(c.levels) || c.levels[li].plen != plen {
		c.levels = append(c.levels, lpmLevel{})
		copy(c.levels[li+1:], c.levels[li:])
		c.levels[li] = lpmLevel{plen: plen, shift: shift}
	}
	c.levels[li].idx.add(c.entries, pos, c.scratch, s.lpmCol, shift)
}

// best returns the position of the best entry matching kv and its LPM
// prefix-length sum, or -1: the highest prefix-length sum, then the
// lowest priority, then the earliest installed.
func (c *classifier) best(kv []uint64) (int32, int) {
	bi, bplen := int32(-1), 0
	if c.shape.lpmCol < 0 {
		bi = c.exact.find(c.entries, kv, -1, 0)
	} else {
		for i := range c.levels {
			l := &c.levels[i]
			if bi = l.idx.find(c.entries, kv, c.shape.lpmCol, l.shift); bi >= 0 {
				bplen = l.plen
				break
			}
		}
	}
	for _, ri := range c.residual {
		e := &c.entries[ri]
		plen, ok := c.shape.matchEntry(e.Keys, kv)
		if !ok {
			continue
		}
		if bi < 0 || plen > bplen || plen == bplen &&
			(e.Priority < c.entries[bi].Priority || e.Priority == c.entries[bi].Priority && ri < bi) {
			bi, bplen = ri, plen
		}
	}
	return bi, bplen
}

// hashIndex is an open-addressed hash (linear probe, no deletes) from
// key tuples to the position of the best entry filed under each. The
// key lives in the entry, so a slot is only the entry position and the
// high half of its key's hash, which also picks the home slot: a probe
// passing other keys' slots seldom reads their entries, and growing
// refiles slots without rehashing. Keys are the entries' values, column
// col shifted right by shift (col -1: none); kv (probe or insert) is
// transformed the same way.
type hashIndex struct {
	n     int      // keys filed
	slots []uint64 // hash>>32<<32 | position+1; 0 is empty
}

func (h *hashIndex) reset() {
	h.n = 0
	clear(h.slots)
}

func hashKey(kv []uint64, col int, shift uint) uint64 {
	h := uint64(len(kv))
	for i, v := range kv {
		if i == col {
			v >>= shift
		}
		h = mix64(h ^ v)
	}
	return h
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// keyEqual reports whether an entry's key values equal kv under the
// index's transform.
func keyEqual(keys []RuntimeKey, kv []uint64, col int, shift uint) bool {
	for i := range keys {
		a, b := keys[i].Value, kv[i]
		if i == col {
			a, b = a>>shift, b>>shift
		}
		if a != b {
			return false
		}
	}
	return true
}

// find returns the position of the best entry filed under kv, or -1.
func (h *hashIndex) find(entries []RuntimeEntry, kv []uint64, col int, shift uint) int32 {
	if h.n == 0 {
		return -1
	}
	hash := hashKey(kv, col, shift)
	mask := uint64(len(h.slots) - 1)
	for i := hash >> 32 & mask; ; i = (i + 1) & mask {
		s := h.slots[i]
		if s == 0 {
			return -1
		}
		if s>>32 == hash>>32 {
			if pos := int32(uint32(s)) - 1; keyEqual(entries[pos].Keys, kv, col, shift) {
				return pos
			}
		}
	}
}

// add files entry pos, whose key values are kv. A key already filed
// keeps the better entry: pos was installed last, so it wins only on a
// lower priority.
func (h *hashIndex) add(entries []RuntimeEntry, pos int32, kv []uint64, col int, shift uint) {
	if 4*(h.n+1) > 3*len(h.slots) {
		h.grow()
	}
	hash := hashKey(kv, col, shift)
	mask := uint64(len(h.slots) - 1)
	i := hash >> 32 & mask
	for ; h.slots[i] != 0; i = (i + 1) & mask {
		s := h.slots[i]
		if s>>32 != hash>>32 {
			continue
		}
		if old := int32(uint32(s)) - 1; keyEqual(entries[old].Keys, kv, col, shift) {
			if entries[pos].Priority < entries[old].Priority {
				h.slots[i] = hash>>32<<32 | uint64(pos+1)
			}
			return
		}
	}
	h.slots[i] = hash>>32<<32 | uint64(pos+1)
	h.n++
}

// grow doubles the slot array (load stays at most three quarters; the
// slot tags keep probes past other keys cheap) and refiles every slot
// by its tag.
func (h *hashIndex) grow() {
	n := 2 * len(h.slots)
	if n < 8 {
		n = 8
	}
	old := h.slots
	h.slots = make([]uint64, n)
	mask := uint64(n - 1)
	for _, s := range old {
		if s == 0 {
			continue
		}
		i := s >> 32 & mask
		for h.slots[i] != 0 {
			i = (i + 1) & mask
		}
		h.slots[i] = s
	}
}

// tableState is one table's runtime classifier, shared by every Exec
// that binds the table name with the same key shape. Tables' write
// methods keep it current while they hold the Tables write lock, so a
// write is visible to the next packet; compiled lookups probe it under
// the read lock, and skip the lock while idle is set. (A lock per table
// cost every insert a second lock pair, about 5% of a 1k-route FIB's
// set-up, without speeding up its lookups.)
type tableState struct {
	idle    atomic.Bool // no runtime entries and no default override
	shape   keyShape
	rt      classifier
	dflt    *ir.ActionCall // SetDefault override
	dfltAct int32
	// off is the table's const entry count: runtime priorities rank
	// after the const entries' positions, as in LookupWithOutcome.
	off int
}

// boundTable is a table as one Exec sees it: its const entries and
// declared default, classified once, plus the shared runtime state.
type boundTable struct {
	t       *Tables
	state   *tableState
	konst   classifier
	dflt    *ir.ActionCall
	dfltAct int32
}

// lookup is LookupWithOutcome on the bound structures, also returning
// the selected action's interned id.
func (b *boundTable) lookup(kv []uint64) (*ir.ActionCall, int32, LookupOutcome) {
	ci, cplen := b.konst.best(kv)
	var dflt *ir.ActionCall
	var dfltAct int32
	if s := b.state; !s.idle.Load() {
		b.t.mu.RLock()
		if ri, rplen := s.rt.best(kv); ri >= 0 {
			re := &s.rt.entries[ri]
			// Runtime priorities rank after the const entries'
			// positions, as in LookupWithOutcome.
			if ci < 0 || rplen > cplen || rplen == cplen && s.off+re.Priority < b.konst.entries[ci].Priority {
				call, act := re.call, s.rt.acts[ri]
				b.t.mu.RUnlock()
				return call, act, LookupHit
			}
		}
		dflt, dfltAct = s.dflt, s.dfltAct
		b.t.mu.RUnlock()
	}
	switch {
	case ci >= 0:
		return b.konst.entries[ci].call, b.konst.acts[ci], LookupHit
	case dflt != nil:
		return dflt, dfltAct, LookupDefault
	case b.dflt != nil:
		return b.dflt, b.dfltAct, LookupDefault
	}
	return nil, -1, LookupMiss
}

// actionID interns an action name. Ids are dense and never reused, so
// an Exec resolves them through a slice. Callers hold t.mu.
func (t *Tables) actionID(name string) int32 {
	if name == t.lastAct && t.lastID >= 0 { // bulk installs repeat one action
		return t.lastID
	}
	id, ok := t.actIDs[name]
	if !ok {
		id = int32(len(t.actIDs))
		t.actIDs[name] = id
	}
	t.lastAct, t.lastID = name, id
	return id
}

// actionIDs interns action names.
func (t *Tables) actionIDs(names []string) []int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make([]int32, len(names))
	for i, n := range names {
		ids[i] = t.actionID(n)
	}
	return ids
}

// bind resolves a table for an Exec: it classifies the const entries
// and finds (or builds, from the entries installed so far) the runtime
// state shared with other Execs binding the same name and key shape.
func (t *Tables) bind(name string, def *ir.Table) *boundTable {
	shape := shapeOf(def)
	off := len(def.Entries)
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.rec(name)
	var s *tableState
	for _, cand := range r.states {
		if cand.off == off && cand.shape.equal(&shape) {
			s = cand
			break
		}
	}
	if s == nil {
		s = &tableState{shape: shape, off: off}
		s.rt = newClassifier(&s.shape)
		s.load(t, r.entries, r.dflt)
		r.states = append(r.states, s)
	}
	b := &boundTable{t: t, state: s, dfltAct: -1}
	b.konst = newClassifier(&s.shape)
	n := 0
	for i := range def.Entries {
		n += len(def.Entries[i].Keys)
	}
	keys := make([]RuntimeKey, 0, n) // one backing array for every const entry
	konst := make([]RuntimeEntry, len(def.Entries))
	for i := range def.Entries {
		e := &def.Entries[i]
		keys = keys[len(keys):]
		for _, k := range e.Keys {
			keys = append(keys, RuntimeKey{DontCare: k.DontCare, Value: k.Value, Mask: k.Mask, HasMask: k.HasMask, PrefixLen: k.PrefixLen})
		}
		// A const entry's priority is its position, as in LookupWithOutcome.
		konst[i] = RuntimeEntry{Keys: keys, Action: e.Action.Name, Args: e.Action.Args, Priority: i,
			call: &e.Action}
		b.konst.add(konst[:i+1], t.actionID(e.Action.Name))
	}
	if def.Default != nil {
		b.dflt, b.dfltAct = def.Default, t.actionID(def.Default.Name)
	}
	return b
}

// load replaces the state's contents with a table's runtime entries
// and default override. Callers hold t.mu.
func (s *tableState) load(t *Tables, entries []RuntimeEntry, dflt *ir.ActionCall) {
	s.rt.reset()
	for i := range entries {
		s.rt.add(entries[:i+1], t.actionID(entries[i].Action))
	}
	s.setDefault(t, dflt)
}

// add classifies the last of a table's runtime entries, just appended,
// with its action id. Callers hold t.mu.
func (s *tableState) add(entries []RuntimeEntry, act int32) {
	s.rt.add(entries, act)
	if s.idle.Load() {
		s.idle.Store(false)
	}
}

// clear drops every runtime entry. Callers hold t.mu.
func (s *tableState) clear() {
	s.rt.reset()
	s.idle.Store(s.dflt == nil)
}

// setDefault records the default override. Callers hold t.mu.
func (s *tableState) setDefault(t *Tables, dflt *ir.ActionCall) {
	s.dflt, s.dfltAct = dflt, -1
	if dflt != nil {
		s.dfltAct = t.actionID(dflt.Name)
	}
	s.idle.Store(len(s.rt.entries) == 0 && dflt == nil)
}
