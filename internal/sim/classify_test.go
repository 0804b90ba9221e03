package sim

import (
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"microp4/internal/ir"
)

// fuzzReader decodes a fuzz input one byte at a time; an exhausted
// input reads as zeros.
type fuzzReader struct{ b []byte }

func (r *fuzzReader) next() int {
	if len(r.b) == 0 {
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return int(v)
}

func (r *fuzzReader) done() bool { return len(r.b) == 0 }

// fuzzValues are the key values entries and lookups draw from (then
// XORed with a low byte): prefixes of each other, values wider than
// narrow keys, and the 64-bit extremes.
var fuzzValues = [8]uint64{0, 1, 0xFF, 0x0A000000, 0x0A010000, ^uint64(0), 1 << 63, 0x20010DB800000000}

func (r *fuzzReader) value() uint64 {
	return fuzzValues[r.next()%len(fuzzValues)] ^ uint64(r.next())
}

var fuzzKinds = [5]string{"exact", "lpm", "ternary", "range", "optional"}

// fuzzTable decodes a table definition: 1-3 keys of any kind, widths
// 1-64, and 0-4 const entries.
func (r *fuzzReader) table() *ir.Table {
	def := &ir.Table{Name: "t", Actions: []string{"a0", "a1", "a2"}}
	nk := 1 + r.next()%3
	for i := 0; i < nk; i++ {
		kind := fuzzKinds[r.next()%len(fuzzKinds)]
		def.Keys = append(def.Keys, ir.Key{Expr: ir.Ref("k", 1+r.next()%64), MatchKind: kind})
	}
	if r.next()%2 == 1 {
		def.Default = &ir.ActionCall{Name: "a0", Args: []uint64{7}}
	}
	for n := r.next() % 5; n > 0; n-- {
		keys, action, args := r.entry(nk)
		e := ir.Entry{Action: ir.ActionCall{Name: action, Args: args}}
		for _, k := range keys {
			e.Keys = append(e.Keys, ir.EntryKey{DontCare: k.DontCare, Value: k.Value, Mask: k.Mask,
				HasMask: k.HasMask, PrefixLen: k.PrefixLen})
		}
		def.Entries = append(def.Entries, e)
	}
	return def
}

// entry decodes one entry: usually a key per table column, sometimes
// fewer or one more; keys may be don't-care, masked, and carry any
// prefix length 0..71.
func (r *fuzzReader) entry(nk int) ([]RuntimeKey, string, []uint64) {
	n := nk
	switch r.next() % 8 {
	case 0:
		n = r.next() % nk // short entry
	case 1:
		n = nk + 1
	}
	keys := make([]RuntimeKey, n)
	for i := range keys {
		flags := r.next()
		keys[i] = RuntimeKey{DontCare: flags%8 == 0, HasMask: flags&8 != 0,
			Value: r.value(), PrefixLen: r.next() % 72}
		if keys[i].HasMask || flags&16 != 0 {
			keys[i].Mask = r.value()
		}
	}
	a := r.next() % 3
	return keys, []string{"a0", "a1", "a2"}[a], []uint64{uint64(a), uint64(r.next())}
}

// Classifier fuzz ops.
const (
	opAdd = iota
	opAddPrio
	opClear
	opSetDefault
	opSnapshot
	opRestore
	opLookup
	opBind
	nOps
)

// classifierRun replays one decoded fuzz input: a table, bound twice
// (as decoded, and without const entries, which binds separate runtime
// state every write must update too), and a stream of ops on Tables.
type classifierRun struct {
	r                *fuzzReader
	def, bare        *ir.Table
	ts               *Tables
	bound, boundBare *boundTable
	snap             *TablesSnapshot
}

func newClassifierRun(data []byte) *classifierRun {
	c := &classifierRun{r: &fuzzReader{b: data}, ts: NewTables()}
	c.def = c.r.table()
	bare := *c.def
	bare.Entries = nil
	c.bare = &bare
	return c
}

func (c *classifierRun) bind() {
	if c.bound == nil {
		c.bound, c.boundBare = c.ts.bind("t", c.def), c.ts.bind("t", c.bare)
	}
}

// step applies the next op, returning the key values of a lookup op
// (nil for every other op).
func (c *classifierRun) step() []uint64 {
	r, ts := c.r, c.ts
	switch r.next() % nOps {
	case opAdd:
		keys, action, args := r.entry(len(c.def.Keys))
		ts.AddEntry("t", keys, action, args...)
	case opAddPrio:
		prio := r.next()%8 - 4
		keys, action, args := r.entry(len(c.def.Keys))
		ts.AddEntryWithPriority("t", prio, keys, action, args...)
	case opClear:
		ts.ClearTable("t")
	case opSetDefault:
		ts.SetDefault("t", []string{"a1", "a2", "nope"}[r.next()%3], uint64(r.next()))
	case opSnapshot:
		c.snap = ts.Snapshot()
	case opRestore:
		ts.Restore(c.snap)
	case opBind:
		c.bind()
	case opLookup:
		kv := make([]uint64, len(c.def.Keys))
		for i := range kv {
			kv[i] = r.value()
		}
		return kv
	}
	return nil
}

// check compares both bindings against the oracle on kv.
func (c *classifierRun) check(t *testing.T, kv []uint64) {
	for _, b := range []struct {
		def *ir.Table
		bt  *boundTable
	}{{c.def, c.bound}, {c.bare, c.boundBare}} {
		want, wantOut := c.ts.LookupWithOutcome("t", b.def, kv)
		got, id, gotOut := b.bt.lookup(kv)
		if got != want || gotOut != wantOut {
			t.Fatalf("lookup %#x (%d const entries): index %+v (%d), oracle %+v (%d)",
				kv, len(b.def.Entries), got, gotOut, want, wantOut)
		}
		if got != nil && c.ts.actIDs[got.Name] != id {
			t.Fatalf("lookup %#x: action %s id %d, interned %d", kv, got.Name, id, c.ts.actIDs[got.Name])
		}
	}
}

// FuzzClassifier checks the compiled classifiers (const and runtime
// structures, bound before or after entries exist) against the linear
// LookupWithOutcome oracle over random tables and control-plane write
// streams: every lookup must select the very same action call, with
// the same outcome, and resolve the action's interned id.
func FuzzClassifier(f *testing.F) {
	for _, seed := range classifierSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := newClassifierRun(data)
		for ops := 0; !c.r.done() && ops < 256; ops++ {
			if kv := c.step(); kv != nil && c.bound != nil {
				c.check(t, kv)
			}
		}
		c.bind()
		// Probe every entry's own key values as well.
		kv := make([]uint64, len(c.def.Keys))
		for _, e := range c.ts.Entries("t") {
			for i := range kv {
				kv[i] = 0
				if i < len(e.Keys) {
					kv[i] = e.Keys[i].Value
				}
			}
			c.check(t, kv)
		}
	})
}

// seedBuf writes classifier fuzz inputs field by field, in the order
// FuzzClassifier's decoder reads them.
type seedBuf []byte

func (s *seedBuf) put(b ...int) *seedBuf {
	for _, v := range b {
		*s = append(*s, byte(v))
	}
	return s
}

// key is one entry key: flags (1 = plain, 0 = don't-care, 9 = masked,
// 17 = range bound 0xFF), a fuzzValues index with its XOR byte, and a
// prefix length.
func (s *seedBuf) key(flags, val, xor, plen int) *seedBuf {
	s.put(flags, val, xor, plen)
	if flags&24 != 0 {
		s.put(2, 0) // mask 0xFF
	}
	return s
}

// add starts an AddEntry op whose keys follow; entry ends it.
func (s *seedBuf) add() *seedBuf { return s.put(opAdd, 2) }

func (s *seedBuf) entry(action, arg int) *seedBuf { return s.put(action, arg) }

func (s *seedBuf) lookup(vals ...int) *seedBuf {
	s.put(opLookup)
	return s.put(vals...)
}

func classifierSeeds() [][]byte {
	var seeds [][]byte
	// LPM ties: two /8s on one 32-bit key, equal explicit priorities,
	// a longer /16, and PrefixLen 0 and > width; bound mid-stream.
	var s seedBuf
	s.put(0, 1, 31, 1, 0)                    // 1 key, lpm/32, default a0, no const entries
	s.add().key(1, 3, 0, 8).entry(1, 1)      // 10.0.0.0/8
	s.put(opAddPrio, 4+1, 2).key(1, 3, 0, 8) // same /8, priority 1
	s.entry(2, 2)
	s.put(opAddPrio, 4+1, 2).key(1, 3, 0, 8).entry(0, 3) // equal priority
	s.put(opBind)
	s.add().key(1, 4, 0, 16).entry(2, 4) // 10.1.0.0/16
	s.lookup(3, 7).lookup(4, 9)
	s.add().key(1, 0, 0, 0).entry(1, 5) // PrefixLen 0
	s.lookup(3, 7).lookup(0, 0)
	s.add().key(1, 5, 0, 40).entry(1, 6) // PrefixLen > width
	s.lookup(3, 7).lookup(4, 9).lookup(0, 0).lookup(2, 1)
	seeds = append(seeds, s)

	// Duplicate exact keys on a 2-key exact table, a don't-care and a
	// short entry, const entries, clear, default, snapshot/restore.
	s = nil
	s.put(1, 0, 15, 0, 47, 0, 2) // exact/16, exact/48, no default, 2 const entries
	s.put(2).key(1, 1, 0, 0).key(1, 2, 0, 0).entry(0, 1)
	s.put(2).key(1, 1, 0, 0).key(0, 0, 0, 0).entry(1, 2)
	s.put(opBind)
	s.add().key(1, 1, 0, 0).key(1, 2, 0, 0).entry(2, 3) // duplicate of a const entry
	s.add().key(1, 2, 5, 0).key(1, 1, 0, 0).entry(1, 4)
	s.add().key(1, 2, 5, 0).key(1, 1, 0, 0).entry(2, 5) // duplicate runtime key
	s.put(opAdd, 0, 1).key(1, 2, 5, 0).entry(0, 6)      // short entry
	s.lookup(1, 0, 2, 0).lookup(2, 5, 1, 0).lookup(2, 5, 3, 3)
	s.put(opSnapshot, opClear).lookup(2, 5, 1, 0)
	s.put(opSetDefault, 1, 9).lookup(2, 5, 1, 0)
	s.put(opRestore).lookup(2, 5, 1, 0)
	seeds = append(seeds, s)

	// LPM plus exact with a masked key, bound before any write.
	s = nil
	s.put(1, 1, 63, 0, 7, 1, 0) // lpm/64, exact/8, default a0
	s.put(opBind)
	s.add().key(1, 7, 0, 16).key(9, 2, 0, 0).entry(1, 1)
	s.add().key(1, 7, 0, 64).key(1, 2, 0, 0).entry(2, 2)
	s.lookup(7, 0, 2, 0).lookup(7, 1, 2, 0)
	seeds = append(seeds, s)

	// Ternary and range keys: everything residual.
	s = nil
	s.put(1, 2, 7, 3, 15, 0, 0) // ternary/8, range/16
	s.add().key(9, 2, 0, 0).key(17, 0, 4, 0).entry(1, 1)
	s.put(opBind).lookup(2, 0, 0, 5)
	seeds = append(seeds, s)
	return seeds
}

// TestClassifierSeeds keeps the fuzz seeds honest: each must classify
// entries into the structure it was written for.
func TestClassifierSeeds(t *testing.T) {
	wants := []struct{ exact, levels, residual bool }{
		{false, true, true}, {true, false, true}, {false, true, false}, {false, false, true},
	}
	for i, seed := range classifierSeeds() {
		run := newClassifierRun(seed)
		for !run.r.done() {
			run.step()
		}
		run.bind()
		c := &run.bound.state.rt
		got := [3]bool{c.exact.n > 0, len(c.levels) > 0, len(c.residual) > 0}
		want := [3]bool{wants[i].exact, wants[i].levels, wants[i].residual}
		if got != want {
			t.Errorf("seed %d: runtime classifier has exact/levels/residual %v, want %v", i, got, want)
		}
	}
}

// BenchmarkLookupScaling times one compiled lookup on an exact and an
// LPM table as their entry count grows. The classifier's target is a
// 2^20-entry table within 2x of a 16-entry one.
func BenchmarkLookupScaling(b *testing.B) {
	for _, kind := range []string{"exact", "lpm"} {
		for _, n := range []int{16, 1 << 10, 1 << 16, 1 << 20} {
			b.Run(kind+"/"+sizeName(n), func(b *testing.B) {
				def := &ir.Table{Name: "t", Keys: []ir.Key{{Expr: ir.Ref("k", 32), MatchKind: kind}},
					Default: &ir.ActionCall{Name: "miss"}}
				ts := NewTables()
				bt := ts.bind("t", def)
				rng := rand.New(rand.NewSource(1))
				// Probes hit entries spread over the whole table, so
				// large tables pay their cache misses.
				probes := make([]uint64, 1<<16)
				for i := 0; i < n; i++ {
					v := uint64(rng.Uint32())
					if kind == "exact" {
						ts.AddEntry("t", []RuntimeKey{Exact(v)}, "hit", uint64(i))
					} else {
						// Three prefix lengths, as a FIB mixes them.
						plen := []int{16, 24, 28}[i%3]
						ts.AddEntry("t", []RuntimeKey{LPM(v&^(1<<(32-plen)-1), plen)}, "hit", uint64(i))
					}
					if i < len(probes) {
						probes[i] = v
					}
				}
				for i := n; i < len(probes); i++ {
					probes[i] = probes[i%n]
				}
				rng.Shuffle(len(probes), func(i, j int) { probes[i], probes[j] = probes[j], probes[i] })
				kv := make([]uint64, 1)
				runtime.GC()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					kv[0] = probes[i&(len(probes)-1)]
					call, _, _ := bt.lookup(kv)
					sinkCall = call
				}
			})
		}
	}
}

var sinkCall *ir.ActionCall

func sizeName(n int) string {
	switch {
	case n >= 1<<20:
		return strconv.Itoa(n>>20) + "Mi"
	case n >= 1<<10:
		return strconv.Itoa(n>>10) + "Ki"
	}
	return strconv.Itoa(n)
}
