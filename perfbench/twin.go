package main

import (
	"fmt"
	"runtime"
	"time"

	"microp4"
	"microp4/internal/flow"
	"microp4/internal/lib"
	"microp4/internal/mat"
	"microp4/internal/midend"
	"microp4/internal/sim"
)

// twin is the compiled engine the Switch wraps, built independently
// from the same program and rules, so the benchmark can time
// sim.Exec.Process on its own and attribute the difference to the
// Switch wrapper.
type twin struct {
	exec *sim.Exec
	pl   *mat.Pipeline
}

func newTwin(prog string, rules []rule) (*twin, error) {
	main, mods, err := lib.CompileProgram(prog)
	if err != nil {
		return nil, err
	}
	res, err := midend.Build(main, mods...)
	if err != nil {
		return nil, err
	}
	if res.Pipeline == nil {
		return nil, fmt.Errorf("%s: no compiled pipeline: %v", prog, res.ComposeErr)
	}
	t := sim.NewTables()
	for _, r := range rules {
		t.AddEntry(r.table, r.keys, r.action, r.args...)
	}
	return &twin{exec: sim.NewExec(res.Pipeline, t), pl: res.Pipeline}, nil
}

// constEntries counts the const entries of the synthesized (non-user)
// tables: the parser and deparser MATs homogenization builds.
func (t *twin) constEntries() int {
	user := make(map[string]bool, len(t.pl.UserTables))
	for _, n := range t.pl.UserTables {
		user[n] = true
	}
	n := 0
	for name, tb := range t.pl.Tables {
		if !user[name] {
			n += len(tb.Entries)
		}
	}
	return n
}

// process runs one packet with the metadata Switch would give it.
func (t *twin) process(pkt []byte, clock uint64) (*sim.ProcResult, error) {
	return t.exec.Process(pkt, sim.Metadata{InTimestamp: clock, PktLen: uint64(len(pkt))})
}

// twinSpec describes a workload's data path for the twin measurement:
// the program, its rules, the standard rules alone, and a fresh copy
// of its packet stream, which must not allocate (the allocation counts
// are taken around it).
type twinSpec struct {
	prog   string
	rules  []rule // the workload's full rule set
	std    []rule // the standard rule set alone
	stream func() func() ([]byte, pktInfo)
	// callPkts is the packets per blocking call: 1 for Process, chunk
	// for ProcessBatchInto, 0 when the call is not a packet call (the
	// twin then replays the packets one Process call at a time).
	callPkts int
	dp       *microp4.Dataplane
}

const chunk = 256

type twinResult struct {
	pubNs, wrapperNs, execNs       float64
	classifyNs                     float64
	allocs, allocBytes, execAllocs float64
	constEntries                   int
	upsertNs                       float64
	pkts                           int
}

// replay returns a stream cycling over a generated packet pool.
func replay(pkts [][]byte, infos []pktInfo) func() func() ([]byte, pktInfo) {
	return func() func() ([]byte, pktInfo) {
		i := 0
		return func() ([]byte, pktInfo) {
			p, info := pkts[i], infos[i]
			i = (i + 1) % len(pkts)
			return p, info
		}
	}
}

// measureTwin replays the workload's stream from its start through
// three engines in lockstep chunks: a fresh public Switch, a twin
// sim.Exec with identical rules, and a bare twin with the standard
// rules only. Each engine accumulates its own flow state from the same
// packet sequence and clock.
func measureTwin(spec twinSpec, d time.Duration) (*twinResult, error) {
	batch := spec.callPkts == chunk
	sw, err := newSwitch(spec.dp, spec.rules, &setupLog{})
	if err != nil {
		return nil, err
	}
	ex, err := newTwin(spec.prog, spec.rules)
	if err != nil {
		return nil, err
	}
	bare, err := newTwin(spec.prog, spec.std)
	if err != nil {
		return nil, err
	}
	next := spec.stream()
	pkts := make([][]byte, chunk)
	results := make([]microp4.BatchResult, chunk)
	var clock uint64
	var pub, exe, bar []int64 // per packet, or per chunk (mean) in batch mode
	fill := func() {
		for i := range pkts {
			pkts[i], _ = next()
		}
	}
	runPub := func(timed bool) error {
		if batch {
			t0 := time.Now()
			res := sw.ProcessBatchInto(pkts, 0, results)
			for i := range res {
				res[i].Release()
			}
			if timed {
				pub = append(pub, int64(time.Since(t0))/chunk)
			}
			for i := range res {
				if res[i].Err != nil {
					return res[i].Err
				}
			}
			return nil
		}
		for _, p := range pkts {
			t0 := time.Now()
			_, err := sw.Process(p, 0)
			if timed {
				pub = append(pub, int64(time.Since(t0)))
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	runExec := func(t *twin, base uint64, out *[]int64) error {
		t0 := time.Now()
		for i, p := range pkts {
			if !batch && out != nil {
				t0 = time.Now()
			}
			res, err := t.process(p, base+uint64(i)+1)
			if err != nil {
				return err
			}
			res.Release()
			if !batch && out != nil {
				*out = append(*out, int64(time.Since(t0)))
			}
		}
		if batch && out != nil {
			*out = append(*out, int64(time.Since(t0))/chunk)
		}
		return nil
	}
	// Per window, each engine's median; then, as for the timed loops,
	// the median over the windows of the machine's usual state, chosen
	// by the public Switch.
	var pubW, exeW, barW []float64
	runtime.GC()
	start := time.Now()
	for win := start; ; {
		fill()
		if err := runPub(true); err != nil {
			return nil, fmt.Errorf("twin switch: %w", err)
		}
		if err := runExec(ex, clock, &exe); err != nil {
			return nil, fmt.Errorf("twin exec: %w", err)
		}
		if err := runExec(bare, clock, &bar); err != nil {
			return nil, fmt.Errorf("bare twin exec: %w", err)
		}
		clock += chunk
		now := time.Now()
		done := now.Sub(start) >= d
		if now.Sub(win) >= window || (done && len(exeW) == 0) {
			pubW = append(pubW, percentile(pub, 50))
			exeW = append(exeW, percentile(exe, 50))
			barW = append(barW, percentile(bar, 50))
			pub, exe, bar, win = pub[:0], exe[:0], bar[:0], now
		}
		if done {
			break
		}
	}
	r := &twinResult{constEntries: ex.constEntries()}
	usual := slowQuarter(pubW)
	r.execNs, r.pubNs = medianAt(exeW, usual), medianAt(pubW, usual)
	r.wrapperNs = r.pubNs - r.execNs
	r.classifyNs = r.execNs - medianAt(barW, usual)
	r.pkts = int(clock)

	// Allocations: each engine alone over the same number of packets,
	// from runtime.MemStats deltas.
	const allocChunks = 32
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < allocChunks; i++ {
		fill()
		if err := runPub(false); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&m1)
	for i := 0; i < allocChunks; i++ {
		fill()
		if err := runExec(ex, clock, nil); err != nil {
			return nil, err
		}
		clock += chunk
	}
	runtime.ReadMemStats(&m2)
	n := float64(allocChunks * chunk)
	r.allocs = float64(m1.Mallocs-m0.Mallocs) / n
	r.allocBytes = float64(m1.TotalAlloc-m0.TotalAlloc) / n
	r.execAllocs = float64(m2.Mallocs-m1.Mallocs) / n
	r.upsertNs = upsertNs(spec.stream())
	return r, nil
}

// upsertNs replays the stream's flow tuples, at the stream's clock
// cadence, into a standalone flowtable sized like NAT64's and returns
// the median per-Upsert time over blocks of chunk upserts.
func upsertNs(next func() ([]byte, pktInfo)) float64 {
	ft := flow.New(8192, 256, 65536)
	keys := make([]flow.Key, 0, chunk)
	dirs := make([]uint64, 0, chunk)
	ticks := make([]uint64, 0, chunk)
	var clock uint64
	var blocks []int64
	start := time.Now()
	for time.Since(start) < 300*time.Millisecond || len(blocks) < 64 {
		keys, dirs, ticks = keys[:0], dirs[:0], ticks[:0]
		for len(keys) < chunk {
			clock++
			if _, info := next(); info.upsert {
				keys = append(keys, info.key)
				dirs = append(dirs, info.dir)
				ticks = append(ticks, clock)
			}
		}
		t0 := time.Now()
		for i, k := range keys {
			ft.Upsert(k, dirs[i], ticks[i])
		}
		blocks = append(blocks, int64(time.Since(t0))/chunk)
	}
	return percentile(blocks, 50)
}
