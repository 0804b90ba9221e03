package main

import (
	"fmt"
	"time"

	"microp4"
	"microp4/internal/flow"
)

const edgeLockstep = 12 // batches checked against the reference engine

// edge is the nat64-edge workload: the P10 carrier edge (Decap → NAT64
// → L3) with its standard rules, driven with ProcessBatchInto in
// batches of 256 and every result released.
type edge struct {
	failLog
	seed    int64
	src     *sources
	rules   []rule
	dp      *microp4.Dataplane
	sw      *microp4.Switch
	gen     *edgeGen
	batch   [][]byte
	infos   []pktInfo
	results []microp4.BatchResult
	ft      *flow.Table
	ft0     flow.Counters // counters when timing started
	trace   uint64
}

func newEdge(seed int64) (workload, error) {
	src, err := loadSources("P10")
	if err != nil {
		return nil, err
	}
	return &edge{seed: seed, src: src, rules: libRules("P10"),
		batch: make([][]byte, chunk), infos: make([]pktInfo, chunk),
		results: make([]microp4.BatchResult, chunk)}, nil
}

func (w *edge) setup(sl *setupLog) error {
	dp, err := w.src.compile(sl)
	if err != nil {
		return err
	}
	sw, err := newSwitch(dp, w.rules, sl)
	w.dp, w.sw = dp, sw
	return err
}

func (w *edge) fill() {
	for i := range w.batch {
		w.batch[i], w.infos[i] = w.gen.next()
	}
}

// verify starts the stream and runs its first batches in lockstep
// through the compiled switch (ProcessBatchInto) and an EngineReference
// switch (Process); both accumulate flow state.
func (w *edge) verify(r *report) error {
	paths := w.sw.FlowTablePaths()
	if len(paths) != 1 {
		return fmt.Errorf("P10 declares %d flowtables, want 1", len(paths))
	}
	w.ft = w.sw.FlowTable(paths[0])
	ref := w.dp.NewSwitchWith(microp4.EngineReference)
	if err := installRules(ref, w.rules, &setupLog{}); err != nil {
		return err
	}
	w.gen = newEdgeGen(w.seed)
	for b := 0; b < edgeLockstep; b++ {
		w.fill()
		res := w.sw.ProcessBatchInto(w.batch, 0, w.results)
		for i := range res {
			want, rerr := ref.Process(w.batch[i], 0)
			if err := lockstepDiff(res[i].Out, res[i].Err, want, rerr, w.infos[i]); err != nil {
				return fmt.Errorf("lockstep batch %d packet %d: %w", b, i, err)
			}
			res[i].Release()
		}
	}
	r.note("lockstep: %d packets in %d batches, compiled ProcessBatchInto vs EngineReference Process: 0 mismatches",
		edgeLockstep*chunk, edgeLockstep)
	w.ft0 = w.ft.Stats()
	return nil
}

func (w *edge) step(tr *tracer) stepResult {
	w.fill()
	w.trace++
	tr.begin("switch.ProcessBatchInto", w.trace)
	t0 := time.Now()
	res := w.sw.ProcessBatchInto(w.batch, 0, w.results)
	d := time.Since(t0)
	tr.end()
	s := stepResult{pkts: len(res), attempted: len(res)}
	for i := range res {
		if res[i].Err != nil || !expected(res[i].Out, w.infos[i]) {
			s.failed++
			w.fail("batch %d packet %d: error %v, outputs %d, want %d bytes on port %d",
				w.trace, i, res[i].Err, len(res[i].Out), w.infos[i].length, w.infos[i].port)
		}
	}
	tr.begin("switch.BatchResult.Release", w.trace)
	t1 := time.Now()
	for i := range res {
		res[i].Release()
	}
	s.d = d + time.Since(t1)
	tr.end()
	return s
}

func (w *edge) minSteps() int { return 100 }

func (w *edge) twinSpec() twinSpec {
	return twinSpec{prog: "P10", rules: w.rules, std: w.rules, dp: w.dp, callPkts: chunk,
		stream: func() func() ([]byte, pktInfo) { return newEdgeGen(w.seed).next },
	}
}

func (w *edge) checkpointTarget() *microp4.Switch { return w.sw }

func (w *edge) extras(r *report, un, tl *loop) error {
	r.also("batch_p50_us", un.p50/1000, "us", un.n)
	r.also("batch_p90_us", un.p90/1000, "us", un.n)
	pkts := float64(un.pkts)
	if tl != nil {
		pkts += float64(tl.pkts)
	}
	c := w.ft.Stats()
	hits, misses := float64(c.Hits-w.ft0.Hits), float64(c.Misses-w.ft0.Misses)
	r.layer["flow.hit_ratio"] = hits / (hits + misses)
	r.layer["flow.inserts_per_kpkt"] = float64(c.Inserts-w.ft0.Inserts) / pkts * 1000
	r.layer["flow.expiries_per_kpkt"] = float64(c.Expiries-w.ft0.Expiries) / pkts * 1000
	r.layer["flow.evictions_per_kpkt"] = float64(c.Evictions-w.ft0.Evictions) / pkts * 1000
	r.layer["flow.occupancy"] = float64(w.ft.Len())
	r.note("flowtable: %d passes of %d flows, %d entries live", w.gen.passes, edgeFlows, w.ft.Len())
	return nil
}
