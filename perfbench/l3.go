package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"microp4"
)

const (
	l3Pool     = 4096 // generated frames, replayed in order
	l3Lockstep = 2048 // packets checked against the reference engine
)

// l3 is the l3-bare and l3-fib1k workload: the P4 modular router
// (Eth+IPv4+IPv6), one Switch.Process call per 64-byte frame. With fib
// set, 1,024 IPv4 /24 and 256 IPv6 /48 routes over 64 next hops are
// installed on top of the standard rules and the traffic targets them.
// (A 4,096+1,024-route FIB makes each lookup scan past the caches, and
// its latency then flips 2x with other tenants' load on this machine.)
type l3 struct {
	failLog
	src        *sources
	rules, std []rule
	pkts       [][]byte
	infos      []pktInfo
	dp         *microp4.Dataplane
	sw         *microp4.Switch
	next       int
	trace      uint64
}

func newL3(seed int64, withFIB bool) (workload, error) {
	src, err := loadSources("P4")
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	w := &l3{src: src, std: libRules("P4")}
	w.rules = w.std
	f := standardFIB()
	if withFIB {
		f = genFIB(rng, 1024, 256, 64, 1000, []uint64{1, 2, 3})
		w.rules = append(append([]rule(nil), w.std...), f.rules...)
	}
	w.pkts, w.infos = l3Traffic(rng, l3Pool, f)
	return w, nil
}

func (w *l3) setup(sl *setupLog) error {
	dp, err := w.src.compile(sl)
	if err != nil {
		return err
	}
	sw, err := newSwitch(dp, w.rules, sl)
	w.dp, w.sw = dp, sw
	return err
}

func (w *l3) verify(r *report) error {
	ref := w.dp.NewSwitchWith(microp4.EngineReference)
	if err := installRules(ref, w.rules, &setupLog{}); err != nil {
		return err
	}
	for i := 0; i < l3Lockstep; i++ {
		p, info := w.pkts[w.next], w.infos[w.next]
		w.next = (w.next + 1) % len(w.pkts)
		got, err := w.sw.Process(p, 0)
		want, rerr := ref.Process(p, 0)
		if err := lockstepDiff(got, err, want, rerr, info); err != nil {
			return fmt.Errorf("lockstep packet %d: %w", i, err)
		}
	}
	r.note("lockstep: %d packets, compiled Switch vs EngineReference Switch: 0 mismatches", l3Lockstep)
	return nil
}

// lockstepDiff compares the compiled engine's outcome with the
// reference engine's byte for byte, then with the generator's expected
// port and length.
func lockstepDiff(got []microp4.Output, err error, want []microp4.Output, rerr error, info pktInfo) error {
	if err != nil || rerr != nil {
		return fmt.Errorf("errors: compiled %v, reference %v", err, rerr)
	}
	if len(got) != len(want) {
		return fmt.Errorf("compiled sent %d packets, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Port != want[i].Port || !bytes.Equal(got[i].Data, want[i].Data) {
			return fmt.Errorf("output %d differs: compiled port %d %x, reference port %d %x",
				i, got[i].Port, got[i].Data, want[i].Port, want[i].Data)
		}
	}
	if !expected(got, info) {
		return fmt.Errorf("outputs %d, want one packet of %d bytes on port %d", len(got), info.length, info.port)
	}
	return nil
}

// expected reports whether outs is the single packet the generator
// expects: its port and its length.
func expected(outs []microp4.Output, info pktInfo) bool {
	return len(outs) == 1 && outs[0].Port == info.port && len(outs[0].Data) == info.length
}

func (w *l3) step(tr *tracer) stepResult {
	p, info := w.pkts[w.next], w.infos[w.next]
	w.next = (w.next + 1) % len(w.pkts)
	w.trace++
	tr.begin("switch.Process", w.trace)
	t0 := time.Now()
	out, err := w.sw.Process(p, 0)
	d := time.Since(t0)
	tr.end()
	s := stepResult{d: d, pkts: 1, attempted: 1}
	if err != nil || !expected(out, info) {
		s.failed = 1
		w.fail("packet %d: error %v, outputs %d, want %d bytes on port %d", w.next, err, len(out), info.length, info.port)
	}
	return s
}

func (w *l3) minSteps() int { return 1000 }

func (w *l3) twinSpec() twinSpec {
	return twinSpec{prog: "P4", rules: w.rules, std: w.std, dp: w.dp, callPkts: 1,
		stream: replay(w.pkts, w.infos),
	}
}

func (w *l3) checkpointTarget() *microp4.Switch { return w.sw }

func (w *l3) extras(r *report, un, _ *loop) error {
	r.also("pkt_p50_us", un.p50/1000, "us", un.n)
	r.also("pkt_p90_us", un.p90/1000, "us", un.n)
	return nil
}
