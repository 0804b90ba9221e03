package main

import (
	"fmt"
	"math/rand"
	"time"

	"microp4"
	"microp4/internal/ctrlplane"
	"microp4/internal/lib"
	"microp4/internal/netsim"
	"microp4/internal/obs"
	"microp4/internal/pkt"
	"microp4/internal/sim"
	"microp4/internal/trace"
)

const (
	fabricSwitches = 3
	fabricCtrlPort = 9
	fabricData     = 16   // data packets per round, IPv4:IPv6 3:1
	fabricV6Routes = 8    // IPv6 route set replaced by each round's transaction
	fabricTickRuns = 1024 // rounds whose commit ticks are reported
	fabricV6NhBase = 3000
)

var fabricNames = [fabricSwitches]string{"s1", "s2", "s3"}

// fabric is the fabric-2pc workload: a ctrlplane.Client and three P4
// switches wrapped in ctrlplane.Agent on a netsim line s1–s2–s3. Each
// round injects data packets at s1, runs one two-phase-commit
// Transaction replacing the IPv6 route set on all three switches, and
// runs the network until it is quiet. Control links drop 10%,
// duplicate 5% and reorder 5%; data links are lossless.
type fabric struct {
	failLog
	seed  int64
	src   *sources
	rules []rule // per switch: standard rules, IPv4 FIB, IPv6 next hops, first IPv6 set
	std   []rule
	v4    []route
	v6    []route // the committed IPv6 route set
	rng   *rand.Rand

	dp      *microp4.Dataplane
	net     *netsim.Network
	client  *ctrlplane.Client
	metrics *ctrlplane.Metrics
	sws     [fabricSwitches]*microp4.Switch
	rec     *trace.Recorder

	// Per-run accounting.
	rounds, steps, faults int
	ticks                 []int64 // commit ticks of the first fabricTickRuns rounds
	tr                    *tracer
	ctrlNs, dataNs, runNs int64 // traced time inside agent calls and Run
	tracedRounds          int
}

// timedAgent is a thin netsim.Processor around an Agent that times
// each call from outside while a tracer is attached.
type timedAgent struct {
	a *ctrlplane.Agent
	w *fabric
}

func (t *timedAgent) Process(p []byte, inPort uint64) ([]microp4.Output, error) {
	tr := t.w.tr
	if tr == nil {
		return t.a.Process(p, inPort)
	}
	name := "switch.Process(agent data port)"
	if inPort == fabricCtrlPort {
		name = "ctrlplane.Agent.Process"
	}
	tr.begin(name, 0)
	t0 := time.Now()
	out, err := t.a.Process(p, inPort)
	d := int64(time.Since(t0))
	tr.end()
	if inPort == fabricCtrlPort {
		t.w.ctrlNs += d
	} else {
		t.w.dataNs += d
	}
	return out, err
}

func newFabric(seed int64) (workload, error) {
	src, err := loadSources("P4")
	if err != nil {
		return nil, err
	}
	w := &fabric{seed: seed, src: src, std: libRules("P4"), rng: rand.New(rand.NewSource(seed ^ 0xfab))}
	f := genFIB(w.rng, 1024, 0, 16, 2000, []uint64{lib.PortA})
	w.v4 = f.routes
	w.rules = append(append([]rule(nil), w.std...), f.rules...)
	for k := 0; k < fabricV6Routes; k++ {
		nh := uint64(fabricV6NhBase + k)
		w.rules = append(w.rules, rule{"forward_tbl", []sim.RuntimeKey{sim.Exact(nh)}, "forward",
			[]uint64{lib.DmacA + nh, lib.SmacA, lib.PortV6}})
	}
	w.v6 = w.nextV6Set()
	for _, r := range w.v6[1:] { // the covering /32 is a standard rule
		w.rules = append(w.rules, r.rule())
	}
	return w, nil
}

// nextV6Set draws a route set: the covering NetV6Hi/32 plus seven
// distinct /48s, each to its own next hop (and so its own MAC), all
// forwarding toward s3. Data sent under either the old or the new set
// takes the same path, so no packet is lost while a commit is applied
// switch by switch; the probes tell the sets apart by MAC.
func (w *fabric) nextV6Set() []route {
	set := []route{{v6: true, hi: lib.NetV6Hi, plen: 32, nh: lib.NhV6}}
	seen := make(map[uint64]bool)
	for k := 1; k < fabricV6Routes; k++ {
		p := uint64(lib.NetV6Hi) | uint64(w.rng.Intn(1<<16))<<16
		if seen[p] {
			k--
			continue
		}
		seen[p] = true
		set = append(set, route{v6: true, hi: p, plen: 48, nh: uint64(fabricV6NhBase + k)})
	}
	return set
}

func (w *fabric) setup(sl *setupLog) error {
	dp, err := w.src.compile(sl)
	if err != nil {
		return err
	}
	w.dp = dp
	for i := range w.sws {
		if w.sws[i], err = newSwitch(dp, w.rules, sl); err != nil {
			return err
		}
	}
	sl.tr.begin("netsim.wiring", 0)
	defer sl.tr.end()
	w.net = netsim.New(uint64(w.seed))
	// Metrics are required: Client.onTimeout dereferences a nil *Metrics.
	w.metrics = ctrlplane.NewMetrics(obs.NewRegistry())
	w.client, err = ctrlplane.NewClient(w.net, "ctl", ctrlplane.Config{Seed: uint64(w.seed), Metrics: w.metrics, MaxAttempts: 16})
	if err != nil {
		return err
	}
	lossy := netsim.FaultModel{Drop: 0.10, Duplicate: 0.05, Reorder: 0.05}
	for i, name := range fabricNames {
		agent := ctrlplane.NewAgent(w.sws[i], ctrlplane.AgentConfig{Name: name, CtrlPort: fabricCtrlPort,
			Metrics: w.metrics, Bus: w.net.Bus()})
		if err := w.net.AddSwitch(name, &timedAgent{a: agent, w: w}); err != nil {
			return err
		}
		if err := w.client.AddPeer(name, uint64(i+1)); err != nil {
			return err
		}
		if err := w.net.Connect("ctl", uint64(i+1), name, fabricCtrlPort, lossy); err != nil {
			return err
		}
	}
	// IPv4 leaves on port 1 and IPv6 on port 3 at every hop; s3's are
	// unconnected, so packets egress there.
	for _, l := range [][4]any{{"s1", 1, "s2", 4}, {"s1", 3, "s2", 5}, {"s2", 1, "s3", 4}, {"s2", 3, "s3", 5}} {
		if err := w.net.Connect(l[0].(string), uint64(l[1].(int)), l[2].(string), uint64(l[3].(int)), netsim.FaultModel{}); err != nil {
			return err
		}
	}
	return nil
}

// dataPacket draws one data packet: IPv4 to a FIB route (3 in 4) or
// IPv6 to the committed set.
func (w *fabric) dataPacket(rng *rand.Rand) ([]byte, pktInfo) {
	if rng.Intn(4) == 3 {
		return l3Packet(rng, w.v6[rng.Intn(len(w.v6))], lib.PortV6)
	}
	return l3Packet(rng, w.v4[rng.Intn(len(w.v4))], lib.PortA)
}

// probe checks that sw forwards a host of every /48 in set by that
// route's next hop: port 3 and the next hop's MAC. (A host drawn under
// the covering /32 may fall inside a /48, so the /32 is not probed.)
func probe(sw *microp4.Switch, set []route, rng *rand.Rand) error {
	for _, r := range set[1:] {
		p, _ := l3Packet(rng, r, lib.PortV6)
		out, err := sw.Process(p, 0)
		if err != nil {
			return err
		}
		if len(out) != 1 || out[0].Port != lib.PortV6 {
			return fmt.Errorf("route %#x/%d: outputs %v", r.hi, r.plen, out)
		}
		if got, dmac := pkt.EthDst(out[0].Data), lib.DmacA+r.nh; got != dmac {
			return fmt.Errorf("route %#x/%d: dmac %#x, want %#x", r.hi, r.plen, got, dmac)
		}
	}
	return nil
}

// verify checks s1's compiled engine against the reference engine on
// data traffic, and that every switch holds the initial route set.
func (w *fabric) verify(r *report) error {
	ref := w.dp.NewSwitchWith(microp4.EngineReference)
	if err := installRules(ref, w.rules, &setupLog{}); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(w.seed ^ 0x10c))
	const n = 1024
	for i := 0; i < n; i++ {
		p, info := w.dataPacket(rng)
		got, err := w.sws[0].Process(p, 0)
		want, rerr := ref.Process(p, 0)
		if err := lockstepDiff(got, err, want, rerr, pktInfo{port: info.port, length: info.length}); err != nil {
			return fmt.Errorf("lockstep packet %d: %w", i, err)
		}
	}
	for i, sw := range w.sws {
		if err := probe(sw, w.v6, rng); err != nil {
			return fmt.Errorf("%s initial route set: %w", fabricNames[i], err)
		}
	}
	r.note("lockstep: %d data packets, compiled s1 vs EngineReference Switch: 0 mismatches; initial route set present on all switches", n)
	return nil
}

func (w *fabric) plan(set []route) []ctrlplane.TxnOp {
	var ops []ctrlplane.TxnOp
	for _, peer := range fabricNames {
		ops = append(ops, ctrlplane.TxnOp{Peer: peer, Op: ctrlplane.ClearTable(v6LPM)})
		for _, r := range set {
			ops = append(ops, ctrlplane.TxnOp{Peer: peer, Op: ctrlplane.AddEntry(v6LPM,
				[]ctrlplane.CtrlKey{ctrlplane.LPM(r.hi, r.plen)}, v6Action, r.nh)})
		}
	}
	return ops
}

func (w *fabric) faultCount() int {
	n := 0
	for _, c := range w.net.Stats().Faults {
		n += c
	}
	return n
}

// step runs one round: inject, Transaction, Run until quiet. Only the
// round itself is timed; the checks follow it.
func (w *fabric) step(tr *tracer) stepResult {
	w.tr = tr
	// The Client's own phase spans are on in traced rounds only.
	if tr != nil && w.rec == nil {
		w.rec = trace.NewRecorder(1 << 16)
	}
	if tr != nil {
		w.client.SetTracing(w.rec)
	} else {
		w.client.SetTracing(nil)
	}
	w.rounds++
	data := make([][]byte, fabricData)
	nv6 := 0
	for i := range data {
		var info pktInfo
		data[i], info = w.dataPacket(w.rng)
		if info.port == lib.PortV6 {
			nv6++
		}
	}
	set := w.nextV6Set()
	ops := w.plan(set)
	egBefore := len(w.net.Egress("s3"))
	steps0, faults0 := w.net.Stats().Steps, w.faultCount()
	var res ctrlplane.TxnResult
	var done bool
	var tStart, tDone uint64

	tr.begin("bench.round", uint64(w.rounds))
	t0 := time.Now()
	var err error
	for _, p := range data {
		tr.begin("netsim.Inject", 0)
		err = w.net.Inject("s1", 0, p)
		tr.end()
		if err != nil {
			break
		}
	}
	tr.begin("ctrlplane.Client.Transaction", 0)
	tStart = w.net.Now()
	if err == nil {
		err = w.client.Transaction(ops, func(r ctrlplane.TxnResult) {
			res, done, tDone = r, true, w.net.Now()
		})
	}
	tr.end()
	tr.begin("netsim.Run", 0)
	t1 := time.Now()
	if err == nil {
		_, err = w.net.Run(0)
	}
	if tr != nil {
		w.runNs += int64(time.Since(t1))
		w.tracedRounds++
	}
	tr.end()
	d := time.Since(t0)
	tr.end()
	w.tr = nil

	w.steps += w.net.Stats().Steps - steps0
	w.faults += w.faultCount() - faults0
	s := stepResult{d: d, attempted: fabricData + 1}
	if err != nil || !done || !res.Committed || len(res.PeerErrs) > 0 {
		s.failed++
		w.fail("round %d: error %v, done %v, committed %v, peer errors %v", w.rounds, err, done, res.Committed, res.PeerErrs)
	} else {
		w.v6 = set
		if len(w.ticks) < fabricTickRuns {
			w.ticks = append(w.ticks, int64(tDone-tStart))
		}
		for i, sw := range w.sws {
			if err := probe(sw, set, w.rng); err != nil {
				s.failed++
				w.fail("round %d: %s after commit: %v", w.rounds, fabricNames[i], err)
				break
			}
		}
	}
	eg := w.net.Egress("s3")[egBefore:]
	var v4, v6 int
	for _, e := range eg {
		switch e.Port {
		case lib.PortA:
			v4++
		case lib.PortV6:
			v6++
		}
	}
	s.pkts = v4 + v6
	if lost := fabricData - s.pkts; lost > 0 || v6 != nv6 || len(eg) != fabricData {
		s.failed += max(lost, 1)
		w.fail("round %d: %d of %d data packets egressed at s3 (%d IPv6, want %d)", w.rounds, len(eg), fabricData, v6, nv6)
	}
	return s
}

func (w *fabric) minSteps() int { return fabricTickRuns }

func (w *fabric) twinSpec() twinSpec {
	rng := rand.New(rand.NewSource(w.seed ^ 0x7e1))
	pkts, infos := make([][]byte, l3Pool), make([]pktInfo, l3Pool)
	for i := range pkts {
		pkts[i], infos[i] = w.dataPacket(rng)
	}
	return twinSpec{prog: "P4", rules: w.rules, std: w.std, dp: w.dp, stream: replay(pkts, infos)}
}

func (w *fabric) checkpointTarget() *microp4.Switch { return w.sws[0] }

func (w *fabric) extras(r *report, un, tl *loop) error {
	rounds := float64(w.rounds)
	r.also("commit_rate_per_s", un.rate/fabricData, "1/s", un.n)
	r.also("commit_ticks_p50", percentile(w.ticks, 50), "ticks", len(w.ticks))
	r.also("commit_ticks_p99", percentile(w.ticks, 99), "ticks", len(w.ticks))
	r.layer["ctrlplane.commit_ticks_p50"] = percentile(w.ticks, 50)
	r.layer["ctrlplane.commit_ticks_p99"] = percentile(w.ticks, 99)
	r.layer["netsim.steps_per_round"] = float64(w.steps) / rounds
	r.layer["netsim.faults_per_round"] = float64(w.faults) / rounds
	r.layer["ctrlplane.retries_per_txn"] = float64(w.metrics.Retries.Value()) / rounds
	r.layer["ctrlplane.timeouts_per_txn"] = float64(w.metrics.Timeouts.Value()) / rounds
	r.note("fabric: %d rounds, commit ticks over the first %d: retries %d, timeouts %d",
		w.rounds, len(w.ticks), w.metrics.Retries.Value(), w.metrics.Timeouts.Value())
	if tl == nil {
		return nil
	}
	pct := func(ns int64) float64 { return float64(ns) / tl.totalNs * 100 }
	self := w.runNs - w.ctrlNs - w.dataNs
	r.layer["switch.data_pct"] = pct(w.dataNs)
	r.layer["ctrlplane.agent_pct"] = pct(w.ctrlNs)
	r.layer["netsim.self_pct"] = pct(self)
	per := float64(w.tracedRounds) * 1000
	r.also("switch.data_us_per_round", float64(w.dataNs)/per, "us", w.tracedRounds)
	r.also("ctrlplane.agent_us_per_txn", float64(w.ctrlNs)/per, "us", w.tracedRounds)
	r.also("netsim.self_us_per_round", float64(self)/per, "us", w.tracedRounds)
	phase := map[string][]int64{}
	for _, sp := range w.rec.Spans() {
		if sp.ParentID != 0 {
			phase[sp.Name] = append(phase[sp.Name], int64(sp.End-sp.Start))
		}
	}
	for _, name := range []string{"stage", "prepare", "commit"} {
		var sum int64
		for _, t := range phase[name] {
			sum += t
		}
		r.layer["ctrlplane."+name+"_ticks"] = float64(sum) / float64(len(phase[name]))
	}
	return nil
}
