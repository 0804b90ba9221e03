// Command perfbench is the repository benchmark: four seeded,
// closed-loop workloads driven through the public Switch and
// control-plane APIs, with correctness checks against the reference
// engine and an optional traced run that splits each workload's cost
// across the repository's modules. See README.md in this directory.
//
//	bash perfbench/run.sh --workload l3-bare --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --steady 10 --seconds 25
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// A run times set-up in bursts spread over the whole run, one before
// the timed loop and one after each of its windows but the last, so
// that set-up meets the machine's fast and slow stretches as the timed
// loop does (see loop). A burst sets up a second instance of the
// workload from source text at least once and until setupBurst has
// passed; setup_s is the median of the slowest quarter of the burst
// medians, as the loop takes its window medians. The cold first set-up, of the instance the loop drives, is
// not timed.
const setupBurst = 25 * time.Millisecond

var workloads = map[string]func(seed int64) (workload, error){
	"l3-bare":    func(seed int64) (workload, error) { return newL3(seed, false) },
	"l3-fib1k":   func(seed int64) (workload, error) { return newL3(seed, true) },
	"nat64-edge": newEdge,
	"fabric-2pc": newFabric,
}

var workloadOrder = []string{"l3-bare", "l3-fib1k", "nat64-edge", "fabric-2pc"}

// loopLayers are the modules whose calls the timed loops trace.
var loopLayers = []string{"switch", "sim", "flow", "netsim", "ctrlplane", "bench"}

// layerDef is one per-layer metric of the traced run and the
// end-to-end metric it is expected to move.
type layerDef struct{ name, unit, mapsTo string }

var layerDefs = []layerDef{
	{"frontend.compile_ms", "ms", "setup_s (all)"},
	{"midend.build_ms", "ms", "setup_s (all)"},
	{"midend.const_entries", "count", "call_p50_us on l3-bare, nat64-edge"},
	{"midend.byte_stack_bytes", "B", "call_p50_us on nat64-edge"},
	{"switch.wrapper_ns_per_pkt", "ns", "call_p50_us on l3-bare (flat on l3-fib1k)"},
	{"switch.allocs_per_pkt", "count", "call_p90_us on l3-bare (0 on nat64-edge)"},
	{"switch.alloc_bytes_per_pkt", "B", "call_p90_us on l3-bare (0 on nat64-edge)"},
	{"switch.add_entry_us", "us", "setup_s on l3-fib1k; call_p50_us on fabric-2pc"},
	{"switch.checkpoint_us", "us", "call_p50_us on fabric-2pc"},
	{"switch.data_pct", "%", "call_p50_us on fabric-2pc"},
	{"sim.exec_ns_per_pkt", "ns", "call_p50_us on packet workloads"},
	{"sim.classify_ns_per_pkt", "ns", "call_p50_us on l3-fib1k (flat on nat64-edge)"},
	{"sim.exec_allocs_per_pkt", "count", "must stay 0"},
	{"flow.hit_ratio", "ratio", "call_p50_us on nat64-edge"},
	{"flow.inserts_per_kpkt", "count", "call_p90_us on nat64-edge"},
	{"flow.expiries_per_kpkt", "count", "call_p90_us on nat64-edge"},
	{"flow.evictions_per_kpkt", "count", "call_p90_us on nat64-edge"},
	{"flow.occupancy", "count", "call_p90_us on nat64-edge"},
	{"flow.upsert_ns", "ns", "call_p50_us on nat64-edge"},
	{"netsim.steps_per_round", "count", "commit_ticks on fabric-2pc"},
	{"netsim.faults_per_round", "count", "commit_ticks on fabric-2pc"},
	{"netsim.self_pct", "%", "call_p50_us on fabric-2pc"},
	{"ctrlplane.retries_per_txn", "count", "commit_ticks_p99 on fabric-2pc"},
	{"ctrlplane.timeouts_per_txn", "count", "commit_ticks_p99 on fabric-2pc"},
	{"ctrlplane.agent_pct", "%", "call_p50_us on fabric-2pc"},
	{"ctrlplane.stage_ticks", "ticks", "commit_ticks_p50 on fabric-2pc"},
	{"ctrlplane.prepare_ticks", "ticks", "commit_ticks_p50 on fabric-2pc"},
	{"ctrlplane.commit_ticks", "ticks", "commit_ticks_p50 on fabric-2pc"},
	{"ctrlplane.commit_ticks_p50", "ticks", "call_p50_us on fabric-2pc"},
	{"ctrlplane.commit_ticks_p99", "ticks", "call_p90_us on fabric-2pc"},
	{"bench.trace_overhead_pct", "%", "traced against untraced call_p50_us"},
}

func main() {
	name := flag.String("workload", "", "workload: l3-bare, l3-fib1k, nat64-edge or fabric-2pc")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 25, "seconds measured per run")
	traced := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	steady := flag.Int("steady", 0, "run every workload this many times (seeds 1..k) and print each metric's spread")
	flag.Parse()
	// One caller on one P: garbage collection then runs inline with the
	// caller rather than on the second CPU, whose availability other
	// tenants of a shared machine decide.
	runtime.GOMAXPROCS(1)
	if *steady > 0 {
		if err := runSteady(*steady, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	mk := workloads[*name]
	if mk == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadOrder, ", "))
		os.Exit(2)
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%d | closed loop, 1 caller, SetWorkers(1), GOMAXPROCS=1 | nproc=%d %s\n",
		*name, *seed, *seconds, *traced, runtime.NumCPU(), runtime.Version())
	r, err := run(*name, mk, *seed, *seconds, *traced == 1)
	if err == nil {
		err = r.print(os.Stdout, *traced == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run sets the workload up repeatedly, verifies it, and times it: the
// whole duration untraced, or in alternating untraced and traced
// windows followed by the twin measurement for the per-layer metrics.
func run(name string, mk func(seed int64) (workload, error), seed int64, seconds float64, traced bool) (*report, error) {
	r := &report{layer: make(map[string]float64), selfUs: make(map[string]float64)}
	w, err := mk(seed)
	if err != nil {
		return nil, err
	}
	ws, err := mk(seed) // the instance set-up bursts rebuild
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if traced {
		tr = newTracer()
		tr.phase = "setup"
	}
	sl := &setupLog{tr: tr}
	if err := w.setup(sl); err != nil {
		return nil, fmt.Errorf("%s: setup: %w", name, err)
	}
	if err := w.verify(r); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}

	setups := 1
	var bursts []float64
	burst := func() {
		if err != nil {
			return
		}
		if tr != nil {
			tr.phase = "setup"
			defer func() { tr.phase = "loop" }()
		}
		var ds []float64
		for begin := time.Now(); len(ds) == 0 || time.Since(begin) < setupBurst; {
			runtime.GC()
			t0 := time.Now()
			if err = ws.setup(sl); err != nil {
				return
			}
			ds = append(ds, time.Since(t0).Seconds())
		}
		runtime.GC()
		setups += len(ds)
		bursts = append(bursts, medianF(ds))
	}
	burst()
	d := time.Duration(seconds * float64(time.Second))
	if traced {
		tr.phase = "loop"
	}
	un, tl := runLoop(w, d, tr, burst)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", name, err)
	}
	r.add("setup_s", medianAt(bursts, slowQuarter(bursts)), "s", setups-1)
	r.add("pkt_rate_kpps", un.rate/1000, "kpps", un.pkts)
	r.add("call_p50_us", un.p50/1000, "us", un.n)
	r.add("call_p90_us", un.p90/1000, "us", un.n)
	for _, l := range []*loop{un, tl} {
		if l != nil {
			r.attempted += l.attempted
			r.failed += l.failed
		}
	}
	r.also("fail_ratio", float64(r.failed)/float64(r.attempted), "ratio", int(r.attempted))
	if err := w.extras(r, un, tl); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	r.correct = r.failed == 0
	if f := w.firstFailure(); f != "" {
		r.note("first failure: %s", f)
	}
	if !traced {
		return r, nil
	}

	r.layer["frontend.compile_ms"] = medianF(sl.compile)
	r.layer["midend.build_ms"] = medianF(sl.build)
	r.layer["switch.add_entry_us"] = percentile(sl.addEntry, 50) / 1000
	r.selfUs["frontend"] = float64(tr.selfNs("setup", "frontend")) / 1e3 / float64(setups)
	r.selfUs["midend"] = float64(tr.selfNs("setup", "midend")) / 1e3 / float64(setups)
	for _, layer := range loopLayers {
		r.selfUs[layer] = float64(tr.selfNs("loop", layer)) / 1e3 / float64(tl.n)
	}
	// Traced and untraced windows alternate, so both figures come from
	// the same stretches of the machine's states.
	r.layer["bench.trace_overhead_pct"] = (tl.p50/un.p50 - 1) * 100

	cp := w.checkpointTarget()
	var cps []int64
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		cp.Checkpoint()
		cps = append(cps, int64(time.Since(t0)))
	}
	r.layer["switch.checkpoint_us"] = percentile(cps, 50) / 1000

	spec := w.twinSpec()
	tw, err := measureTwin(spec, d/4)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	r.layer["midend.const_entries"] = float64(tw.constEntries)
	r.layer["midend.byte_stack_bytes"] = float64(spec.dp.Stats().ByteStack)
	r.layer["switch.wrapper_ns_per_pkt"] = tw.wrapperNs
	r.layer["switch.allocs_per_pkt"] = tw.allocs
	r.layer["switch.alloc_bytes_per_pkt"] = tw.allocBytes
	r.layer["sim.exec_ns_per_pkt"] = tw.execNs
	r.layer["sim.classify_ns_per_pkt"] = tw.classifyNs
	r.layer["sim.exec_allocs_per_pkt"] = tw.execAllocs
	r.layer["flow.upsert_ns"] = tw.upsertNs

	if spec.callPkts > 0 {
		// The packet workloads' calls have only switch spans; the twin
		// splits their self time between the engine and the wrapper.
		simShare := tw.execNs / tw.pubNs
		r.selfUs["sim"] = r.selfUs["switch"] * simShare
		r.selfUs["switch"] -= r.selfUs["sim"]
		r.note("twin (same chunks, interleaved): sim.exec %.0f ns + switch.wrapper %.0f ns = public Switch p50 %.0f ns per packet; switch span self time split %.0f%% sim, %.0f%% switch",
			tw.execNs, tw.wrapperNs, tw.pubNs, simShare*100, (1-simShare)*100)
	}
	var parts []string
	for _, layer := range loopLayers {
		if r.selfUs[layer] > 0 {
			parts = append(parts, fmt.Sprintf("%s %.3f", layer, r.selfUs[layer]))
		}
	}
	r.note("accounting (%d untraced and %d traced windows, interleaved): layer self us per call: %s; their per-call sum has p50 %.0f ns, the untraced call p50 %.0f ns plus bench.trace_overhead_pct %+.2f%%",
		len(un.p50s), len(tl.p50s), strings.Join(parts, ", "), tl.p50, un.p50, r.layer["bench.trace_overhead_pct"])
	r.note("twin: %d packets (switch vs sim.Exec vs bare sim.Exec)", tw.pkts)

	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err := tr.writeSpans(path); err != nil {
		return nil, err
	}
	r.note("spans: %d kept of %d recorded, written to %s", len(tr.kept), tr.nextID, path)
	return r, nil
}

// benchmarkFile is the subset of BENCHMARK.json the steadiness
// command reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSteady runs each workload k times untraced in fresh processes,
// seeds 1..k, and prints per metric the median, the quartiles, and the
// spread (q3-q1)/median against the metric's bound in BENCHMARK.json.
func runSteady(k int, seconds float64) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := make(map[string]float64)
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, name := range workloadOrder {
		values := make(map[string][]float64)
		var order []string
		for s := 1; s <= k; s++ {
			cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(s),
				"--seconds", fmt.Sprint(seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, s, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res resultOut
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: last line: %w", name, s, err)
			}
			if !res.Correct || res.Failed != 0 {
				return fmt.Errorf("%s seed %d: correct=%v failed=%d of %d", name, s, res.Correct, res.Failed, res.Attempted)
			}
			for m, v := range res.Metrics {
				if values[m] == nil {
					order = append(order, m)
				}
				values[m] = append(values[m], v.Value)
			}
		}
		sort.Strings(order)
		fmt.Printf("%s: %d runs of %gs\n", name, k, seconds)
		fmt.Printf("  %-30s %12s %12s %12s %8s %8s  %s\n", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
		for _, m := range order {
			q1, q2, q3 := quartiles(values[m])
			spread := (q3 - q1) / q2
			b, ok := bounds[m]
			verdict := ""
			switch {
			case !ok:
			case spread < b/3:
				verdict = "steady (< bound/3)"
			case spread <= b:
				verdict = "within bound"
			default:
				verdict = "TOO WIDE"
			}
			fmt.Printf("  %-30s %12.4f %12.4f %12.4f %8.4f %8.3f  %s\n", m, q1, q2, q3, spread, b, verdict)
		}
	}
	return nil
}
