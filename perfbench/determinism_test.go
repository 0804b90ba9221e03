package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"
)

// inputs hashes everything a workload feeds the program for a seed:
// its rules and the first packets of its stream.
func inputs(t *testing.T, name string, seed int64) [sha256.Size]byte {
	t.Helper()
	w, err := workloads[name](seed)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	rules := func(rs []rule) {
		for _, r := range rs {
			fmt.Fprintf(h, "%s %v %s %v\n", r.table, r.keys, r.action, r.args)
		}
	}
	switch w := w.(type) {
	case *l3:
		rules(w.rules)
		for _, p := range w.pkts {
			h.Write(p)
		}
	case *edge:
		rules(w.rules)
		g := newEdgeGen(seed)
		for i := 0; i < 3*3*edgeFlows; i++ { // three passes, two of them churned
			p, _ := g.next()
			h.Write(p)
		}
	case *fabric:
		rules(w.rules)
		for round := 0; round < 64; round++ {
			for i := 0; i < fabricData; i++ {
				p, _ := w.dataPacket(w.rng)
				h.Write(p)
			}
			set := w.nextV6Set()
			fmt.Fprintf(h, "%v\n", w.plan(set))
			w.v6 = set
		}
	default:
		t.Fatalf("%s: unknown workload type %T", name, w)
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

func TestInputsDeterministicPerSeed(t *testing.T) {
	for _, name := range workloadOrder {
		a, b := inputs(t, name, 7), inputs(t, name, 7)
		if a != b {
			t.Errorf("%s: seed 7 generated different inputs on two runs", name)
		}
		if c := inputs(t, name, 8); c == a {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", name)
		}
	}
}

// fabricTrace is what a fabric-2pc run must reproduce exactly for a
// seed: per-round commit ticks, retries, timeouts and netsim steps.
type fabricTrace struct {
	Ticks             []int64
	Retries, Timeouts uint64
	Steps, Faults     int
}

func runFabric(t *testing.T, seed int64, rounds int) fabricTrace {
	t.Helper()
	w, err := newFabric(seed)
	if err != nil {
		t.Fatal(err)
	}
	f := w.(*fabric)
	if err := f.setup(&setupLog{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		if s := f.step(nil); s.failed != 0 {
			t.Fatalf("seed %d round %d: %d failures", seed, i, s.failed)
		}
	}
	return fabricTrace{f.ticks, f.metrics.Retries.Value(), f.metrics.Timeouts.Value(), f.steps, f.faults}
}

func TestFabricDeterministicPerSeed(t *testing.T) {
	a, b := runFabric(t, 7, 64), runFabric(t, 7, 64)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("seed 7 differs between runs:\n%+v\n%+v", a, b)
	}
	if a.Retries == 0 || a.Faults == 0 {
		t.Errorf("no retries (%d) or faults (%d): the control links are not lossy", a.Retries, a.Faults)
	}
	if c := runFabric(t, 8, 64); reflect.DeepEqual(a.Ticks, c.Ticks) {
		t.Errorf("seeds 7 and 8 gave identical commit ticks")
	}
}

// TestMetricsMatchBenchmarkFile runs each kind of run briefly and checks
// that its result names exactly the metrics BENCHMARK.json declares,
// with the same units.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	// The traced run writes its spans under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, traced := range []bool{false, true} {
		want := map[string]string{}
		decl := bf.EndToEnd
		if traced {
			decl = bf.PerLayer
		}
		for _, m := range decl {
			want[m.Name] = m.Unit
		}
		r, err := run("l3-bare", workloads["l3-bare"], 1, 0.2, traced)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := r.print(&buf, traced); err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
		var res resultOut
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			t.Fatal(err)
		}
		got := map[string]string{}
		for name, m := range res.Metrics {
			got[name] = m.Unit
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("traced=%v: metrics %v, BENCHMARK.json declares %v", traced, keys(got), keys(want))
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("traced=%v: correct=%v failed=%d attempted=%d", traced, res.Correct, res.Failed, res.Attempted)
		}
	}
}

func keys(m map[string]string) []string {
	var out []string
	for k, v := range m {
		out = append(out, k+"["+v+"]")
	}
	sort.Strings(out)
	return out
}
