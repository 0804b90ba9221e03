package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"microp4"
)

// workload is one benchmark scenario driven through the public API.
type workload interface {
	// setup builds a fresh instance from µP4 source text to ready for
	// traffic; the harness times it as setup_s.
	setup(sl *setupLog) error
	// verify checks correctness before timing (lockstep against the
	// reference engine, or a probe); an error aborts the run.
	verify(r *report) error
	// step makes one blocking public call, timing only that call, and
	// checks its outputs.
	step(tr *tracer) stepResult
	// minSteps is the fewest steps a timed loop makes, whatever its
	// duration.
	minSteps() int
	// twinSpec describes the workload for the twin-engine measurement.
	twinSpec() twinSpec
	// checkpointTarget is the switch whose Checkpoint is timed.
	checkpointTarget() *microp4.Switch
	// extras adds the workload's own figures after the timed loops.
	extras(r *report, untraced, traced *loop) error
	// firstFailure describes the first failed operation ("" if none).
	firstFailure() string
}

// failLog keeps the first failure a workload saw, for the report.
type failLog struct{ first string }

func (f *failLog) fail(format string, args ...any) {
	if f.first == "" {
		f.first = fmt.Sprintf(format, args...)
	}
}

func (f *failLog) firstFailure() string { return f.first }

type stepResult struct {
	d         time.Duration
	pkts      int // packets completed by the call
	attempted int // operations checked
	failed    int // operations that failed
}

// loop summarizes one timed closed loop: one caller, the next call
// issued when the previous one returned.
//
// The loop is cut into windows, and each figure is taken over the
// windows' own figures. The machine is shared: other tenants switch it
// between its usual state and a faster one for bursts of a second or
// so, up to twice as fast, and the share of time in each differs
// widely from run to run. So each figure is taken over the windows of
// the usual state: the quarter of the windows with the slowest medians
// (see slowQuarter), over which the median call time, the 90th
// percentile and the rate are each the median of the windows' own.
type loop struct {
	n         int     // steps timed
	p50, p90  float64 // ns per call
	rate      float64 // packets per second of call time
	totalNs   float64 // summed step time
	pkts      int
	attempted int64
	failed    int64
	// Per window, in order.
	p50s, p90s, rates []float64
}

// window holds a few hundred calls on the slowest workload.
const window = 250 * time.Millisecond

// latencies is the buffer every window records into, allocated before
// set-up: it holds the benchmark's heap at the same size in every loop
// and run, and with it the garbage-collection pacing the program's own
// allocations see. A window that outruns it stops recording, not
// running.
var latencies = make([]int64, 0, 1<<22)

// runLoop times w for d and returns the untraced loop, calling between
// after each window but the last, outside the timed calls. With a tracer
// it alternates untraced and traced windows, starting untraced and
// ending traced, so both sample the same stretches of the machine's
// fast and slow states; the traced windows come back as a second loop,
// in which a call is timed as the total of its root spans: the sum of
// the layer self times the spans attribute to it.
func runLoop(w workload, d time.Duration, tr *tracer, between func()) (un, tl *loop) {
	runtime.GC()
	lat := latencies[:0]
	un = &loop{}
	if tr != nil {
		tl = &loop{}
	}
	cur, curTr := un, (*tracer)(nil)
	steps := 0
	start := time.Now()
	win, winPkts, winNs := start, 0, int64(0)
	for {
		var root int64
		if curTr != nil {
			root = curTr.rootNs
		}
		s := w.step(curTr)
		if curTr != nil {
			s.d = time.Duration(curTr.rootNs - root)
		}
		if len(lat) < cap(lat) {
			lat = append(lat, int64(s.d))
		}
		steps++
		cur.n++
		cur.totalNs += float64(s.d)
		cur.pkts += s.pkts
		cur.attempted += int64(s.attempted)
		cur.failed += int64(s.failed)
		winPkts += s.pkts
		winNs += int64(s.d)
		now := time.Now()
		done := now.Sub(start) >= d && steps >= w.minSteps()
		// Untraced, a partial last window counts only if it is the only
		// one; traced, windows are whole and the loop ends on a traced one.
		if now.Sub(win) >= window || (tl == nil && done && len(un.p50s) == 0) {
			slices.Sort(lat)
			cur.p50s = append(cur.p50s, sortedPercentile(lat, 50))
			cur.p90s = append(cur.p90s, sortedPercentile(lat, 90))
			cur.rates = append(cur.rates, float64(winPkts)/time.Duration(winNs).Seconds())
			lat, win, winPkts, winNs = lat[:0], now, 0, 0
			if done && (tl == nil || cur == tl) {
				un.finish()
				if tl != nil {
					tl.finish()
				}
				return un, tl
			}
			between()
			if tl != nil {
				if cur == un {
					cur, curTr = tl, tr
				} else {
					cur, curTr = un, nil
				}
			}
		}
	}
}

func (l *loop) finish() {
	usual := slowQuarter(l.p50s)
	l.p50, l.p90, l.rate = medianAt(l.p50s, usual), medianAt(l.p90s, usual), medianAt(l.rates, usual)
}

// slowQuarter returns the indices of the quarter of v (at least one)
// with the largest values: for per-window medians of call times, the
// windows of the machine's usual, slower state, which a run meets for
// at least a quarter of its time unless the machine stays in its fast
// state throughout.
func slowQuarter(v []float64) []int {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(v[a], v[b]) })
	return idx[len(idx)-max(1, (len(idx)+2)/4):]
}

// medianAt is the median of v at the indices idx.
func medianAt(v []float64, idx []int) float64 {
	s := make([]float64, len(idx))
	for i, j := range idx {
		s[i] = v[j]
	}
	return medianF(s)
}

// Statistics.

// percentile interpolates linearly between order statistics.
func percentile[T int64 | float64](v []T, p float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return sortedPercentile(s, p)
}

func sortedPercentile[T int64 | float64](s []T, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	x := p / 100 * float64(len(s)-1)
	i := int(x)
	if i+1 >= len(s) {
		return float64(s[len(s)-1])
	}
	return float64(s[i]) + (x-float64(i))*float64(s[i+1]-s[i])
}

func medianF(v []float64) float64 { return percentile(v, 50) }

// quartiles matches Python's statistics.quantiles(v, n=4), whose
// default method is "exclusive".
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// Report.

type figure struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the value
}

type report struct {
	correct           bool
	attempted, failed int64
	notes             []string
	e2e               []figure
	extra             []figure // workload-specific figures, printed but not in the JSON
	layer             map[string]float64
	selfUs            map[string]float64 // layer → self µs per op in its phase
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) add(name string, v float64, unit string, n int) {
	r.e2e = append(r.e2e, figure{name, v, unit, n})
}

func (r *report) also(name string, v float64, unit string, n int) {
	r.extra = append(r.extra, figure{name, v, unit, n})
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// print writes the human-readable report followed by the one-line JSON
// result (the last line of standard output).
func (r *report) print(w io.Writer, traced bool) error {
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	fmt.Fprintf(w, "  end-to-end metrics:\n")
	for _, f := range r.e2e {
		fmt.Fprintf(w, "    %-22s %14.4f %-6s n=%d\n", f.name, f.value, f.unit, f.n)
	}
	fmt.Fprintf(w, "  workload figures (named as in the benchmark doc):\n")
	for _, f := range r.extra {
		fmt.Fprintf(w, "    %-22s %14.4f %-6s n=%d\n", f.name, f.value, f.unit, f.n)
	}
	out := resultOut{Correct: r.correct, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricOut)}
	if traced {
		fmt.Fprintf(w, "  per-layer metrics (traced run):\n")
		fmt.Fprintf(w, "    %-30s %14s %-6s %12s  %s\n", "metric", "value", "unit", "self us/op", "maps to")
		for _, d := range layerDefs {
			layer := d.name[:strings.IndexByte(d.name, '.')]
			fmt.Fprintf(w, "    %-30s %14.4f %-6s %12.3f  %s\n", d.name, r.layer[d.name], d.unit, r.selfUs[layer], d.mapsTo)
			out.Metrics[d.name] = metricOut{r.layer[d.name], d.unit}
		}
	} else {
		for _, f := range r.e2e {
			out.Metrics[f.name] = metricOut{f.value, f.unit}
		}
	}
	enc, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", enc)
	return err
}

// Tracing: spans recorded by the benchmark around its calls into the
// program, kept in memory and written out when the run ends.

type span struct {
	Name   string `json:"name"`
	Phase  string `json:"phase"`
	Trace  uint64 `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	child  int64  // time covered by child spans
}

type selfAgg struct{ self int64 }

// tracer is single-threaded, like every workload's caller. A nil
// tracer records nothing.
type tracer struct {
	t0     time.Time
	phase  string
	nextID int
	rootNs int64 // summed duration of the finished root spans
	open   []span
	kept   []span         // the first maxKept finished spans of each phase
	nkept  map[string]int // kept spans per phase
	agg    map[aggKey]*selfAgg
}

type aggKey struct{ phase, name string }

const maxKept = 1 << 15

func newTracer() *tracer {
	return &tracer{t0: time.Now(), nkept: make(map[string]int), agg: make(map[aggKey]*selfAgg)}
}

func (t *tracer) begin(name string, trace uint64) {
	if t == nil {
		return
	}
	t.nextID++
	parent := 0
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1].ID
		if trace == 0 {
			trace = t.open[len(t.open)-1].Trace
		}
	}
	t.open = append(t.open, span{Name: name, Phase: t.phase, Trace: trace, ID: t.nextID,
		Parent: parent, Start: int64(time.Since(t.t0))})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	s := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s.End = int64(time.Since(t.t0))
	dur := s.End - s.Start
	if len(t.open) > 0 {
		t.open[len(t.open)-1].child += dur
	} else {
		t.rootNs += dur
	}
	key := aggKey{s.Phase, s.Name}
	a := t.agg[key]
	if a == nil {
		a = &selfAgg{}
		t.agg[key] = a
	}
	a.self += dur - s.child
	if t.nkept[s.Phase] < maxKept {
		t.nkept[s.Phase]++
		t.kept = append(t.kept, s)
	}
}

// selfNs sums the self time of every span of a layer ("switch" matches
// "switch.Process", ...) recorded in phase.
func (t *tracer) selfNs(phase, layer string) int64 {
	var ns int64
	for key, a := range t.agg {
		if key.phase == phase && strings.HasPrefix(key.name, layer+".") {
			ns += a.self
		}
	}
	return ns
}

// writeSpans writes the kept spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range t.kept {
		if err := enc.Encode(&t.kept[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
