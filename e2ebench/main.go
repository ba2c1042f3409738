// Command e2ebench is the repository's end-to-end benchmark. It runs
// one named workload against the library's public API, checks the
// outputs, and prints every metric by name with its unit; the last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end table, measured
// untraced. With -trace 1 the run measures half its time untraced and
// half traced, and reports the per-layer table: the traced half records
// a span at every layer boundary the benchmark wraps, in every other
// chunk of its work. See README.md.
package main

import (
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// A phase is one measured stretch of a workload: its own set-up, its
// measured loop, and the output checks of everything it produced.
type phase struct {
	estimates int           // completed units of work (see README.md)
	measured  time.Duration // wall time of the measured loop, set-up excluded
	latMs     []float64     // host wall per unit of work, ms
	setupS    []float64     // every set-up performed, s

	// chunks split the measured loop into like-sized stretches of work;
	// the end-to-end figures are medians over chunks, so one slow
	// stretch on a shared host moves them less.
	chunks             []chunk
	chunked, latCursor int

	attempted, failed int
	bad               int      // failed output checks
	problems          []string // the first few failed checks, for the log

	detail map[string]float64 // workload-specific end-to-end figures
	layer  map[string]float64 // per-layer figures

	// tr records the phase's spans (nil: untraced). A traced phase
	// switches tracing off and on at every chunk boundary, starting on,
	// so trace.overhead_pct compares neighbouring chunks.
	tr *tracer

	// fingerprint hashes every simulation-only output of the phase; two
	// phases over the same seed must agree exactly (0: not applicable).
	fingerprint uint64
}

func newPhase(tr *tracer) *phase {
	return &phase{detail: map[string]float64{}, layer: map[string]float64{}, tr: tr}
}

// check records a failed output check.
func (p *phase) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	p.bad++
	if len(p.problems) < 10 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// procFigures reports the process's allocation and GC counts since
// proc0.
func (p *phase) procFigures(proc0 procCounters) {
	proc := readProc()
	p.layer["proc.alloc_kb_per_estimate"] = ratio(float64(proc.allocBytes-proc0.allocBytes)/1024, float64(p.estimates))
	p.layer["proc.gc_cycles"] = float64(proc.gcCycles - proc0.gcCycles)
}

// A chunk is the work and latencies recorded between two closeChunk
// calls.
type chunk struct {
	n      int
	wall   time.Duration
	lat    []float64
	heapMB float64
	traced bool
}

// closeChunk ends the current chunk, which took wall and left heapMB of
// live heap (liveHeapMB), and switches a traced phase's tracing off or
// back on for the next.
func (p *phase) closeChunk(wall time.Duration, heapMB float64) {
	on := p.tr.on()
	p.chunks = append(p.chunks, chunk{n: p.estimates - p.chunked, wall: wall, lat: p.latMs[p.latCursor:], heapMB: heapMB, traced: on})
	p.chunked, p.latCursor = p.estimates, len(p.latMs)
	p.measured += wall
	if p.tr != nil {
		p.tr.paused.Store(on)
	}
}

// overheadPct is what recording spans costs a traced phase: the median
// rate of its untraced chunks over that of its traced chunks, less 1,
// in percent; 0 while it lacks either kind.
func (p *phase) overheadPct() float64 {
	var rates [2][]float64
	for _, c := range p.chunks {
		i := 0
		if c.traced {
			i = 1
		}
		rates[i] = append(rates[i], ratio(float64(c.n), c.wall.Seconds()))
	}
	if len(rates[0]) == 0 || len(rates[1]) == 0 {
		return 0
	}
	return 100 * (ratio(quantile(rates[0], 0.5), quantile(rates[1], 0.5)) - 1)
}

// chunkRate is the median over chunks of units of work per second.
func (p *phase) chunkRate() float64 {
	return p.chunkMedian(func(c chunk) float64 { return ratio(float64(c.n), c.wall.Seconds()) })
}

// chunkMedian is the median over chunks of f.
func (p *phase) chunkMedian(f func(c chunk) float64) float64 {
	var xs []float64
	for _, c := range p.chunks {
		xs = append(xs, f(c))
	}
	return quantile(xs, 0.5)
}

// An env is what every workload gets: its seed and a private scratch
// directory inside the checkout.
type env struct {
	seed int64
	dir  string
}

// A workload runs one phase of at least d of measured time. tr is nil
// for an untraced phase.
type workload func(e *env, tr *tracer, d time.Duration) (*phase, error)

var workloads = map[string]workload{
	"estimate": runEstimate,
	"fleet":    runFleet,
	"ingest":   runIngest,
	"loopback": runLoopback,
}

func main() {
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: estimate, fleet, ingest or loopback")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 20, "measured time of the run")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	work := fs.String("work", filepath.Join(".bench_build", "work"), "directory for the run's files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: want -workload estimate|fleet|ingest|loopback, -seconds > 0, -trace 0|1\n")
		return 2
	}
	dir := filepath.Join(*work, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := &env{seed: *seed, dir: dir}
	d := time.Duration(*seconds * float64(time.Second))

	measure := d
	if *trace == 1 {
		measure = d / 2
	}
	base, err := w(e, nil, measure)
	var (
		traced *phase
		tr     *tracer
	)
	if err == nil && *trace == 1 {
		tr = newTracer()
		traced, err = w(e, tr, measure)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", *name, err)
		return 1
	}

	phases, out := []*phase{base}, endToEnd
	values := map[string]float64{}
	if traced != nil {
		phases, out = append(phases, traced), perLayer
		// Untraced figures win over traced ones of the same name.
		maps.Copy(values, traced.layer)
		maps.Copy(values, base.layer)
		values["trace.overhead_pct"] = traced.overheadPct()
		traced.check(base.fingerprint == traced.fingerprint,
			"tracing changed the simulation-only outputs (fingerprint %x untraced, %x traced)", base.fingerprint, traced.fingerprint)
	}
	maps.Copy(values, base.detail)
	values["setup_s"] = quantile(base.setupS, 0.5)
	values["estimates_per_s"] = base.chunkRate()
	values["estimate_ms_p50"] = base.chunkMedian(func(c chunk) float64 { return quantile(c.lat, 0.5) })
	values["estimate_ms_p90"] = base.chunkMedian(func(c chunk) float64 { return quantile(c.lat, 0.9) })
	for _, c := range base.chunks {
		values["peak_heap_mb"] = max(values["peak_heap_mb"], c.heapMB)
	}

	if tr != nil {
		path := filepath.Join(*work, "spans", fmt.Sprintf("%s-seed%d.tsv", *name, *seed))
		err := os.MkdirAll(filepath.Dir(path), 0o755)
		if err == nil {
			err = tr.dump(path)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: writing spans: %v\n", err)
			return 1
		}
		fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	}
	return report(*name, phases, values, out)
}

// report prints every figure the run measured, one per line, then the
// result object, and returns the exit code.
func report(name string, phases []*phase, values map[string]float64, out []metricDef) int {
	attempted, failed, bad := 0, 0, 0
	for _, ph := range phases {
		attempted += ph.attempted
		failed += ph.failed
		bad += ph.bad
		for _, pr := range ph.problems {
			fmt.Printf("CHECK FAILED: %s\n", pr)
		}
	}
	units := map[string]string{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[m.name] = m.unit
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("workload %s: %d units of work, %d phases\n", name, phases[0].estimates, len(phases))
	for _, k := range names {
		fmt.Printf("  %-36s %14.6g %s\n", k, values[k], units[k])
	}
	correct := bad == 0 && attempted > 0
	for _, m := range out {
		if v := values[m.name]; math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Printf("CHECK FAILED: metric %s is %v\n", m.name, v)
			values[m.name], correct = 0, false
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, correct, attempted, failed)
	for i, m := range out {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, m.name, strconv.FormatFloat(values[m.name], 'g', -1, 64), m.unit)
	}
	b.WriteString("}}")
	fmt.Println(b.String())
	if !correct {
		return 1
	}
	return 0
}
