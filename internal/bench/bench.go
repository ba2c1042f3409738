// Package bench is the repository's performance regression harness: a
// fixed suite of hot-path and figure benchmarks runnable from a plain
// binary (cmd/repro -bench), a JSON report of their results, and a
// comparison gate against a committed baseline.
//
// The suite leans on testing.Benchmark, so each entry is an ordinary
// Go benchmark function; figure-level entries carry their headline
// reproduction metrics through b.ReportMetric, which surface in the
// report's "extra" map. CI runs the suite on every change and fails
// when ns/op regresses past a percentage tolerance or when a benchmark
// that was allocation-free starts allocating.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/crosstraffic"
	"repro/internal/eventq"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/simprobe"

	pathload "repro"
)

// A Result is one benchmark's measured performance.
type Result struct {
	Name        string             `json:"name"`
	N           int                `json:"n"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// A Report is a full suite run plus enough environment to judge whether
// two reports are comparable.
type Report struct {
	Schema     string   `json:"schema"`
	GoVersion  string   `json:"go"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	CPUs       int      `json:"cpus"`
	Benchmarks []Result `json:"benchmarks"`
}

// ReportSchema identifies the report format.
const ReportSchema = "repro-bench/1"

// A Benchmark is one suite entry.
type Benchmark struct {
	Name string
	Fn   func(b *testing.B)
}

// Suite returns the benchmark suite in run order: simulator substrate
// first (the hot paths the freelist/sharding work targets), then the
// fleet tier, then a figure-level reproduction whose metrics double as
// a correctness canary.
func Suite() []Benchmark {
	return []Benchmark{
		{"EventQScheduleFire", benchEventQScheduleFire},
		{"SimulatorPacketForwarding", benchPacketForwarding},
		{"CrossTrafficHop", benchCrossTrafficHop},
		{"ProbeStream", benchProbeStream},
		{"LockstepAdvance64", benchLockstepAdvance},
		{"ScaleFleet64", benchScaleFleet},
		{"Fig01OWDTrace", benchFig01},
	}
}

// benchEventQScheduleFire measures the per-event cost of the core
// queue: schedule, pop, fire, recycle. This is the innermost loop of
// every simulation; the freelist makes it allocation-free, and the
// comparison gate holds it there.
func benchEventQScheduleFire(b *testing.B) {
	var q eventq.Queue
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Schedule(int64(i), fn)
		e := q.Pop()
		e.Fire()
		q.Recycle(e)
	}
}

// benchPacketForwarding measures raw simulator throughput on the
// default 5-hop topology with cross traffic, in events per second.
// Steady-state forwarding is allocation-free (event freelist, packet
// freelist, prebound link callbacks).
func benchPacketForwarding(b *testing.B) {
	net := experiments.Topology{Seed: 1}.Build()
	net.Sim.RunFor(100 * netsim.Millisecond) // reach steady state off the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Sim.RunFor(100 * netsim.Millisecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(net.Sim.Events())/b.Elapsed().Seconds(), "events/s")
}

// benchCrossTrafficHop measures the traffic that dominates every
// simulated path: a one-hop Poisson aggregate of trimodal packets at 70%
// of a 100 Mb/s link with 5 ms propagation, advanced 10 ms per op. Such
// packets leave the network at their only hop, so each costs one event,
// its source's tick; events/pkt reports that cost.
func benchCrossTrafficHop(b *testing.B) {
	sim := netsim.NewSimulator()
	link := netsim.NewLink(sim, "hop", 100e6, 5*netsim.Millisecond, 0)
	crosstraffic.NewAggregate(sim, []*netsim.Link{link}, 0.7*100e6, 10, crosstraffic.ModelPoisson, crosstraffic.Trimodal{}, 1).Start()
	sim.RunFor(100 * netsim.Millisecond) // steady state off the timer
	ev0, in0 := sim.Events(), link.Counters().PktsIn
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.RunFor(10 * netsim.Millisecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(sim.Events()-ev0)/float64(link.Counters().PktsIn-in0), "events/pkt")
}

// benchProbeStream measures one simulated probe stream end to end:
// inject K packets, queue through the path, collect OWDs.
func benchProbeStream(b *testing.B) {
	net := experiments.Topology{Seed: 5}.Build()
	net.Warmup(3 * netsim.Second)
	prober := simprobe.New(net.Sim, net.Links, 10*netsim.Millisecond)
	cfg := pathload.Config{}
	l, t := cfg.StreamParams(4e6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prober.SendStream(pathload.StreamSpec{Rate: 4e6, K: 100, L: l, T: t}); err != nil {
			b.Fatal(err)
		}
		prober.Idle(50 * time.Millisecond)
	}
}

// benchLockstepAdvance measures the sharded fleet clock: 64 loaded
// shards advanced in 10 ms barriers on the persistent worker pool.
func benchLockstepAdvance(b *testing.B) {
	const shards = 64
	sims := make([]*netsim.Simulator, shards)
	var nets []*experiments.Net
	for i := range sims {
		n := experiments.Topology{Seed: int64(1 + i)}.Build()
		nets = append(nets, n)
		sims[i] = n.Sim
	}
	ls := netsim.NewLockstep(0, sims...)
	defer ls.Close()
	ls.AdvanceFor(100 * netsim.Millisecond) // steady state off the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ls.AdvanceFor(10 * netsim.Millisecond)
	}
	b.StopTimer()
	var events uint64
	for _, n := range nets {
		events += n.Sim.Events()
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// benchScaleFleet runs the 64-path monitored-fleet experiment at
// reduced scale — the small sibling of the 10k tier — and reports
// fleet throughput in path-measurements per second.
func benchScaleFleet(b *testing.B) {
	var res experiments.ScaleResult
	for i := 0; i < b.N; i++ {
		res = experiments.DynamicsAtScale(experiments.Options{Scale: 0.08, Seed: int64(1 + i)})
	}
	b.ReportMetric(float64(len(res.Paths)*res.Rounds)/res.Wall.Seconds(), "paths/s")
	b.ReportMetric(res.Coverage()*100, "coverage-%")
}

// benchFig01 reproduces Fig. 1 (OWD rise above the avail-bw) as the
// suite's correctness canary: a perf change that breaks measurement
// semantics moves owd-rise-ms even when timings look fine.
func benchFig01(b *testing.B) {
	var rise float64
	for i := 0; i < b.N; i++ {
		traces := experiments.OWDTraces(experiments.Options{Scale: 0.08, Seed: int64(1 + i)})
		rise = traces[0].RiseMs
		if traces[0].Kind != "I" {
			b.Fatalf("fig1 stream classified %q, want increasing", traces[0].Kind)
		}
	}
	b.ReportMetric(rise, "owd-rise-ms")
}

// Matches reports whether a benchmark name passes the suite filter: a
// case-insensitive substring match, with "" and "all" matching
// everything.
func Matches(name, filter string) bool {
	return filter == "" || filter == "all" ||
		strings.Contains(strings.ToLower(name), strings.ToLower(filter))
}

// Run executes every suite benchmark whose name contains filter
// (case-insensitive; empty matches all) and returns the report.
// Progress goes to stderr so stdout stays machine-readable.
func Run(filter string) Report {
	rep := Report{
		Schema:    ReportSchema,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
	}
	for _, bm := range Suite() {
		if !Matches(bm.Name, filter) {
			continue
		}
		fmt.Fprintf(os.Stderr, "bench: %s...\n", bm.Name)
		r := testing.Benchmark(bm.Fn)
		res := Result{
			Name:        bm.Name,
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if len(r.Extra) > 0 {
			res.Extra = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				res.Extra[k] = v
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, res)
	}
	return rep
}

// Format renders a report as an aligned human-readable table.
func Format(rep Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s/%s, %d cpus\n", rep.GoVersion, rep.GOOS, rep.GOARCH, rep.CPUs)
	fmt.Fprintf(&b, "%-28s %6s %14s %8s %10s  %s\n", "benchmark", "n", "ns/op", "allocs", "B/op", "extra")
	for _, r := range rep.Benchmarks {
		keys := make([]string, 0, len(r.Extra))
		for k := range r.Extra {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var extra strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&extra, "%s=%.4g ", k, r.Extra[k])
		}
		fmt.Fprintf(&b, "%-28s %6d %14.0f %8d %10d  %s\n",
			r.Name, r.N, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp, extra.String())
	}
	return b.String()
}

// WriteJSON writes a report to path, indented for reviewable diffs.
func WriteJSON(path string, rep Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadJSON loads a report written by WriteJSON.
func ReadJSON(path string) (Report, error) {
	var rep Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	if rep.Schema != ReportSchema {
		return rep, fmt.Errorf("bench: %s has schema %q, want %q", path, rep.Schema, ReportSchema)
	}
	return rep, nil
}

// Compare gates cur against base: each baseline benchmark must be
// present, its ns/op must not exceed the baseline by more than
// tolerancePct percent, and a benchmark that was allocation-free must
// stay allocation-free (other alloc counts get the same percentage
// gate, with a small absolute grace for tiny counts). The ns/op
// tolerance is deliberately generous — baselines travel across
// machines — so the gate catches order-of-magnitude regressions like
// losing a freelist, not scheduling noise. Returns one violation
// string per failure; empty means the gate passes.
func Compare(base, cur Report, tolerancePct float64) []string {
	curByName := make(map[string]Result, len(cur.Benchmarks))
	for _, r := range cur.Benchmarks {
		curByName[r.Name] = r
	}
	var violations []string
	for _, b := range base.Benchmarks {
		c, ok := curByName[b.Name]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: missing from current run", b.Name))
			continue
		}
		if limit := b.NsPerOp * (1 + tolerancePct/100); c.NsPerOp > limit {
			violations = append(violations, fmt.Sprintf(
				"%s: %.0f ns/op exceeds baseline %.0f ns/op by more than %.0f%%",
				b.Name, c.NsPerOp, b.NsPerOp, tolerancePct))
		}
		switch {
		case b.AllocsPerOp == 0 && c.AllocsPerOp > 0:
			violations = append(violations, fmt.Sprintf(
				"%s: %d allocs/op on a previously allocation-free path", b.Name, c.AllocsPerOp))
		case b.AllocsPerOp > 0:
			limit := int64(float64(b.AllocsPerOp)*(1+tolerancePct/100)) + 2
			if c.AllocsPerOp > limit {
				violations = append(violations, fmt.Sprintf(
					"%s: %d allocs/op exceeds baseline %d by more than %.0f%%",
					b.Name, c.AllocsPerOp, b.AllocsPerOp, tolerancePct))
			}
		}
	}
	return violations
}
