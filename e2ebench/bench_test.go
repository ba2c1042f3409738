package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// heldOutSeed was never used while the benchmark was tuned; every
// output check must pass on it too.
const heldOutSeed = 987654321

// once is the shortest phase a workload runs: one sweep, one fleet,
// one ingest round, one estimate.
const once = time.Nanosecond

func runPhase(t *testing.T, w workload, seed int64, tr *tracer) *phase {
	t.Helper()
	ph, err := w(&env{seed: seed, dir: t.TempDir()}, tr, once)
	if err != nil {
		t.Fatal(err)
	}
	return ph
}

func requireClean(t *testing.T, name string, ph *phase) {
	t.Helper()
	if ph.bad != 0 || ph.failed != 0 || ph.attempted == 0 {
		t.Fatalf("%s: %d checks failed, %d of %d operations failed: %v", name, ph.bad, ph.failed, ph.attempted, ph.problems)
	}
}

// simOnly are the figures that depend only on the simulation.
var simOnly = []string{"hit_rate", "virtual_s_per_estimate", "probe_mbit_per_estimate",
	"netsim.events_per_estimate", "run.fleets_per_estimate", "run.aborted_fleet_share",
	"run.grey_fleet_share", "run.discarded_stream_share"}

func simFigures(ph *phase) map[string]float64 {
	out := map[string]float64{}
	for _, k := range simOnly {
		if v, ok := ph.detail[k]; ok {
			out[k] = v
		} else {
			out[k] = ph.layer[k]
		}
	}
	return out
}

// TestSeedReproducesAndTracingDoesNotPerturb runs each simulator
// workload twice untraced and once traced on one seed: every
// simulation-only figure must repeat exactly, and a different seed must
// give different inputs.
func TestSeedReproducesAndTracingDoesNotPerturb(t *testing.T) {
	for _, name := range []string{"estimate", "fleet"} {
		t.Run(name, func(t *testing.T) {
			w := workloads[name]
			a := runPhase(t, w, 7, nil)
			b := runPhase(t, w, 7, nil)
			traced := runPhase(t, w, 7, newTracer())
			other := runPhase(t, w, 8, nil)
			for _, ph := range []*phase{a, b, traced, other} {
				requireClean(t, name, ph)
			}
			if a.fingerprint != b.fingerprint || a.fingerprint != traced.fingerprint {
				t.Errorf("fingerprints %x, %x, traced %x: want all equal", a.fingerprint, b.fingerprint, traced.fingerprint)
			}
			if other.fingerprint == a.fingerprint {
				t.Errorf("seeds 7 and 8 gave the same outputs (%x)", a.fingerprint)
			}
			fa, fb, ft := simFigures(a), simFigures(b), simFigures(traced)
			for _, k := range simOnly {
				if fa[k] != fb[k] || fa[k] != ft[k] {
					t.Errorf("%s: %v, %v, traced %v: want all equal", k, fa[k], fb[k], ft[k])
				}
			}
			if fa["netsim.events_per_estimate"] == 0 || fa["run.fleets_per_estimate"] == 0 {
				t.Errorf("simulation figures empty: %v", fa)
			}
		})
	}
}

// TestHeldOutSeedPassesChecks runs every workload once, traced and
// untraced, on a seed kept out of tuning.
func TestHeldOutSeedPassesChecks(t *testing.T) {
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			requireClean(t, name, runPhase(t, w, heldOutSeed, nil))
			requireClean(t, name, runPhase(t, w, heldOutSeed, newTracer()))
		})
	}
}

// TestIngestChunksAreWhole runs ingest over several short chunks:
// every chunk but the last must hold exactly ingestChunkRounds rounds,
// so the chunk medians are medians of like-sized stretches.
func TestIngestChunksAreWhole(t *testing.T) {
	defer func(n int) { ingestChunkRounds = n }(ingestChunkRounds)
	ingestChunkRounds = 2
	ph, err := runIngest(&env{seed: 5, dir: t.TempDir()}, nil, 1500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, "ingest", ph)
	if len(ph.chunks) < 2 {
		t.Fatalf("%d chunks in 1.5 s, want several", len(ph.chunks))
	}
	for i, c := range ph.chunks[:len(ph.chunks)-1] {
		if c.n != ingestChunkRounds*ingestPaths {
			t.Errorf("chunk %d of %d holds %d samples, want %d", i, len(ph.chunks), c.n, ingestChunkRounds*ingestPaths)
		}
	}
}

// TestTracedPhaseAlternates runs loopback traced over several
// estimates: its chunks must alternate traced and untraced, starting
// traced, and only the traced ones may record spans.
func TestTracedPhaseAlternates(t *testing.T) {
	tr := newTracer()
	ph, err := runLoopback(&env{seed: 4, dir: t.TempDir()}, tr, 1200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, "loopback", ph)
	if len(ph.chunks) < 2 {
		t.Fatalf("%d chunks, want at least 2", len(ph.chunks))
	}
	traced := 0
	for i, c := range ph.chunks {
		if c.traced != (i%2 == 0) {
			t.Errorf("chunk %d traced = %v", i, c.traced)
		}
		if c.traced {
			traced++
		}
	}
	if runs := len(tr.durations("run", time.Millisecond)); runs != traced {
		t.Errorf("%d run spans, want one per traced chunk (%d)", runs, traced)
	}
	if ph.overheadPct() == 0 {
		t.Errorf("trace.overhead_pct is 0 with both kinds of chunk")
	}
}

// TestAccountingCatchesBrokenSpans feeds the accounting check spans
// with a child left open, a child outside its parent, overlapping
// siblings and a gap no wrapped call covers: each must fail, while a
// well-formed estimate passes.
func TestAccountingCatchesBrokenSpans(t *testing.T) {
	build := func(childEnd, child2Start, child2End int64) *tracer {
		tr := newTracer()
		tr.spans = []span{
			{name: "run", op: 1, parent: -1, start: 0, end: 10_000_000},
			{name: "simprobe.SendStream", op: 1, parent: 0, start: 1_000_000, end: childEnd},
			{name: "simprobe.Idle", op: 1, parent: 0, start: child2Start, end: child2End},
		}
		return tr
	}
	walls := map[int64]time.Duration{1: 10 * time.Millisecond}
	for _, c := range []struct {
		name string
		tr   *tracer
		ok   bool
	}{
		{"well formed", build(4_000_000, 4_000_000, 9_000_000), true},
		{"child never closed", build(0, 4_000_000, 9_000_000), false},
		{"child outside its parent", build(4_000_000, 8_000_000, 16_000_000), false},
		{"overlapping siblings", build(6_000_000, 2_000_000, 9_000_000), false},
		{"unwrapped call", build(4_000_000, 7_000_000, 9_000_000), false},
	} {
		ph := newPhase(nil)
		checkAccounting(c.tr, walls, ph)
		if got := ph.bad == 0; got != c.ok {
			t.Errorf("%s: accounting passed = %v, want %v (%v)", c.name, got, c.ok, ph.problems)
		}
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the program's metric tables
// and workloads in step with BENCHMARK.json.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %v, BENCHMARK.json %v", kind, i, got[i], want[i])
			}
		}
	}
	compare("end_to_end", endToEnd, spec.EndToEnd)
	compare("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
}

// TestResultObject runs the command once and checks its last line is
// the result object with exactly the end-to-end metrics.
func TestResultObject(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	code := benchMain([]string{"-workload", "loopback", "-seed", "3", "-seconds", "0.001", "-work", t.TempDir()})
	os.Stdout = stdout
	w.Close()
	out, _ := io.ReadAll(r)
	if code != 0 {
		t.Fatalf("exit code %d:\n%s", code, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("result %+v", res)
	}
	for _, m := range endToEnd {
		got, ok := res.Metrics[m.name]
		if !ok || got.Unit != m.unit || got.Value <= 0 {
			t.Errorf("metric %s: %+v (present %v)", m.name, got, ok)
		}
	}
}
