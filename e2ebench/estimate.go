package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/simprobe"

	pathload "repro"
)

// The estimate workload's matrix, as in `repro -fig scenarios`: every
// registry scenario under two tight-link loads, estimateRounds one-shot
// estimates per cell, multi-epoch scenarios advancing at round
// boundaries.
var estimateLoads = []float64{0.40, 0.70}

const (
	estimateRounds = 8
	simWarmup      = 3 * netsim.Second
	epochSettle    = 3 * netsim.Second
	roundGap       = 500 * netsim.Millisecond
	reverseDelay   = 10 * netsim.Millisecond
	// hitSlack is the bracketing tolerance ω+χ: an estimate hits when
	// its range brackets the analytic truth within it.
	hitSlack = pathload.DefaultResolution + pathload.DefaultGreyResolution
)

// A cell is one (scenario, load) instance with its own prober.
type cell struct {
	name  string
	inst  *scenario.Instance
	probe *probe
}

// estimateCells builds and warms up one sweep's cells; sweep and cell
// index derive each cell's seed, so every sweep of a run replays the
// same inputs.
func estimateCells(seed int64, tr *tracer, rep *tally) ([]cell, error) {
	var cells []cell
	for _, name := range scenario.Names() {
		for _, load := range estimateLoads {
			s, err := scenario.Get(name, scenario.Params{Load: load})
			if err != nil {
				return nil, err
			}
			inst, err := s.Build(derive(seed, int64(len(cells))))
			if err != nil {
				return nil, fmt.Errorf("scenario %s: %w", name, err)
			}
			t0 := time.Now()
			inst.Mesh.Warmup(simWarmup)
			rep.warmups = append(rep.warmups, ms(time.Since(t0)))
			p := &probe{inner: simprobe.New(inst.Sim(), inst.Path.Route, reverseDelay), tr: tr, layer: "simprobe", rep: rep.phase}
			cells = append(cells, cell{name: fmt.Sprintf("%s@%.2f", name, load), inst: inst, probe: p})
		}
	}
	return cells, nil
}

// An outcome is one estimate as the benchmark grades it.
type outcome struct {
	res    pathload.Result
	err    error
	truth  float64
	events uint64
	wall   time.Duration
}

// simTally accumulates what the estimates themselves report; on the
// simulator every field repeats exactly for a given seed.
type simTally struct {
	n, hits                 int
	elapsed, bits           float64
	events                  uint64
	fleets, aborted, grey   int
	fleetStreams, discarded int
}

// A tally is a phase of the three workloads that run estimates.
type tally struct {
	*phase
	sim     simTally
	warmups []float64
	h       hash.Hash64 // fingerprint of the estimates' outputs
}

func newTally(tr *tracer) *tally {
	return &tally{phase: newPhase(tr), h: fnv.New64a()}
}

// add grades and checks one estimate; a truth of NaN grades nothing.
func (t *tally) add(label string, o outcome) {
	t.attempted++
	t.estimates++
	t.latMs = append(t.latMs, ms(o.wall))
	r := o.res
	fmt.Fprintf(t.h, "%s|%v|%v|%v|%v|%d|%v\n", label, r.Lo, r.Hi, r.Elapsed, r.Bits, o.events, o.err)
	t.sim.n++
	t.sim.events += o.events
	t.sim.elapsed += r.Elapsed.Seconds()
	t.sim.bits += r.Bits
	if o.err != nil {
		t.failed++
		return
	}
	t.check(!math.IsNaN(r.Lo) && !math.IsNaN(r.Hi) && !math.IsInf(r.Lo, 0) && !math.IsInf(r.Hi, 0) && r.Lo <= r.Hi && r.Lo >= 0,
		"%s: range [%v, %v] is not a finite Lo ≤ Hi", label, r.Lo, r.Hi)
	t.check(r.Bits > 0, "%s: estimate injected %v bits", label, r.Bits)
	if o.truth >= r.Lo-hitSlack && o.truth <= r.Hi+hitSlack {
		t.sim.hits++
	}
	for _, f := range r.Fleets {
		t.sim.fleets++
		switch f.Verdict {
		case pathload.FleetAborted:
			t.sim.aborted++
		case pathload.FleetGrey:
			t.sim.grey++
		}
		for _, s := range f.Streams {
			t.sim.fleetStreams++
			if s.Kind == pathload.StreamDiscarded {
				t.sim.discarded++
			}
		}
	}
}

// finish fills the figures every estimating workload reports.
func (t *tally) finish(proc0 procCounters) {
	n := float64(t.sim.n)
	t.detail["hit_rate"] = ratio(float64(t.sim.hits), n)
	t.detail["virtual_s_per_estimate"] = ratio(t.sim.elapsed, n)
	t.detail["probe_mbit_per_estimate"] = ratio(t.sim.bits/1e6, n)
	t.detail["failed_share"] = ratio(float64(t.failed), float64(t.attempted))
	t.layer["netsim.events_per_estimate"] = ratio(float64(t.sim.events), n)
	t.layer["netsim.warmup_ms"] = quantile(t.warmups, 0.5)
	t.layer["run.fleets_per_estimate"] = ratio(float64(t.sim.fleets), n)
	t.layer["run.aborted_fleet_share"] = ratio(float64(t.sim.aborted), float64(t.sim.fleets))
	t.layer["run.grey_fleet_share"] = ratio(float64(t.sim.grey), float64(t.sim.fleets))
	t.layer["run.discarded_stream_share"] = ratio(float64(t.sim.discarded), float64(t.sim.fleetStreams))
	t.procFigures(proc0)
}

// runEstimate runs sweeps of the scenario matrix back to back until d
// has been measured. Every sweep rebuilds its cells from the same seed,
// so each replays the first exactly — which the phase checks.
func runEstimate(e *env, tr *tracer, d time.Duration) (*phase, error) {
	t := newTally(tr)
	proc0 := readProc()
	cfg := pathload.Config{}
	var first uint64
	walls := map[int64]time.Duration{}
	op := int64(0)
	for sweep := 0; sweep == 0 || t.measured < d; sweep++ {
		t0 := time.Now()
		cells, err := estimateCells(e.seed, tr, t)
		if err != nil {
			return nil, err
		}
		t.setupS = append(t.setupS, time.Since(t0).Seconds())

		t.h = fnv.New64a()
		start := time.Now()
		for _, c := range cells {
			sim := c.inst.Sim()
			for r := 0; r < estimateRounds; r++ {
				for c.inst.Epoch() < r*c.inst.Epochs()/estimateRounds {
					id := tr.begin("netsim.settle", -1, -1)
					c.inst.Advance()
					sim.RunFor(epochSettle)
					tr.end(id)
				}
				truth := c.inst.Truth()
				ev0 := sim.Events()
				t1 := time.Now()
				c.probe.op = op
				c.probe.parent = tr.begin("run", op, -1)
				res, err := pathload.Run(c.probe, cfg)
				tr.end(c.probe.parent)
				wall := time.Since(t1)
				if tr.on() {
					walls[op] = wall
				}
				t.add(fmt.Sprintf("%s round %d", c.name, r), outcome{res: res, err: err, truth: truth, events: sim.Events() - ev0, wall: wall})
				id := tr.begin("netsim.settle", -1, -1)
				sim.RunFor(roundGap)
				tr.end(id)
				op++
			}
		}
		wall := time.Since(start)
		t.closeChunk(wall, liveHeapMB(cells))
		if sweep == 0 {
			first = t.h.Sum64()
		} else {
			t.check(t.h.Sum64() == first, "sweep %d did not replay sweep 0 exactly", sweep)
		}
	}
	t.finish(proc0)
	t.fingerprint = first
	t.layer["netsim.ns_per_event"] = ratio(float64(t.measured.Nanoseconds()), float64(t.sim.events))
	if tr != nil {
		estimateLayers(t, tr, walls)
	}
	return t.phase, nil
}

// estimateLayers derives the per-layer figures of a traced phase from
// its spans, per traced estimate.
func estimateLayers(t *tally, tr *tracer, walls map[int64]time.Duration) {
	n := float64(len(walls))
	stream := tr.durations("simprobe.SendStream", time.Millisecond)
	self := tr.selfByName()
	t.layer["simprobe.stream_ms_p50"] = quantile(stream, 0.5)
	t.layer["simprobe.stream_ms_p90"] = quantile(stream, 0.9)
	t.layer["simprobe.idle_ms_per_estimate"] = ratio(self["simprobe.Idle"], n)
	t.layer["simprobe.streams_per_estimate"] = ratio(float64(len(stream)), n)
	t.layer["run.self_ms_per_estimate"] = ratio(self["run"], n)
	checkAccounting(tr, walls, t.phase)
}

// derive mixes a run seed with an index (splitmix64), so every cell,
// path and sample stream gets its own reproducible seed.
func derive(seed, i int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
