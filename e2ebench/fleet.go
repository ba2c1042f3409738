package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/archive"
	"repro/internal/mesh"
	"repro/internal/schedule"
	"repro/internal/simprobe"
	"repro/internal/tsstore"

	pathload "repro"
)

// The fleet workload: a sequenced monitored fleet over one shared
// chain backbone, wired by hand from public parts so the benchmark can
// wrap the Driver, the probers and the sink.
const (
	fleetShape    = "chain"
	fleetPaths    = 32
	fleetRounds   = 3
	fleetInterval = 15 * time.Second // virtual, spent by the sequenced driver
	fleetJitter   = 0.2
	fleetSeal     = 1 << 20 // archive WAL bytes that trigger a seal
)

// runFleet runs whole fleets — build, warm up, fleetRounds monitor
// rounds, close — until d has been measured. Every fleet is built from
// the same seed and must replay the first exactly.
func runFleet(e *env, tr *tracer, d time.Duration) (*phase, error) {
	t := newTally(tr)
	proc0 := readProc()
	var first uint64
	for n := 0; n == 0 || t.measured < d; n++ {
		if err := fleetOnce(e, tr, t, n); err != nil {
			return nil, err
		}
		if n == 0 {
			first = t.h.Sum64()
		} else {
			t.check(t.h.Sum64() == first, "fleet %d did not replay fleet 0 exactly", n)
		}
	}
	t.finish(proc0)
	t.fingerprint = first
	t.layer["netsim.ns_per_event"] = ratio(float64(t.measured.Nanoseconds()), float64(t.sim.events))
	if tr != nil {
		// Per estimate traced: the sink closes one estimate span each.
		n := float64(len(tr.durations("estimate", time.Millisecond)))
		stream := tr.durations("simprobe.SendStream", time.Millisecond)
		barrier := tr.durations("monitor.RoundEnd", time.Millisecond)
		sink := tr.durations("tsstore.Observe", time.Microsecond)
		self := tr.selfByName()
		t.layer["simprobe.stream_ms_p50"] = quantile(stream, 0.5)
		t.layer["simprobe.stream_ms_p90"] = quantile(stream, 0.9)
		t.layer["simprobe.idle_ms_per_estimate"] = ratio(self["simprobe.Idle"], n)
		t.layer["simprobe.streams_per_estimate"] = ratio(float64(len(stream)), n)
		t.layer["run.self_ms_per_estimate"] = ratio(self["estimate"], n)
		t.layer["monitor.round_barrier_ms_p50"] = quantile(barrier, 0.5)
		t.layer["monitor.round_barrier_ms_p90"] = quantile(barrier, 0.9)
		t.layer["monitor.sink_us_p50"] = quantile(sink, 0.5)
		t.layer["monitor.sink_us_p90"] = quantile(sink, 0.9)
		t.layer["monitor.fleet_stream_ms_p50"] = quantile(stream, 0.5)
		t.layer["tsstore.observe_us_p50"] = quantile(sink, 0.5)
		t.layer["tsstore.observe_us_p90"] = quantile(sink, 0.9)
	}
	return t.phase, nil
}

// fleetOnce sets up, runs and checks one fleet.
func fleetOnce(e *env, tr *tracer, t *tally, n int) error {
	t.h.Reset()
	t0 := time.Now()
	spec, err := mesh.Shape(fleetShape, fleetPaths, e.seed)
	if err != nil {
		return err
	}
	m, err := spec.Build()
	if err != nil {
		return err
	}
	w0 := time.Now()
	m.Warmup(simWarmup)
	t.warmups = append(t.warmups, ms(time.Since(w0)))
	seq, probers := m.SequencedProbers(reverseDelay)
	drv := simprobe.NewSequencedDriver(seq)
	store, backend, _, err := archive.OpenStore(filepath.Join(e.dir, fmt.Sprintf("fleet-%d", n)),
		archive.Options{SealBytes: fleetSeal}, tsstore.Config{})
	if err != nil {
		return err
	}
	defer func() {
		err := backend.Close()
		t.check(err == nil, "fleet %d: closing the archive: %v", n, err)
	}()

	cfg := pathload.MonitorConfig{
		Rounds:   fleetRounds,
		Interval: fleetInterval,
		Jitter:   fleetJitter,
		Seed:     e.seed,
		Buffer:   fleetPaths * fleetRounds, // publish never blocks a session
		Store:    store,
		Driver:   drv,
	}
	paths := m.Paths()
	wrapped := map[string]*probe{}
	if tr != nil {
		cfg.Driver = &tracedDriver{inner: drv, tr: tr}
		cfg.Store = &tracedSink{inner: store, tr: tr, probes: wrapped}
	}
	mon, err := pathload.NewMonitor(cfg)
	if err != nil {
		return err
	}
	for i, p := range paths {
		drv.Register(p.Name, probers[i])
		w := &probe{inner: probers[i], tr: tr, layer: "simprobe", op: int64(n*fleetPaths+i) << 16, parent: -1, lazyRoot: true, rep: t.phase}
		wrapped[p.Name] = w
		if err := mon.AddPath(p.Name, w); err != nil {
			return err
		}
	}
	t.setupS = append(t.setupS, time.Since(t0).Seconds())

	ev0 := m.Sim.Events()
	start := time.Now()
	if err := mon.Start(); err != nil {
		return err
	}
	var samples []pathload.Sample
	last := map[string]int{}
	for s := range mon.Results() {
		prev, seen := last[s.Path]
		t.check(!seen || s.Round > prev, "fleet %d: %s published round %d after round %d", n, s.Path, s.Round, prev)
		last[s.Path] = s.Round
		samples = append(samples, s)
	}
	mon.Wait()
	wall := time.Since(start)
	peak := liveHeapMB(m, store, mon)
	events := m.Sim.Events() - ev0

	t.check(len(last) == len(paths), "fleet %d: %d of %d paths published", n, len(last), len(paths))
	counts := map[string]int{}
	for _, s := range samples {
		counts[s.Path]++
	}
	for _, p := range paths {
		t.check(counts[p.Name] == fleetRounds, "fleet %d: %s published %d rounds, want %d", n, p.Name, counts[p.Name], fleetRounds)
	}
	errs, lastErr := store.BackendErrs()
	t.check(errs == 0, "fleet %d: %d archive appends failed (last: %v)", n, errs, lastErr)
	t.layer["tsstore.backend_errs"] += float64(errs)

	// Grade in (path, round) order so the fingerprint does not depend
	// on completion order.
	sort.Slice(samples, func(i, j int) bool {
		a, b := samples[i], samples[j]
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		return a.Round < b.Round
	})
	for _, s := range samples {
		// A path's rounds are its Run calls in order; each began at its
		// initialization stream.
		var wall time.Duration
		if starts := wrapped[s.Path].runStarts; s.Round < len(starts) {
			wall = s.Wall.Sub(starts[s.Round])
		}
		t.add(fmt.Sprintf("%s round %d at %v", s.Path, s.Round, s.At),
			outcome{res: s.Result, err: s.Err, truth: m.Path(s.Path).AvailBw(), wall: wall})
	}
	t.sim.events += events
	fmt.Fprintf(t.h, "events %d\n", events)
	t.closeChunk(wall, peak)
	return nil
}

// tracedDriver wraps the sequenced driver: a span per round barrier
// and per scheduler gap.
type tracedDriver struct {
	inner pathload.Driver
	tr    *tracer
}

func (d *tracedDriver) RoundEnd(path string, round int) {
	id := d.tr.begin("monitor.RoundEnd", -1, -1)
	d.inner.RoundEnd(path, round)
	d.tr.end(id)
}

func (d *tracedDriver) Gap(path string, p pathload.Prober, gap time.Duration) error {
	id := d.tr.begin("monitor.Gap", -1, -1)
	err := d.inner.Gap(path, p, gap)
	d.tr.end(id)
	return err
}

func (d *tracedDriver) Sleep(dur time.Duration, stop <-chan struct{}) bool {
	return d.inner.Sleep(dur, stop)
}

func (d *tracedDriver) Retire(path string) { d.inner.Retire(path) }

func (d *tracedDriver) Drive() { d.inner.Drive() }

// tracedSink wraps the monitor's store: a span per Observe, which also
// closes the path's estimate span.
type tracedSink struct {
	inner  *tsstore.Store
	tr     *tracer
	probes map[string]*probe
}

func (s *tracedSink) Observe(sm pathload.Sample) {
	p := s.probes[sm.Path]
	id := s.tr.begin("tsstore.Observe", p.op, p.parent)
	s.inner.Observe(sm)
	s.tr.end(id)
	if p.parent >= 0 {
		s.tr.end(p.parent)
		p.parent = -1
	}
	p.op++
}

var _ schedule.VarSource = (*tracedSink)(nil)

// RelVar delegates to the store, so the traced monitor keeps the
// scheduler's windowed-ρ feedback (schedule.VarSource) the untraced one
// has.
func (s *tracedSink) RelVar(path string, window time.Duration) (float64, bool) {
	return s.inner.RelVar(path, window)
}
