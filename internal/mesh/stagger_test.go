package mesh

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	pathload "repro"
	"repro/internal/netsim"
	"repro/internal/simprobe"
)

// A streamSpan is one probe stream's virtual-time extent: from its
// first injection to the moment the prober collected it.
type streamSpan struct{ start, end netsim.Time }

// spanProber wraps a sequenced prober and records the virtual-time span
// of every stream it sends. Only its own session goroutine touches it.
type spanProber struct {
	inner *simprobe.Prober
	sim   *netsim.Simulator
	route []*netsim.Link
	spans []streamSpan
}

// SendStream measures through the inner prober, then reconstructs the
// stream's start from its end. After the section's final grant the
// session goroutine holds the sequencer floor, so reading the virtual
// clock is safe, and the clock stands exactly at the last arrival (all
// packets in: arrival i = start + i·T + OWD_i) or at the loss deadline
// (start + K·T + queue-free path delay + LossTimeout).
func (p *spanProber) SendStream(spec pathload.StreamSpec) (pathload.StreamResult, error) {
	res, err := p.inner.SendStream(spec)
	if err != nil {
		return res, err
	}
	end := p.sim.Now()
	period := netsim.FromDuration(spec.T)
	var span netsim.Time
	if len(res.OWDs) == spec.K {
		for _, o := range res.OWDs {
			span = max(span, netsim.Time(o.Seq)*period+netsim.FromDuration(o.OWD))
		}
	} else {
		span = netsim.Time(spec.K)*period + p.inner.LossTimeout
		for _, l := range p.route {
			span += l.PropDelay() + l.TxTime(spec.L)
		}
	}
	p.spans = append(p.spans, streamSpan{start: end - span, end: end})
	return res, nil
}

func (p *spanProber) Idle(d time.Duration) error { return p.inner.Idle(d) }
func (p *spanProber) RTT() time.Duration         { return p.inner.RTT() }

// staggeredFleetRun runs a sequenced 4-path fleet of the given shape
// for 3 rounds, staggered by TightOverlaps when stagger is set. It
// returns a transcript of every sample and every stream span, and the
// number of stream pairs of tight-link-sharing paths that overlapped in
// virtual time.
func staggeredFleetRun(t *testing.T, shape string, stagger bool) (string, int) {
	t.Helper()
	const paths, rounds = 4, 3
	spec, err := Shape(shape, paths, 13)
	if err != nil {
		t.Fatal(err)
	}
	m := spec.MustBuild()
	m.Warmup(2 * netsim.Second)
	seq, probers := m.SequencedProbers(10 * netsim.Millisecond)
	drv := simprobe.NewSequencedDriver(seq)
	cfg := driverFleetConfig(paths, rounds)
	cfg.Driver = drv
	mon, err := pathload.NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := map[string]*spanProber{}
	for i, p := range m.Paths() {
		drv.Register(p.Name, probers[i])
		wrapped[p.Name] = &spanProber{inner: probers[i], sim: m.Sim, route: p.Route}
		if err := mon.AddPath(p.Name, wrapped[p.Name]); err != nil {
			t.Fatal(err)
		}
	}
	if stagger {
		drv.Stagger(m.TightOverlaps())
	}
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}
	var samples []string
	done := make(chan struct{})
	go func() {
		defer close(done)
		for s := range mon.Results() {
			samples = append(samples, fmt.Sprintf("%s r%d @%v %v err=%v", s.Path, s.Round, s.At, s.Result, s.Err))
		}
		mon.Wait()
	}()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatalf("%s fleet stalled (stagger=%v): %v", shape, stagger, seq)
	}
	if len(samples) != paths*rounds {
		t.Fatalf("%s: %d samples, want %d", shape, len(samples), paths*rounds)
	}
	sort.Strings(samples)

	var b strings.Builder
	for _, s := range samples {
		fmt.Fprintln(&b, s)
	}
	for _, p := range m.Paths() {
		for i, sp := range wrapped[p.Name].spans {
			fmt.Fprintf(&b, "%s stream %d [%v, %v]\n", p.Name, i, sp.start, sp.end)
			// One prober's own streams are sequential; a reconstructed
			// span reaching back into its predecessor would be wrong.
			if i > 0 && sp.start < wrapped[p.Name].spans[i-1].end {
				t.Fatalf("%s stream %d starts at %v, before stream %d ended at %v", p.Name, i, sp.start, i-1, wrapped[p.Name].spans[i-1].end)
			}
		}
	}

	overlaps := 0
	for a, rivals := range m.TightOverlaps() {
		for _, r := range rivals {
			if a >= r {
				continue // count each pair once
			}
			for _, x := range wrapped[a].spans {
				for _, y := range wrapped[r].spans {
					if x.start < y.end && y.start < x.end {
						overlaps++
					}
				}
			}
		}
	}
	return b.String(), overlaps
}

// TestDeterminismStaggeredFleet: a staggered sequenced fleet replays
// byte-for-byte, and no two paths that share a tight link ever have
// streams in flight at the same virtual time. The unstaggered control
// run shows the overlap check has teeth on every shape.
func TestDeterminismStaggeredFleet(t *testing.T) {
	for _, shape := range []string{"star", "chain", "tree"} {
		t.Run(shape, func(t *testing.T) {
			first, overlaps := staggeredFleetRun(t, shape, true)
			if overlaps != 0 {
				t.Errorf("%d overlapping stream pairs between tight-link-sharing paths, want 0", overlaps)
			}
			second, _ := staggeredFleetRun(t, shape, true)
			if first != second {
				t.Fatalf("staggered %s fleet did not replay:\n--- run 1 ---\n%s--- run 2 ---\n%s", shape, first, second)
			}
			_, control := staggeredFleetRun(t, shape, false)
			if control == 0 {
				t.Errorf("unstaggered control run had no overlapping streams; the check proves nothing")
			}
			t.Logf("%s: %d overlapping stream pairs without Stagger, %d with it", shape, control, overlaps)
		})
	}
}
