package simprobe

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/netsim"

	pathload "repro"
)

// A SequencedDriver runs a whole pathload.Monitor fleet on one
// Sequencer: sessions park at the fleet round barrier between rounds
// (EndRound), spend their scheduler gaps in virtual time anchored at
// their own round end (IdleUntil), and retire their sequencer seats at
// end-of-life — so a monitored fleet over a shared mesh advances on one
// virtual clock with a scheduling-independent interleave and replays
// byte-for-byte run-to-run.
//
// Wiring: create the Sequencer and its probers, Register each prober
// under its monitor path name, set the driver as MonitorConfig.Driver,
// and AddPath the same probers; mesh.MonitorFleet does all of this.
// The monitor calls Drive itself at Start. Install OnRoundBoundary
// before Start to advance fleet scenarios (or snapshot link counters)
// at round boundaries with exclusive simulator access, and Stagger to
// keep conflicting paths from ever measuring at the same time.
//
// The gap anchor is what makes the disjoint-fleet replay argument work:
// a path's round r+1 starts at its *own* round-r end plus its scheduler
// gap, not at the barrier release time, so as long as gaps comfortably
// exceed cross-path round-end skew, a path's timeline is identical
// whether its siblings are present or not.
type SequencedDriver struct {
	seq *Sequencer

	// mu guards the maps: Register writes before Start; afterwards
	// per-path entries are touched concurrently by session goroutines.
	mu      sync.Mutex
	probers map[string]*Prober
	ends    map[string]netsim.Time
}

// NewSequencedDriver creates a driver over seq. Register every path's
// prober before the monitor starts.
func NewSequencedDriver(seq *Sequencer) *SequencedDriver {
	return &SequencedDriver{
		seq:     seq,
		probers: map[string]*Prober{},
		ends:    map[string]netsim.Time{},
	}
}

// Register binds a monitor path name to its sequenced prober. The
// prober must come from the driver's own Sequencer. When the monitor
// wraps the prober (an instrumented test double), register the inner
// sequenced prober — the driver needs the seat, not the wrapper.
func (d *SequencedDriver) Register(path string, p *Prober) {
	if p == nil || p.slot == nil {
		panic(fmt.Sprintf("simprobe: SequencedDriver.Register(%q) with a non-sequenced prober", path))
	}
	if p.slot.seq != d.seq {
		panic(fmt.Sprintf("simprobe: SequencedDriver.Register(%q) with a prober from another sequencer", path))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.probers[path] = p
}

// OnRoundBoundary delegates to the sequencer's round-boundary hook.
func (d *SequencedDriver) OnRoundBoundary(fn func(round int)) { d.seq.OnRoundBoundary(fn) }

// Stagger installs a conflict graph: conflicts[p] holds the registered
// paths p must never co-measure with (the adjacency shape of
// mesh.Mesh.TightOverlaps and schedule.NewStagger; it is symmetrized,
// self-conflicts are ignored). Once a path's first stream of a round
// is granted, no conflicting path starts a stream until the first has
// finished its round (RoundEnd) or retired; Drive still grants the
// lowest-numbered eligible path, so a staggered fleet replays
// byte-for-byte. Like OnRoundBoundary it must be called before Start;
// it panics after Drive started or on a path that was never
// Registered.
func (d *SequencedDriver) Stagger(conflicts map[string][]string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.seq
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.driving {
		panic("simprobe: SequencedDriver.Stagger after Drive started")
	}
	slot := func(path string) *seqSlot {
		p := d.probers[path]
		if p == nil {
			panic(fmt.Sprintf("simprobe: SequencedDriver.Stagger: path %q was never Registered", path))
		}
		return p.slot
	}
	for path, rivals := range conflicts {
		a := slot(path)
		for _, r := range rivals {
			if b := slot(r); b != a {
				a.rivals = append(a.rivals, b)
				b.rivals = append(b.rivals, a)
			}
		}
	}
}

// prober returns the registered prober for path, panicking on unknown
// paths — an unregistered session would stall the whole fleet's barrier.
func (d *SequencedDriver) prober(path string) *Prober {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.probers[path]
	if p == nil {
		panic(fmt.Sprintf("simprobe: SequencedDriver: path %q was never Registered", path))
	}
	return p
}

// RoundEnd records the path's round-end instant — the gap anchor — and
// parks the session at the fleet round barrier. It runs on the session
// goroutine, which still holds the sequencer floor after its last
// measurement section, so reading the virtual clock here is safe.
func (d *SequencedDriver) RoundEnd(path string, round int) {
	p := d.prober(path)
	d.mu.Lock()
	d.ends[path] = d.seq.sim.Now()
	d.mu.Unlock()
	p.EndRound()
}

// Gap spends the scheduler's re-measurement gap in virtual time,
// anchored at the path's own round end: the session idles until
// roundEnd + gap, however late its siblings cleared the barrier.
func (d *SequencedDriver) Gap(path string, _ pathload.Prober, gap time.Duration) error {
	p := d.prober(path)
	d.mu.Lock()
	end := d.ends[path]
	d.mu.Unlock()
	p.IdleUntil(end + netsim.FromDuration(gap))
	return nil
}

// Sleep falls back to wall time. It is unreachable in a well-formed
// sequenced fleet — prober-less waits only happen on factory-backed
// sessions, which the monitor rejects under a Driver — but a stuck
// virtual wait would be worse than an honest wall one.
func (d *SequencedDriver) Sleep(dur time.Duration, stop <-chan struct{}) bool {
	t := time.NewTimer(dur)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-stop:
		return false
	}
}

// Retire releases the path's sequencer seat so Drive stops waiting for
// its next move.
func (d *SequencedDriver) Retire(path string) { d.prober(path).Retire() }

// Drive runs the sequencer loop until every session has retired. The
// monitor calls it from its own goroutine at Start.
func (d *SequencedDriver) Drive() { d.seq.Drive() }
