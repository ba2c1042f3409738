package netsim

import (
	"testing"
)

// cbrSource injects fixed-size packets over a route at a fixed period
// from a fixed phase, so sources on a common time grid tie exactly. Its
// tick is bound once, so steady-state injection allocates nothing.
type cbrSource struct {
	sim    *Simulator
	route  []*Link
	sink   Sink
	period Time
	size   int
	id     uint64
	tickFn func()
}

func startCBR(sim *Simulator, route []*Link, sink Sink, phase, period Time, size int, idBase uint64) *cbrSource {
	c := &cbrSource{sim: sim, route: route, sink: sink, period: period, size: size, id: idBase}
	c.tickFn = c.tick
	sim.Schedule(sim.Now()+phase, c.tickFn)
	return c
}

func (c *cbrSource) tick() {
	c.id++
	pkt := c.sim.NewPacket()
	pkt.ID, pkt.Size = c.id, c.size
	c.sim.Inject(pkt, c.route, c.sink)
	c.sim.After(c.period, c.tickFn)
}

// fnv64 is an FNV-1a hash over uint64 words, integer-only so a pinned
// value is the same on every platform.
type fnv64 uint64

func newFNV() fnv64 { return 14695981039346656037 }

func (h *fnv64) add(vs ...uint64) {
	for _, v := range vs {
		for b := 0; b < 8; b++ {
			*h ^= fnv64((v >> (8 * b)) & 0xff)
			*h *= 1099511628211
		}
	}
}

func (h *fnv64) addCounters(c LinkCounters, queued int) {
	h.add(c.PktsIn, c.PktsOut, c.BytesOut, c.Drops, c.DropBytes, c.RandLoss, c.Reordered, uint64(c.Busy), uint64(queued))
}

// tieStats counts what a tie transcript exercised, so the pinned hash
// cannot silently cover an empty run.
type tieStats struct {
	delivered, drops, reordered, lost, samples int
	dueAtSwitch                                int
}

// dueDepartures counts l's lazy departures whose completion has passed
// but that no read has settled yet.
func dueDepartures(l *Link) int {
	n := 0
	for _, rec := range l.inService.buf[l.inService.head:] {
		if rec.lazy != 0 && l.sim.fired(rec.done, rec.lazy-1) {
			n++
		}
	}
	return n
}

// tieTranscript runs a small network in which every event falls on a
// 250 µs grid: CBR sources whose periods are multiples of their links'
// transmission times, small drop-tail buffers, loss and reorder
// impairments, a three-hop probe stream with a sink, two-hop cross
// traffic, a sampler that reads Counters and QueuedBytes in the middle
// of instants, and an impairment switch halfway through. It hashes the
// probe OWDs, the drops and every counter read.
//
// eager puts a no-op OnTransmit observer on every link, which forces a
// completion event per packet. stepped drives the simulator the way the
// simprobe Sequencer does — Step toward a deadline, Run to pass it once
// nothing is due — and reads every link's counters from the floor after
// each Step; those reads must not perturb anything. Both drives read
// the links at deadlines on the event grid, after every event due then.
func tieTranscript(eager, stepped bool) (uint64, tieStats) {
	const size = 1250 // 1 ms on 10 Mb/s, 500 µs on 20 Mb/s, 2 ms on 5 Mb/s
	sim := NewSimulator()
	a := NewLink(sim, "a", 10e6, Millisecond, 4*size)
	b := NewLink(sim, "b", 20e6, 0, 3*size)
	b.Impair(Impairment{Loss: 0.05, Reorder: 0.2, ReorderDelay: 3 * Millisecond, Seed: 7})
	c := NewLink(sim, "c", 5e6, 2*Millisecond, 4*size)
	c.Impair(Impairment{Reorder: 0.3, ReorderDelay: Millisecond, Seed: 11})
	links := []*Link{a, b, c}

	h := newFNV()
	var st tieStats
	for i, l := range links {
		i := uint64(i)
		if eager {
			l.OnTransmit(func(*Packet, Time) {})
		}
		l.OnDrop(func(pkt *Packet, at Time) {
			st.drops++
			h.add(0xd0, i, pkt.ID, uint64(at))
		})
	}
	const us = Microsecond
	// One-hop cross traffic: leaves the network at its only hop.
	startCBR(sim, []*Link{a}, nil, 0, 2*Millisecond, size, 1<<40)
	startCBR(sim, []*Link{a}, nil, Millisecond, 3*Millisecond, size, 2<<40)
	startCBR(sim, []*Link{b}, nil, 0, Millisecond, size, 3<<40)
	startCBR(sim, []*Link{b}, nil, 500*us, 1500*us, size, 4<<40)
	startCBR(sim, []*Link{c}, nil, 0, 4*Millisecond, size, 5<<40)
	startCBR(sim, []*Link{c}, nil, 2*Millisecond, 6*Millisecond, size, 6<<40)
	// Two-hop cross traffic: eager at its first hop, departing at its
	// second.
	startCBR(sim, []*Link{a, b}, nil, 500*us, 5*Millisecond, size, 7<<40)
	startCBR(sim, []*Link{b, c}, nil, 250*us, 4*Millisecond, size/2, 8<<40)
	// The probe stream, received at the end of a three-hop path.
	probeSink := func(pkt *Packet, at Time) {
		st.delivered++
		h.add(0x9e, pkt.ID, uint64(at-pkt.SentAt))
		sim.FreePacket(pkt)
	}
	startCBR(sim, links, probeSink, 250*us, 2500*us, size/2, 9<<40)
	startCBR(sim, links, probeSink, Millisecond, 7*Millisecond, size, 10<<40)
	// The sampler reads every link at each millisecond, landing in the
	// middle of that instant's tie group.
	var sample func()
	sample = func() {
		st.samples++
		h.add(0x5a, uint64(sim.Now()))
		for _, l := range links {
			h.addCounters(l.Counters(), l.QueuedBytes())
		}
		sim.After(Millisecond, sample)
	}
	sim.Schedule(Millisecond, sample)
	// Halfway through, between samples, both impaired links switch
	// impairments. Departures completed before the switch must draw
	// from the old RNG, so some must still be unsettled when it comes.
	sim.Schedule(210*Millisecond+500*us, func() {
		st.dueAtSwitch = dueDepartures(b) + dueDepartures(c)
		b.Impair(Impairment{Loss: 0.1, Reorder: 0.4, ReorderDelay: 2 * Millisecond, Seed: 13})
		c.Impair(Impairment{Loss: 0.02, Reorder: 0.1, ReorderDelay: 500 * us, Seed: 17})
	})

	for k := Time(1); k <= 60; k++ {
		dl := k * 7 * Millisecond
		if stepped {
			for sim.Step(dl) {
				for _, l := range links {
					l.Counters()
				}
			}
		}
		sim.Run(dl)
		h.add(0xf1, uint64(sim.Now()))
		for _, l := range links {
			h.addCounters(l.Counters(), l.QueuedBytes())
		}
	}
	for _, l := range links {
		ctr := l.Counters()
		st.reordered += int(ctr.Reordered)
		st.lost += int(ctr.RandLoss)
	}
	return uint64(h), st
}

// lazyTieHash pins tieTranscript. It is the value the simulator gave
// before departures were completed lazily, when every completion was an
// event: lazy completion must reproduce it exactly, ties included.
// Recompute it (printed on failure) only for an intentional semantic
// change to the simulator core.
const lazyTieHash uint64 = 0xade14945b8ba3103

// TestDeterminismLazyCompletion checks that lazily completed
// departures are tie-exact. Driven by Run and by the Sequencer's
// step-then-Run pattern, with and without an observer on every link
// (which makes every completion an eager event), the transcript must
// hash to the pinned value. Settling by completion time alone, ignoring
// the reserved sequence number, completes a departure before an
// arrival or sampler that precedes it within its instant and changes
// the hash. CI runs it under -race -count=2 with the other determinism
// tests.
func TestDeterminismLazyCompletion(t *testing.T) {
	for _, tc := range []struct {
		name           string
		eager, stepped bool
	}{
		{"lazy-run", false, false},
		{"lazy-stepped", false, true},
		{"eager-run", true, false},
		{"eager-stepped", true, true},
	} {
		got, st := tieTranscript(tc.eager, tc.stepped)
		if got != lazyTieHash {
			t.Errorf("%s: transcript hash %#x, want pinned %#x", tc.name, got, lazyTieHash)
		}
		if st.delivered == 0 || st.drops == 0 || st.reordered == 0 || st.lost == 0 || st.samples == 0 {
			t.Errorf("%s: transcript exercised too little: %+v", tc.name, st)
		}
		if !tc.eager && st.dueAtSwitch == 0 {
			t.Errorf("%s: no departure awaited settling at the impairment switch", tc.name)
		}
	}
}

// TestDepartureCostsOneEvent: steady one-hop cross traffic costs one
// event per packet (its source's tick) and allocates nothing, on a
// plain link and on a reorder-impaired one. Packets that stay in the
// network — a first hop of two, or a hop before a sink — keep their
// transmission and propagation events.
func TestDepartureCostsOneEvent(t *testing.T) {
	sinkFree := func(sim *Simulator) Sink {
		return func(pkt *Packet, _ Time) { sim.FreePacket(pkt) }
	}
	for _, tc := range []struct {
		name    string
		hops    int
		sink    bool
		reorder bool
		perPkt  uint64
	}{
		{"departing", 1, false, false, 1},
		{"departing-reordered", 1, false, true, 1},
		{"two-hop", 2, false, false, 3}, // tick, txDone and propagation at the first hop
		{"sink", 1, true, false, 3},     // tick, txDone, propagation to the sink
	} {
		sim := NewSimulator()
		var route []*Link
		for i := 0; i < tc.hops; i++ {
			route = append(route, NewLink(sim, "l", 100e6, 5*Millisecond, 0))
		}
		if tc.reorder {
			route[0].Impair(Impairment{Reorder: 0.3, ReorderDelay: Millisecond, Seed: 1})
		}
		var sink Sink
		if tc.sink {
			sink = sinkFree(sim)
		}
		startCBR(sim, route, sink, 0, 100*Microsecond, 1000, 0)
		sim.RunFor(50 * Millisecond) // fill the pipeline and the freelists
		ev0, in0 := sim.Events(), route[0].Counters().PktsIn
		allocs := testing.AllocsPerRun(10, func() { sim.RunFor(10 * Millisecond) })
		events, pkts := sim.Events()-ev0, route[0].Counters().PktsIn-in0
		if pkts == 0 || events != tc.perPkt*pkts {
			t.Errorf("%s: %d events for %d packets, want %d per packet", tc.name, events, pkts, tc.perPkt)
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocs per 10 ms of traffic, want 0", tc.name, allocs)
		}
		if tc.reorder && route[0].Counters().Reordered == 0 {
			t.Errorf("%s: no packet was reordered", tc.name)
		}
	}
}

// TestOnTransmitTakesOverDepartures: an observer registered while
// departures are in service still sees each of them complete, at its
// completion instant, because registering turns their reserved
// sequence numbers back into txDone events.
func TestOnTransmitTakesOverDepartures(t *testing.T) {
	sim := NewSimulator()
	link := NewLink(sim, "l", 10e6, Millisecond, 0)
	startCBR(sim, []*Link{link}, nil, 0, 517*Microsecond, 1250, 0) // ~2× overload: the queue grows
	sim.RunFor(20 * Millisecond)
	if link.QueuedBytes() == 0 {
		t.Fatal("no departures in service when the observer registers")
	}
	out0 := link.Counters().PktsOut
	var seen []Time
	link.OnTransmit(func(_ *Packet, done Time) {
		if done != sim.Now() {
			t.Errorf("observer called at %v for a completion at %v", sim.Now(), done)
		}
		seen = append(seen, done)
	})
	sim.RunFor(20 * Millisecond)
	if got, want := uint64(len(seen)), link.Counters().PktsOut-out0; got != want || got == 0 {
		t.Fatalf("observer saw %d completions, link completed %d", got, want)
	}
}

// TestSettleFollowsFiredKey pins what a read between events sees of a
// departure due at the current instant: it has completed once every
// event keyed before it has fired, and not before. Here the departure's
// completion is keyed after the only other event at its instant.
func TestSettleFollowsFiredKey(t *testing.T) {
	for _, drive := range []string{"run", "rununtil", "step"} {
		sim := NewSimulator()
		link := NewLink(sim, "l", 10e6, Millisecond, 0)
		sim.Schedule(Millisecond, func() {
			if got := link.Counters().PktsOut; got != 0 {
				t.Errorf("%s: departure completed before an event keyed ahead of it", drive)
			}
		})
		pkt := sim.NewPacket()
		pkt.Size = 1250 // done at 1 ms, keyed after the event above
		sim.Inject(pkt, []*Link{link}, nil)
		switch drive {
		case "run":
			sim.Run(Millisecond)
		case "rununtil":
			sim.RunUntil(func() bool { return false }, Millisecond)
		case "step":
			if !sim.Step(Millisecond) {
				t.Fatal("step: nothing fired")
			}
			if got := link.QueuedBytes(); got != 1250 {
				t.Errorf("step: %d bytes queued after the first event of the instant, want 1250", got)
			}
			sim.Run(Millisecond)
		}
		if got := link.Counters().PktsOut; got != 1 {
			t.Errorf("%s: %d packets out after passing the completion instant, want 1", drive, got)
		}
	}
}
