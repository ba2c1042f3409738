// Package netsim is a deterministic discrete-event network simulator.
//
// It models a network as store-and-forward links with FIFO drop-tail
// queues, the service discipline assumed by the SLoPS analysis (Jain &
// Dovrolis, SIGCOMM 2002). Packets carry an explicit route (a sequence
// of links) and a sink callback, so path traffic and one-hop cross
// traffic share links naturally.
//
// The simulator is single-threaded and all randomness is injected by
// the caller, so simulations are reproducible bit-for-bit. Time is
// virtual: probe timing is immune to host GC pauses and scheduler
// jitter, which is what makes microsecond-scale probing measurable in
// Go at all (the real-network prober in internal/udprobe is the only
// component exposed to wall clocks).
package netsim

import (
	"fmt"
	"math"

	"repro/internal/eventq"
)

// A Simulator owns virtual time and the event queue. Create one with
// NewSimulator. All network objects attached to a simulator must be
// driven only from its event loop or between Run calls.
type Simulator struct {
	q      eventq.Queue
	now    Time
	events uint64
	// firedSeq is the sequence number of the last event fired at Now,
	// or MaxUint64 once Run or RunUntil has passed Now as a deadline:
	// every event keyed before (Now, firedSeq) has fired. Links settle
	// their lazily completed departures against this key (see
	// Link.settle).
	firedSeq uint64
	// pktFree recycles packets allocated by NewPacket whose ownership
	// returned to the simulator (nil-sink delivery, drop); see FreePacket.
	pktFree []*Packet
}

// NewSimulator returns a simulator with time set to zero.
func NewSimulator() *Simulator {
	return &Simulator{}
}

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Events returns the total number of scheduled events executed so far,
// a useful cost metric for benchmarks. A packet that leaves the network
// at a hop is completed lazily there, without an event of its own (see
// Link), so the count is the work the simulator did, not the number of
// completions it modelled.
func (s *Simulator) Events() uint64 { return s.events }

// Schedule runs fn at the given absolute simulated time. Scheduling in
// the past panics: it would make the event order ill-defined. The
// returned handle is a value; keeping it past the event's firing is
// safe (it goes stale rather than aliasing a recycled event).
func (s *Simulator) Schedule(at Time, fn func()) eventq.Handle {
	if at < s.now {
		panic(fmt.Sprintf("netsim: scheduling event at %v before now %v", at, s.now))
	}
	return s.q.Schedule(int64(at), fn)
}

// After runs fn after duration d of simulated time.
func (s *Simulator) After(d Time, fn func()) eventq.Handle {
	return s.Schedule(s.now+d, fn)
}

// Cancel removes a pending event. It reports whether the event was
// still pending; stale and zero handles report false.
func (s *Simulator) Cancel(h eventq.Handle) bool { return s.q.Cancel(h) }

// Run executes events until the given absolute time. On return, Now()
// equals until, even if the queue drained earlier: virtual time always
// advances to the requested point so that idle periods pass correctly.
func (s *Simulator) Run(until Time) {
	for {
		at, ok := s.q.PeekTime()
		if !ok || Time(at) > until {
			break
		}
		s.fire(at)
	}
	s.pass(until)
}

// fire pops and runs the next event, which is due at at.
func (s *Simulator) fire(at int64) {
	e := s.q.Pop()
	s.now = Time(at)
	s.firedSeq = e.Seq()
	s.events++
	e.Fire()
	s.q.Recycle(e)
}

// pass moves the clock to a deadline that every due event has fired
// by. A deadline behind the clock leaves it, and the fired key, alone.
func (s *Simulator) pass(deadline Time) {
	if deadline >= s.now {
		s.now = deadline
		s.firedSeq = math.MaxUint64
	}
}

// fired reports whether an event keyed (at, seq) would have fired by
// now: it orders before the last event fired, or before the deadline
// last passed.
func (s *Simulator) fired(at Time, seq uint64) bool {
	return at < s.now || at == s.now && seq < s.firedSeq
}

// RunFor executes events for duration d of simulated time.
func (s *Simulator) RunFor(d Time) { s.Run(s.now + d) }

// Step fires the single next pending event if it is scheduled no later
// than limit, advancing Now to the event's time, and reports whether an
// event fired. When nothing fired (empty queue or next event past the
// limit) the clock is unchanged; use Run to pass idle time. External
// drivers that must interleave other work between events — the
// co-scheduling sequencer in internal/simprobe — are its callers.
//
// Step fires scheduled events only. A departing packet's completion is
// never an event (see Link), so a false Step does not mean that
// completions up to limit were stepped, and how many Steps reach a time
// is not part of the contract: drivers advance by deadline, never by
// event count. Whatever they read between Steps (Link.Counters,
// QueuedBytes) is settled to exactly the events fired so far.
func (s *Simulator) Step(limit Time) bool {
	at, ok := s.q.PeekTime()
	if !ok || Time(at) > limit {
		return false
	}
	s.fire(at)
	return true
}

// RunUntil executes events until cond reports true or the absolute
// deadline passes, whichever is first. cond is evaluated after each
// event. It reports whether cond was met.
func (s *Simulator) RunUntil(cond func() bool, deadline Time) bool {
	if cond() {
		return true
	}
	for {
		at, ok := s.q.PeekTime()
		if !ok || Time(at) > deadline {
			break
		}
		s.fire(at)
		if cond() {
			return true
		}
	}
	s.pass(deadline)
	return false
}

// Pending returns the number of queued events. Like Events it counts
// scheduled events only: departing packets still in service at a link
// are not among them.
func (s *Simulator) Pending() int { return s.q.Len() }
