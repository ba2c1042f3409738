package netsim

import (
	"fmt"
	"math/rand"
)

// LinkCounters is a snapshot of a link's cumulative activity, used by
// monitors (internal/mrtg) and ground-truth utilization accounting.
type LinkCounters struct {
	PktsIn    uint64 // packets that arrived at the queue
	PktsOut   uint64 // packets fully transmitted
	BytesOut  uint64 // bytes fully transmitted
	Drops     uint64 // packets dropped at a full buffer
	DropBytes uint64
	RandLoss  uint64 // packets erased by the random-loss impairment
	Reordered uint64 // packets delayed by the reordering impairment
	Busy      Time   // cumulative transmission (service) time
}

// A Link is a store-and-forward transmission line with a FIFO drop-tail
// queue. Service is exact: a packet arriving at time t begins
// transmission at max(t, end of previous transmission) and occupies the
// line for 8·Size/Capacity seconds; the packet then arrives at the next
// hop after the propagation delay.
//
// The per-packet event path is allocation-free: because service and
// propagation complete in FIFO order per link, the link keeps its
// in-flight packets in two rings and schedules two prebound callbacks
// (no per-packet closures), each of which pops its ring's head.
//
// A departing packet — nil sink, last hop of its route — costs no event
// after it arrives. It is freed at completion instead of propagating,
// and on a link without OnTransmit observers its completion is lazy: the
// link reserves the sequence number the completion event would have
// taken and, whenever its state is next needed (an arrival, an eager
// completion, Counters, QueuedBytes), settles every departure keyed
// before the last event the simulator fired. Settling applies the
// completion's effects in the completion's own order, so the link's
// counters, queue and impairment draws are exactly those of an eager
// run; the one-hop cross traffic that dominates a simulation then costs
// one event per packet, its source's tick.
type Link struct {
	sim      *Simulator
	name     string
	capacity int64 // bits per second
	prop     Time
	buf      int // queue limit in bytes; 0 means unbounded

	queued    int // bytes queued or in service
	busyUntil Time

	ctr LinkCounters

	// inService and propagating are FIFO rings of packets being
	// transmitted and in flight to the next hop; their heads are popped
	// by txDoneFn and propFn, bound once at NewLink, and by settle for
	// lazily completed departures.
	inService   ring[txRec]
	propagating ring[propRec]
	txDoneFn    func()
	propFn      func()

	onTransmit []func(pkt *Packet, done Time)
	onDrop     []func(pkt *Packet, at Time)

	// impair, when non-nil, applies stochastic loss and reordering to
	// the link's packets; see Impair.
	impair *impairState
}

// An Impairment configures a link's stochastic packet-level failures.
// Loss erases an arriving packet with the given probability before it
// is queued (a wire erasure, distinct from a buffer drop and counted
// separately in RandLoss). Reorder delays a transmitted packet's
// delivery to the next hop by an extra ReorderDelay with the given
// probability, so it arrives behind packets transmitted after it.
// All draws come from a private RNG seeded with Seed, so an impaired
// simulation stays reproducible bit-for-bit.
type Impairment struct {
	Loss         float64 // erase probability in [0, 1)
	Reorder      float64 // delay probability in [0, 1)
	ReorderDelay Time    // extra delivery delay; must be positive when Reorder > 0
	Seed         int64
}

// impairState is a link's live impairment: the configuration plus the
// RNG its per-packet draws consume (in event order, so deterministic).
type impairState struct {
	cfg Impairment
	rng *rand.Rand
}

// Impair installs (or, with a zero Impairment, removes) the link's
// loss/reordering impairment. Reordered packets take a one-off
// scheduled event instead of the allocation-free propagation ring, so
// only impaired traffic pays for the flexibility; a reordered departing
// packet is counted and freed like any other departure. Out-of-range
// probabilities panic, like the NewLink parameter checks.
func (l *Link) Impair(cfg Impairment) {
	if cfg.Loss < 0 || cfg.Loss >= 1 || cfg.Reorder < 0 || cfg.Reorder >= 1 {
		panic(fmt.Sprintf("netsim: link %q: impairment probabilities loss=%v reorder=%v outside [0, 1)", l.name, cfg.Loss, cfg.Reorder))
	}
	if cfg.Reorder > 0 && cfg.ReorderDelay <= 0 {
		panic(fmt.Sprintf("netsim: link %q: reordering needs a positive ReorderDelay, got %v", l.name, cfg.ReorderDelay))
	}
	if cfg.ReorderDelay < 0 {
		panic(fmt.Sprintf("netsim: link %q: negative ReorderDelay %v", l.name, cfg.ReorderDelay))
	}
	// Departures completed before now draw from the old impairment.
	l.settle()
	if cfg.Loss == 0 && cfg.Reorder == 0 {
		l.impair = nil
		return
	}
	l.impair = &impairState{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// txRec is one packet in service: its transmission time and completion
// instant, recorded at arrival so the completion callback needs no
// closure state. A lazily completed departure also carries the sequence
// number its completion event would have taken, plus one; lazy is 0 for
// a packet whose completion is a scheduled txDone.
type txRec struct {
	pkt      *Packet
	tx, done Time
	lazy     uint64
}

// propRec is one packet propagating toward the next hop.
type propRec struct {
	pkt *Packet
	at  Time
}

// NewLink creates a link attached to sim. capacity is in bits per
// second and must be positive; prop is the propagation delay; bufBytes
// limits the queue (queued plus in-service bytes) and 0 disables the
// limit.
func NewLink(sim *Simulator, name string, capacity int64, prop Time, bufBytes int) *Link {
	if capacity <= 0 {
		panic(fmt.Sprintf("netsim: link %q: capacity must be positive, got %d", name, capacity))
	}
	if prop < 0 || bufBytes < 0 {
		panic(fmt.Sprintf("netsim: link %q: negative propagation delay or buffer", name))
	}
	l := &Link{sim: sim, name: name, capacity: capacity, prop: prop, buf: bufBytes}
	l.txDoneFn = l.txDone
	l.propFn = l.propArrive
	return l
}

// Name returns the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// Capacity returns the link capacity in bits per second.
func (l *Link) Capacity() int64 { return l.capacity }

// PropDelay returns the link's propagation delay.
func (l *Link) PropDelay() Time { return l.prop }

// Buffer returns the drop-tail queue limit in bytes (0 = unbounded).
func (l *Link) Buffer() int { return l.buf }

// QueuedBytes returns the bytes currently queued or in service. Like
// Counters it settles departures first, so it must be called from the
// simulator's own goroutine: inside an event, or by whoever drives the
// simulator between Run/Step calls.
func (l *Link) QueuedBytes() int {
	l.settle()
	return l.queued
}

// Counters returns a snapshot of the link's cumulative counters, exact
// as of the last event fired. It settles lazily completed departures
// first (a write to the link), so it must be called from the
// simulator's own goroutine: inside an event, or by whoever drives the
// simulator between Run/Step calls (a sequenced fleet's floor).
func (l *Link) Counters() LinkCounters {
	l.settle()
	return l.ctr
}

// OnTransmit registers an observer invoked whenever a packet finishes
// transmission on this link, with the completion time. Monitors use it
// for windowed byte counting. An observer must fire at the completion
// instant, so it forces eager completion: every packet on an observed
// link gets its txDone event, including departures already in service,
// which take the events their reserved sequence numbers stand for.
func (l *Link) OnTransmit(fn func(pkt *Packet, done Time)) {
	l.settle()
	r := &l.inService
	for i := r.head; i < len(r.buf); i++ {
		if rec := &r.buf[i]; rec.lazy != 0 {
			l.sim.q.ScheduleReserved(int64(rec.done), rec.lazy-1, l.txDoneFn)
			rec.lazy = 0
		}
	}
	l.onTransmit = append(l.onTransmit, fn)
}

// OnDrop registers an observer invoked when a packet is dropped at this
// link's full buffer.
func (l *Link) OnDrop(fn func(pkt *Packet, at Time)) { l.onDrop = append(l.onDrop, fn) }

// TxTime returns the transmission (serialization) time of size bytes on
// this link.
func (l *Link) TxTime(size int) Time {
	// 8 * size bits at capacity bits/s, in nanoseconds. Computed in
	// integer arithmetic to stay deterministic: ns = bits * 1e9 / cap.
	bits := int64(size) * 8
	return Time(bits * int64(Second) / l.capacity)
}

// Utilization returns the mean utilization over a window given the
// counter snapshots at the window's boundaries.
func Utilization(before, after LinkCounters, window Time) float64 {
	if window <= 0 {
		return 0
	}
	return float64(after.Busy-before.Busy) / float64(window)
}

// arrive handles a packet reaching this link's input queue.
func (l *Link) arrive(pkt *Packet, at Time) {
	l.settle()
	l.ctr.PktsIn++
	if imp := l.impair; imp != nil && imp.cfg.Loss > 0 && imp.rng.Float64() < imp.cfg.Loss {
		// Wire erasure: the packet vanishes before this hop's queue.
		// Like a buffer drop the sink is never invoked, but the loss is
		// counted separately and drop observers stay buffer-only.
		l.ctr.RandLoss++
		if pkt.sink == nil {
			l.sim.FreePacket(pkt)
		}
		return
	}
	if l.buf > 0 && l.queued+pkt.Size > l.buf {
		l.ctr.Drops++
		l.ctr.DropBytes += uint64(pkt.Size)
		for _, fn := range l.onDrop {
			fn(pkt, at)
		}
		if pkt.sink == nil {
			l.sim.FreePacket(pkt)
		}
		return
	}
	l.queued += pkt.Size
	start := at
	if l.busyUntil > start {
		start = l.busyUntil
	}
	tx := l.TxTime(pkt.Size)
	done := start + tx
	l.busyUntil = done
	rec := txRec{pkt: pkt, tx: tx, done: done}
	if pkt.departing() && len(l.onTransmit) == 0 {
		rec.lazy = l.sim.q.Reserve() + 1
	} else {
		l.sim.Schedule(done, l.txDoneFn)
	}
	l.inService.push(rec)
}

// settle completes the lazy departures at the head of the in-service
// ring whose reserved completion key orders before the last event the
// simulator fired. Records are in arrival order, so their keys increase
// and the first unfired or eager record ends the scan.
func (l *Link) settle() {
	r := &l.inService
	for r.head < len(r.buf) {
		rec := r.buf[r.head]
		if rec.lazy == 0 || !l.sim.fired(rec.done, rec.lazy-1) {
			return
		}
		r.pop()
		l.complete(rec)
	}
}

// txDone completes the head of the in-service ring. Completions are
// FIFO because busyUntil never decreases, so once the lazy departures
// ahead of it are settled the ring head is the packet whose event is
// firing.
func (l *Link) txDone() {
	l.settle()
	l.complete(l.inService.pop())
}

// complete accounts one finished transmission and sends the packet on:
// to the next hop after the propagation delay, or, for a departing
// packet, back to the freelist, since the delivery at the end of its
// propagation would only free it.
func (l *Link) complete(rec txRec) {
	pkt := rec.pkt
	l.queued -= pkt.Size
	l.ctr.PktsOut++
	l.ctr.BytesOut += uint64(pkt.Size)
	l.ctr.Busy += rec.tx
	for _, fn := range l.onTransmit {
		fn(pkt, rec.done)
	}
	reorder := false
	if imp := l.impair; imp != nil && imp.cfg.Reorder > 0 && imp.rng.Float64() < imp.cfg.Reorder {
		l.ctr.Reordered++
		reorder = true
	}
	switch {
	case pkt.departing():
		l.sim.FreePacket(pkt)
	case reorder:
		// Reordered delivery: this packet bypasses the FIFO propagation
		// ring (whose invariant is constant per-link latency) and takes
		// its own event at prop + ReorderDelay, arriving behind packets
		// transmitted after it. The closure allocation is confined to
		// reordered packets that stay in the network, keeping the
		// unimpaired hot path alloc-free.
		at := rec.done + l.prop + l.impair.cfg.ReorderDelay
		l.sim.Schedule(at, func() { pkt.forward(l.sim, at) })
	case l.prop == 0:
		pkt.forward(l.sim, rec.done)
	default:
		l.propagating.push(propRec{pkt: pkt, at: rec.done + l.prop})
		l.sim.Schedule(rec.done+l.prop, l.propFn)
	}
}

// propArrive delivers the head of the propagation ring to the next hop.
// Arrivals are FIFO because completion times are nondecreasing and the
// propagation delay is constant per link.
func (l *Link) propArrive() {
	rec := l.propagating.pop()
	rec.pkt.forward(l.sim, rec.at)
}

// ring is an amortized allocation-free FIFO queue.
type ring[T any] struct {
	buf  []T
	head int
}

// push appends v, compacting the dead head region first when it
// dominates the buffer.
func (r *ring[T]) push(v T) {
	if r.head > 64 && r.head > len(r.buf)/2 {
		n := copy(r.buf, r.buf[r.head:])
		clear(r.buf[n:])
		r.buf = r.buf[:n]
		r.head = 0
	}
	r.buf = append(r.buf, v)
}

// pop removes and returns the oldest element.
func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head++
	if r.head == len(r.buf) {
		r.buf = r.buf[:0]
		r.head = 0
	}
	return v
}
