// Package eventq provides a cancellable priority queue of timed events,
// the scheduling substrate for the discrete-event network simulator.
//
// Events are ordered by activation time; ties are broken by scheduling
// order, so the queue is deterministic: two runs that schedule the same
// events in the same order execute them identically.
//
// The queue is built for the simulator's per-packet hot path: fired and
// cancelled events are recycled through a freelist, so steady-state
// Schedule allocates nothing, and the heap is a flat quaternary heap
// (no container/heap interface dispatch, half the levels of a binary
// heap), which is where a discrete-event core spends most of its time.
package eventq

// An Event is a callback scheduled at a point in simulated time. Event
// structs are owned by their Queue and recycled after they fire or are
// cancelled; external code holds Handles, never *Events.
type Event struct {
	at    int64
	seq   uint64
	fn    func()
	index int    // heap index; -1 once popped or cancelled
	gen   uint32 // bumped on recycle, invalidating stale Handles
}

// At returns the simulated time at which the event fires.
func (e *Event) At() int64 { return e.at }

// Seq returns the event's sequence number, its tie-break among events
// due at the same time.
func (e *Event) Seq() uint64 { return e.seq }

// Fire runs the event's callback. It is a no-op on cancelled events.
func (e *Event) Fire() {
	if e.fn != nil {
		fn := e.fn
		e.fn = nil
		fn()
	}
}

// A Handle names a scheduled event. It is a value, safe to copy and to
// keep after the event fired: a stale handle (its event fired, was
// cancelled, or was recycled for a later event) simply reports not
// pending and cancels as a no-op. The zero Handle is valid and never
// pending.
type Handle struct {
	e   *Event
	gen uint32
}

// Pending reports whether the handle's event is still queued (not yet
// fired or cancelled).
func (h Handle) Pending() bool { return h.e != nil && h.e.gen == h.gen && h.e.index >= 0 }

// At returns the simulated time at which the event fires, and ok=false
// if the handle is stale (the event already fired or was cancelled).
func (h Handle) At() (at int64, ok bool) {
	if !h.Pending() {
		return 0, false
	}
	return h.e.at, true
}

// A Queue is a time-ordered event queue. The zero value is ready to use.
// Queue is not safe for concurrent use; the simulator is single-threaded
// by design so that runs are reproducible.
type Queue struct {
	h    []*Event
	seq  uint64
	free []*Event
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.h) }

// Schedule enqueues fn to run at time at and returns a handle that can
// be used to cancel it. Scheduling in the past is allowed (the event
// simply becomes the next to fire); the simulator guards against
// time travel separately. Steady state, Schedule is allocation-free:
// it reuses events recycled by Recycle and Cancel.
func (q *Queue) Schedule(at int64, fn func()) Handle {
	return q.ScheduleReserved(at, q.Reserve(), fn)
}

// Reserve consumes the next sequence number without scheduling an
// event and returns it. A caller that settles an event's effects
// itself instead of scheduling it reserves the number the event would
// have taken, so the (at, seq) key it keeps orders exactly as the event
// would have against every event scheduled before and after.
func (q *Queue) Reserve() uint64 {
	seq := q.seq
	q.seq++
	return seq
}

// ScheduleReserved enqueues fn at time at under seq, a number
// previously returned by Reserve: it turns a reserved key back into a
// real event, which fires exactly where a Schedule made at reservation
// time would have.
func (q *Queue) ScheduleReserved(at int64, seq uint64, fn func()) Handle {
	var e *Event
	if n := len(q.free); n > 0 {
		e = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
	} else {
		e = &Event{}
	}
	e.at, e.seq, e.fn = at, seq, fn
	q.h = append(q.h, e)
	e.index = len(q.h) - 1
	q.up(e.index)
	return Handle{e: e, gen: e.gen}
}

// Cancel removes the handle's event from the queue and recycles it. It
// returns true if the event was pending and is now cancelled, and false
// if it had already fired, been cancelled, or the handle is zero.
func (q *Queue) Cancel(h Handle) bool {
	if !h.Pending() {
		return false
	}
	q.remove(h.e.index)
	q.Recycle(h.e)
	return true
}

// PeekTime returns the activation time of the earliest pending event.
// ok is false if the queue is empty.
func (q *Queue) PeekTime() (at int64, ok bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].at, true
}

// Pop removes and returns the earliest pending event. The caller is
// responsible for invoking its callback via Fire and then returning the
// event to the queue with Recycle. Pop returns nil if the queue is
// empty.
func (q *Queue) Pop() *Event {
	if len(q.h) == 0 {
		return nil
	}
	e := q.h[0]
	q.remove(0)
	return e
}

// Recycle returns a popped event to the freelist after its callback
// ran. The event must be out of the heap (popped, not merely peeked);
// recycling bumps its generation, so stale Handles can never cancel the
// event's next incarnation.
func (q *Queue) Recycle(e *Event) {
	if e.index >= 0 {
		panic("eventq: recycling an event still in the queue")
	}
	e.gen++
	e.fn = nil
	q.free = append(q.free, e)
}

// less orders events by (at, seq): activation time, scheduling order.
func (q *Queue) less(i, j int) bool {
	a, b := q.h[i], q.h[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// remove takes the event at heap index i out of the heap, leaving its
// index at -1.
func (q *Queue) remove(i int) {
	n := len(q.h) - 1
	e := q.h[i]
	if i != n {
		q.h[i] = q.h[n]
		q.h[i].index = i
	}
	q.h[n] = nil
	q.h = q.h[:n]
	e.index = -1
	if i < n {
		q.down(i)
		q.up(i)
	}
}

// up sifts the event at index i toward the root of the 4-ary heap.
func (q *Queue) up(i int) {
	e := q.h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		p := q.h[parent]
		if p.at < e.at || (p.at == e.at && p.seq < e.seq) {
			break
		}
		q.h[i] = p
		p.index = i
		i = parent
	}
	q.h[i] = e
	e.index = i
}

// down sifts the event at index i toward the leaves of the 4-ary heap.
func (q *Queue) down(i int) {
	e := q.h[i]
	n := len(q.h)
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q.less(c, min) {
				min = c
			}
		}
		m := q.h[min]
		if e.at < m.at || (e.at == m.at && e.seq < m.seq) {
			break
		}
		q.h[i] = m
		m.index = i
		i = min
	}
	q.h[i] = e
	e.index = i
}
