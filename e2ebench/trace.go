package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	pathload "repro"
)

// A span is one crossing of a layer boundary, recorded by the
// benchmark's own wrappers around the layer's public calls. Spans of
// one operation (an estimate, an ingested round, a scrape) share op.
type span struct {
	name       string
	op         int64
	parent     int32 // index of the enclosing span, -1 for a root
	start, end int64 // ns since the tracer started; end 0 while open
}

// A tracer keeps spans in memory; they are written out once, when the
// run ends. A nil *tracer records nothing, so wrappers cost one nil
// check in untraced runs; nor does a paused one.
type tracer struct {
	t0     time.Time
	paused atomic.Bool
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// on reports whether begin records spans.
func (t *tracer) on() bool { return t != nil && !t.paused.Load() }

// begin opens a span and returns its id, or -1 when nothing is
// recorded; end(-1) does nothing, and a span opened before a pause
// still ends.
func (t *tracer) begin(name string, op int64, parent int32) int32 {
	if !t.on() {
		return -1
	}
	at := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: at})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	at := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = at
}

// durations returns the durations of every closed span called name, in
// the given unit.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name && s.end > 0 {
			out = append(out, float64(s.end-s.start)/float64(unit))
		}
	}
	return out
}

// selfTimes returns each span's self time in ns: its duration minus
// the part of it its children cover. Children are clipped to the
// parent's interval and to each other, so a span left open, recorded
// under the wrong parent or overlapping a sibling shrinks the total
// instead of being counted twice.
func (t *tracer) selfTimes() []int64 {
	children := make([][]int32, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		if s.end == 0 {
			continue
		}
		covered, cursor := int64(0), s.start
		for _, c := range children[i] {
			cs := t.spans[c]
			lo, hi := max(cs.start, cursor), min(cs.end, s.end)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// selfByName sums self time (ms) per span name.
func (t *tracer) selfByName() map[string]float64 {
	out := map[string]float64{}
	for i, d := range t.selfTimes() {
		out[t.spans[i].name] += float64(d) / 1e6
	}
	return out
}

// dump writes the spans as tab-separated lines: index, parent, op,
// name, start ns, end ns.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\top\tname\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.op, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// accountingTolerance bounds how far the per-layer self times of one
// traced estimate may sum away from its wall time measured around the
// call: 2% of the wall time or 200 µs, whichever is larger.
func accountingTolerance(wall time.Duration) time.Duration {
	return max(wall/50, 200*time.Microsecond)
}

// maxRootSelfShare bounds the share of the traced estimates' summed
// wall time spent in their root span's own code, outside every wrapped
// call. The controller's self time is about 1% on estimate and under
// 0.1% on loopback; a prober call left unwrapped would move its time
// (36% for SendStream, 58% for Idle on estimate) into the root.
const maxRootSelfShare = 0.25

// checkAccounting compares, per traced estimate, the sum of its spans'
// self times with the wall time the caller measured around the call,
// and fails any span of the estimate that never ended. A span outside
// its parent or overlapping a sibling makes the sum exceed the wall
// time. A call nobody wrapped keeps the sum intact but shows as its
// parent's self time, so the roots' self time over all estimates must
// also stay within maxRootSelfShare of their wall.
func checkAccounting(tr *tracer, walls map[int64]time.Duration, rep *phase) {
	sums := map[int64]int64{}
	var rootSelf, wallSum time.Duration
	for i, d := range tr.selfTimes() {
		s := tr.spans[i]
		if _, ok := walls[s.op]; !ok {
			continue
		}
		rep.check(s.end != 0, "estimate %d: span %s never ended", s.op, s.name)
		sums[s.op] += d
		if s.parent < 0 {
			rootSelf += time.Duration(d)
		}
	}
	for op, wall := range walls {
		wallSum += wall
		got := time.Duration(sums[op])
		diff := got - wall
		if diff < 0 {
			diff = -diff
		}
		rep.check(diff <= accountingTolerance(wall),
			"estimate %d: layer self times sum to %v, wall %v", op, got, wall)
	}
	rep.check(float64(rootSelf) <= maxRootSelfShare*float64(wallSum),
		"estimates spent %v of %v outside every wrapped call: a layer boundary is not traced", rootSelf, wallSum)
}

// A probe wraps a pathload.Prober at the controller/transport boundary.
// It checks every stream result, counts what the transport did, and,
// when traced, records a span per call under the current estimate.
type probe struct {
	inner  pathload.Prober
	tr     *tracer
	layer  string // span name prefix: "simprobe" or "udprobe"
	op     int64
	parent int32 // the enclosing estimate's span
	// lazyRoot opens the estimate's span at its first prober call, for
	// estimates whose Run call the benchmark cannot wrap (monitor
	// sessions); the sink closes it.
	lazyRoot bool

	rep *phase

	runStarts []time.Time // when each Run began: its initialization stream

	streams, flagged, sent, received int
	overruns                         []float64 // SendStream wall − stream duration, ms (traced)
	idleOverruns                     []float64 // Idle wall − requested, µs (traced)
	owdSpread                        []float64 // per stream max−min OWD, µs
}

// root returns the span the next call nests under.
func (p *probe) root() int32 {
	if p.lazyRoot && p.parent < 0 {
		p.parent = p.tr.begin("estimate", p.op, -1)
	}
	return p.parent
}

func (p *probe) SendStream(spec pathload.StreamSpec) (pathload.StreamResult, error) {
	id := p.tr.begin(p.layer+".SendStream", p.op, p.root())
	t0 := time.Now()
	if spec.Fleet < 0 {
		p.runStarts = append(p.runStarts, t0)
	}
	res, err := p.inner.SendStream(spec)
	wall := time.Since(t0)
	p.tr.end(id)
	if err != nil {
		return res, err
	}
	p.streams++
	p.sent += res.Sent
	p.received += len(res.OWDs)
	if res.Flagged {
		p.flagged++
	}
	p.rep.check(len(res.OWDs) <= res.Sent && res.Sent <= spec.K,
		"stream fleet %d index %d: received %d of %d sent (K=%d)", spec.Fleet, spec.Index, len(res.OWDs), res.Sent, spec.K)
	if p.tr != nil {
		p.overruns = append(p.overruns, ms(wall-spec.Duration()))
		if len(res.OWDs) > 0 {
			lo, hi := res.OWDs[0].OWD, res.OWDs[0].OWD
			for _, o := range res.OWDs {
				lo, hi = min(lo, o.OWD), max(hi, o.OWD)
			}
			p.owdSpread = append(p.owdSpread, float64(hi-lo)/float64(time.Microsecond))
		}
	}
	return res, nil
}

func (p *probe) Idle(d time.Duration) error {
	id := p.tr.begin(p.layer+".Idle", p.op, p.root())
	t0 := time.Now()
	err := p.inner.Idle(d)
	wall := time.Since(t0)
	p.tr.end(id)
	if p.tr != nil {
		p.idleOverruns = append(p.idleOverruns, float64(wall-d)/float64(time.Microsecond))
	}
	return err
}

func (p *probe) RTT() time.Duration { return p.inner.RTT() }
