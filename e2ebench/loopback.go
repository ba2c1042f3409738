package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/udprobe"

	pathload "repro"
)

// The loopback workload: one udprobe sender and one dialed prober in
// this process, on 127.0.0.1, running back-to-back estimates with the
// configuration of the udprobe package's loopback test.
const loopbackSetups = 3

// loopbackConfig is the estimate configuration; the seed only moves the
// rate each search starts from.
func loopbackConfig(seed int64, n int) pathload.Config {
	return pathload.Config{
		PacketsPerStream: 50,
		StreamsPerFleet:  3,
		MaxFleets:        10,
		MinPeriod:        50 * time.Microsecond,
		InitialRate:      20e6 + unit(derive(seed, int64(n)))*180e6,
	}
}

// loopbackPair is a running sender with one dialed prober.
type loopbackPair struct {
	sender *udprobe.Sender
	prober *udprobe.Prober
	served chan error
	dialMs float64
}

func startLoopback() (*loopbackPair, error) {
	s, err := udprobe.NewSender("127.0.0.1:0", udprobe.SenderConfig{})
	if err != nil {
		return nil, err
	}
	lp := &loopbackPair{sender: s, served: make(chan error, 1)}
	go func() { lp.served <- s.Serve() }()
	t0 := time.Now()
	p, err := udprobe.Dial(s.Addr().String(), udprobe.ProberConfig{})
	if err != nil {
		lp.close()
		return nil, err
	}
	lp.dialMs = ms(time.Since(t0))
	lp.prober = p
	return lp, nil
}

// close says goodbye, closes the sender and waits for it to stop: Serve
// returns only once every session goroutine has ended, so a session
// leaked by the prober or the sender shows as a timeout here.
func (lp *loopbackPair) close() error {
	if lp.prober != nil {
		lp.prober.Close()
	}
	err := lp.sender.Close()
	select {
	case serr := <-lp.served:
		return errors.Join(err, serr)
	case <-time.After(5 * time.Second):
		return errors.Join(err, errors.New("sender still serving a session 5 s after close"))
	}
}

// runLoopback sets the pair up loopbackSetups times — each set-up
// starts a sender, dials it and runs one warm-up estimate — then runs
// estimates back to back on the last pair for d.
func runLoopback(e *env, tr *tracer, d time.Duration) (*phase, error) {
	t := newTally(tr)
	proc0 := readProc()
	goroutines0 := runtime.NumGoroutine()
	var lp *loopbackPair
	var dialMs []float64
	for i := 0; i < loopbackSetups; i++ {
		if lp != nil {
			if err := lp.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if lp, err = startLoopback(); err != nil {
			return nil, err
		}
		dialMs = append(dialMs, lp.dialMs)
		if _, err := pathload.Run(lp.prober, loopbackConfig(e.seed, -1-i)); err != nil {
			lp.close()
			return nil, fmt.Errorf("warm-up estimate: %w", err)
		}
		t.setupS = append(t.setupS, time.Since(t0).Seconds())
	}

	p := &probe{inner: lp.prober, tr: tr, layer: "udprobe", rep: t.phase}
	walls := map[int64]time.Duration{}
	var overhead []float64
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < d; n++ {
		// A traced phase runs each configuration twice, traced then
		// untraced (see below), so trace.overhead_pct compares like
		// with like.
		cfg := loopbackConfig(e.seed, n)
		if tr != nil {
			cfg = loopbackConfig(e.seed, n/2)
		}
		t0 := time.Now()
		p.op = int64(n)
		p.parent = tr.begin("run", p.op, -1)
		res, err := pathload.Run(p, cfg)
		tr.end(p.parent)
		wall := time.Since(t0)
		if tr.on() {
			walls[p.op] = wall
		}
		// The loopback path has no analytic truth, so nothing is graded.
		t.add(fmt.Sprintf("estimate %d", n), outcome{res: res, err: err, truth: math.NaN(), wall: wall})
		if err == nil {
			overhead = append(overhead, ms(wall-res.Elapsed))
		}
		// A traced phase makes every estimate a chunk, so tracing
		// alternates between estimates.
		if tr != nil {
			t.closeChunk(wall, liveHeapMB(lp, p))
		}
	}
	if tr == nil {
		t.closeChunk(time.Since(start), liveHeapMB(lp, p))
	}
	if err := lp.close(); err != nil {
		t.check(false, "closing the loopback pair: %v", err)
	}
	// Every goroutine the pair started has ended once close returns;
	// allow the HTTP-free runtime a moment to reap timers.
	leaked := 0
	for wait := 0; wait < 50; wait++ {
		if leaked = runtime.NumGoroutine() - goroutines0; leaked <= 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.check(leaked <= 0, "%d goroutines still running after the sender closed", leaked)

	t.finish(proc0)
	delete(t.detail, "hit_rate")
	t.detail["overhead_ms_per_estimate"] = mean(overhead)
	t.layer["udprobe.dial_ms"] = quantile(dialMs, 0.5)
	t.layer["udprobe.flagged_stream_share"] = ratio(float64(p.flagged), float64(p.streams))
	t.layer["udprobe.loss_share"] = ratio(float64(p.sent-p.received), float64(p.sent))
	if tr != nil {
		self := tr.selfByName()
		t.layer["udprobe.stream_overrun_ms_p50"] = quantile(p.overruns, 0.5)
		t.layer["udprobe.stream_overrun_ms_p90"] = quantile(p.overruns, 0.9)
		t.layer["udprobe.idle_overrun_us_p90"] = quantile(p.idleOverruns, 0.9)
		t.layer["udprobe.owd_spread_us_p50"] = quantile(p.owdSpread, 0.5)
		t.layer["run.self_ms_per_estimate"] = ratio(self["run"], float64(len(walls)))
		checkAccounting(tr, walls, t.phase)
	}
	return t.phase, nil
}
