package udprobe

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"

	pathload "repro"
)

// TestHandshakeNegotiatesNewestVersion: two current-build peers must
// settle on the newest protocol version and measure normally.
func TestHandshakeNegotiatesNewestVersion(t *testing.T) {
	addr := startSender(t)
	p, err := Dial(addr, ProberConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if got := p.NegotiatedVersion(); got != wire.Version {
		t.Fatalf("negotiated version %d, want %d", got, wire.Version)
	}
	res, err := p.SendStream(pathload.StreamSpec{K: 10, L: 150, T: 300 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 10 {
		t.Fatalf("sent %d of 10 after version-3 handshake", res.Sent)
	}
}

// TestSenderRejectsDisjointVersionRange: a receiver advertising only
// versions newer than this build must be refused at the handshake, not
// mis-served.
func TestSenderRejectsDisjointVersionRange(t *testing.T) {
	addr := startSender(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := wire.HelloRange{Min: wire.Version + 1, Max: wire.Version + 9, UDPPort: 1}
	if err := wire.WriteMessage(conn, wire.MsgHello, wire.MarshalHelloRange(hello)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := wire.ReadMessage(conn); err == nil {
		t.Fatal("sender acknowledged a version range it cannot speak")
	}
}

// startLaggedSender runs a control server whose replies (pong and
// stream-done) wait for the current value of *lagNs first — a control
// path whose latency the test can shift mid-session.
func startLaggedSender(t *testing.T, lagNs *atomic.Int64) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		mt, payload, err := wire.ReadMessage(conn)
		if err != nil || mt != wire.MsgHello {
			return
		}
		hello, err := wire.ParseHello(payload)
		if err != nil {
			return
		}
		version, err := wire.Negotiate(hello.Min, hello.Max)
		if err != nil {
			return
		}
		host, _, _ := net.SplitHostPort(conn.RemoteAddr().String())
		udp, err := net.DialUDP("udp", nil, &net.UDPAddr{IP: net.ParseIP(host), Port: int(hello.UDPPort)})
		if err != nil {
			return
		}
		defer udp.Close()
		if err := wire.WriteMessage(conn, wire.MsgHelloAck, wire.MarshalHelloAck(wire.HelloAck{Version: version})); err != nil {
			return
		}
		for {
			mt, payload, err := wire.ReadMessage(conn)
			if err != nil {
				return
			}
			time.Sleep(time.Duration(lagNs.Load()))
			switch mt {
			case wire.MsgPing:
				if err := wire.WriteMessage(conn, wire.MsgPong, nil); err != nil {
					return
				}
			case wire.MsgStreamRequest:
				req, err := wire.UnmarshalStreamRequest(payload)
				if err != nil {
					return
				}
				for i := uint32(0); i < req.K; i++ {
					buf, _ := wire.MarshalProbe(wire.ProbeHeader{
						Gen: req.Gen, Fleet: req.Fleet, Stream: req.Stream,
						Seq: i, SentNs: time.Now().UnixNano(),
					}, int(req.L))
					udp.Write(buf)
				}
				done := wire.StreamDone{Gen: req.Gen, Fleet: req.Fleet, Stream: req.Stream, Sent: req.K}
				if err := wire.WriteMessage(conn, wire.MsgStreamDone, wire.MarshalStreamDone(done)); err != nil {
					return
				}
			default:
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestRTTRefreshTracksControlLatencyShift: the control path's latency
// rises mid-session; a prober that only measured the RTT at Dial would
// keep sizing gaps and deadlines with the stale value forever. The
// pre-stream refresh must fold the new latency into RTT().
func TestRTTRefreshTracksControlLatencyShift(t *testing.T) {
	var lagNs atomic.Int64
	addr := startLaggedSender(t, &lagNs)

	p, err := Dial(addr, ProberConfig{
		ControlTimeout: 3 * time.Second,
		RTTRefresh:     time.Nanosecond, // always stale: every stream re-measures
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	dialRTT := p.RTT()
	if dialRTT > 20*time.Millisecond {
		t.Fatalf("loopback dial RTT %v implausibly high, the shift below would prove nothing", dialRTT)
	}

	// The control path degrades after the handshake.
	const shift = 50 * time.Millisecond
	lagNs.Store(int64(shift))

	if _, err := p.SendStream(pathload.StreamSpec{K: 5, L: 150, T: 300 * time.Microsecond}); err != nil {
		t.Fatal(err)
	}
	if got := p.RTT(); got < shift {
		t.Fatalf("RTT() = %v after a %v control latency shift (dial-time estimate was %v) — the estimate was never refreshed", got, shift, dialRTT)
	}
}

// TestIdleKeepaliveRefreshesRTT: keepalive pings during a long Idle
// must refresh the estimate too, so a session that merely waits
// between rounds also tracks latency drift.
func TestIdleKeepaliveRefreshesRTT(t *testing.T) {
	var lagNs atomic.Int64
	addr := startLaggedSender(t, &lagNs)

	p, err := Dial(addr, ProberConfig{
		ControlTimeout: 3 * time.Second,
		KeepAlive:      20 * time.Millisecond, // chunk the idle into keepalive pings
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const shift = 40 * time.Millisecond
	lagNs.Store(int64(shift))
	if err := p.Idle(60 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := p.RTT(); got < shift {
		t.Fatalf("RTT() = %v after idle keepalives under a %v latency shift — keepalives did not refresh the estimate", got, shift)
	}
}
