package coord

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	pathload "repro"
)

// startServer spins up a server on loopback for raw-frame clients.
func startServer(t *testing.T, cfg ServerConfig) (*Server, string) {
	t.Helper()
	if len(cfg.Coord.Paths) == 0 {
		cfg.Coord.Paths = []string{"p00"}
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	return srv, ln.Addr().String()
}

// sendHello dials and opens a session at the given version range,
// returning the first reply frame.
func sendHello(t *testing.T, addr, name string, min, max uint16) (net.Conn, msgType, []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := writeFrame(conn, msgHello, marshalHello(helloMsg{Min: min, Max: max, Name: name})); err != nil {
		t.Fatalf("hello: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	ft, payload, err := readFrame(conn)
	if err != nil {
		t.Fatalf("first reply: %v", err)
	}
	return conn, ft, payload
}

// expectError asserts the frame is a versioned rejection with code.
func expectError(t *testing.T, ft msgType, payload []byte, code uint16) {
	t.Helper()
	if ft != msgError {
		t.Fatalf("expected error frame, got %v", ft)
	}
	e, err := unmarshalError(payload)
	if err != nil {
		t.Fatalf("unmarshalError: %v", err)
	}
	if e.Code != code || e.Version != Version {
		t.Fatalf("error frame %+v, want code %d version %d", e, code, Version)
	}
}

// TestAuthHandshake walks the challenge exchange at the frame level:
// the right MAC registers, the wrong one is refused with a versioned
// auth error and never reaches the lease machine.
func TestAuthHandshake(t *testing.T) {
	srv, addr := startServer(t, ServerConfig{Secret: "sesame"})

	conn, ft, payload := sendHello(t, addr, "good", VersionMin, Version)
	defer conn.Close()
	if ft != msgChallenge {
		t.Fatalf("expected challenge, got %v", ft)
	}
	nonce, err := unmarshalChallenge(payload)
	if err != nil {
		t.Fatalf("unmarshalChallenge: %v", err)
	}
	if err := writeFrame(conn, msgAuth, marshalAuth(authMAC("sesame", nonce, "good"))); err != nil {
		t.Fatalf("auth: %v", err)
	}
	ft, payload, err = readFrame(conn)
	if err != nil {
		t.Fatalf("hello-ack: %v", err)
	}
	if ft != msgHelloAck {
		t.Fatalf("expected hello-ack, got %v", ft)
	}
	ack, err := unmarshalHelloAck(payload)
	if err != nil || ack.Version != Version {
		t.Fatalf("ack %+v (%v)", ack, err)
	}

	bad, ft, payload := sendHello(t, addr, "bad", VersionMin, Version)
	defer bad.Close()
	if ft != msgChallenge {
		t.Fatalf("expected challenge, got %v", ft)
	}
	nonce, _ = unmarshalChallenge(payload)
	if err := writeFrame(bad, msgAuth, marshalAuth(authMAC("wrong", nonce, "bad"))); err != nil {
		t.Fatalf("auth: %v", err)
	}
	ft, payload, err = readFrame(bad)
	if err != nil {
		t.Fatalf("rejection: %v", err)
	}
	expectError(t, ft, payload, errCodeAuth)

	for _, line := range srv.Transcript() {
		if strings.Contains(line, "register bad") {
			t.Fatalf("unauthenticated agent reached the lease machine: %q", line)
		}
	}
}

// TestAuthRequiresV2: v2 is the protocol floor, so a v1-only dialer is
// refused with a version error — by a coordinator holding a secret
// (which could not challenge it) and by an open one alike.
func TestAuthRequiresV2(t *testing.T) {
	for _, secret := range []string{"sesame", ""} {
		_, addr := startServer(t, ServerConfig{Secret: secret})
		conn, ft, payload := sendHello(t, addr, "old", 1, 1)
		expectError(t, ft, payload, errCodeVersion)
		conn.Close()
	}
}

// TestAgentStopsAfterRejection: an agent with the wrong secret gets
// ErrRejected out of Run instead of a reconnect loop.
func TestAgentStopsAfterRejection(t *testing.T) {
	_, addr := startServer(t, ServerConfig{Secret: "sesame"})
	a, err := NewAgent(AgentConfig{
		Coord:  addr,
		Name:   "a1",
		Secret: "wrong",
		Provider: func(string) (pathload.ProberFactory, error) {
			return func() (pathload.Prober, error) { return &stubProber{avail: 5e6}, nil }, nil
		},
		DialBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- a.Run() }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrRejected) {
			t.Fatalf("Run returned %v, want ErrRejected", err)
		}
	case <-time.After(10 * time.Second):
		a.Stop()
		t.Fatal("rejected agent kept retrying")
	}
}

// TestAuthenticatedAgentEndToEnd: with matching secrets the full agent
// loop works — register, lease, measure, push.
func TestAuthenticatedAgentEndToEnd(t *testing.T) {
	srv, addr := startServer(t, ServerConfig{
		Secret:   "sesame",
		Coord:    Config{Paths: []string{"p00"}, TTL: 2 * time.Second, Epoch: 50 * time.Millisecond},
		AutoTick: true,
	})
	a, err := NewAgent(AgentConfig{
		Coord:  addr,
		Name:   "a1",
		Secret: "sesame",
		Provider: func(string) (pathload.ProberFactory, error) {
			return func() (pathload.Prober, error) { return &stubProber{avail: 5e6}, nil }, nil
		},
		Heartbeat: 40 * time.Millisecond,
		PushEvery: 50 * time.Millisecond,
		Monitor: pathload.MonitorConfig{
			Interval: 5 * time.Millisecond,
			Config:   pathload.Config{PacketsPerStream: 8, StreamsPerFleet: 3, DisableInitProbe: true},
		},
	})
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	go a.Run()
	defer a.Stop()
	waitFor(t, "authenticated agent federating", func() bool {
		c, ok := srv.Federation().Contribution("a1", "p00")
		return ok && c.Total >= 1
	})
}

// TestRegisterRateLimit: with the clock frozen, a burst-1 bucket
// admits the first registration from a host and refuses the second
// with a rate error.
func TestRegisterRateLimit(t *testing.T) {
	_, addr := startServer(t, ServerConfig{
		RegisterRate: 0.001,
		RateBurst:    1,
		Now:          func() time.Duration { return 0 },
	})
	c1, ft, _ := sendHello(t, addr, "a1", VersionMin, Version)
	defer c1.Close()
	if ft != msgHelloAck {
		t.Fatalf("first register: got %v", ft)
	}
	c2, ft, payload := sendHello(t, addr, "a2", VersionMin, Version)
	defer c2.Close()
	expectError(t, ft, payload, errCodeRate)
}

// TestPushRateLimit: the push bucket throttles a session that floods
// contributions.
func TestPushRateLimit(t *testing.T) {
	_, addr := startServer(t, ServerConfig{
		PushRate:  0.001,
		RateBurst: 1,
		Now:       func() time.Duration { return 0 },
	})
	conn, ft, _ := sendHello(t, addr, "a1", VersionMin, Version)
	defer conn.Close()
	if ft != msgHelloAck {
		t.Fatalf("register: got %v", ft)
	}
	push := marshalPush(pushMsg{Seq: 1, Path: "p00", Total: 1})
	if err := writeFrame(conn, msgPush, push); err != nil {
		t.Fatalf("push 1: %v", err)
	}
	ft, _, err := readFrame(conn)
	if err != nil || ft != msgPushAck {
		t.Fatalf("push 1 reply: %v %v", ft, err)
	}
	if err := writeFrame(conn, msgPush, push); err != nil {
		t.Fatalf("push 2: %v", err)
	}
	ft, payload, err := readFrame(conn)
	if err != nil {
		t.Fatalf("push 2 reply: %v", err)
	}
	expectError(t, ft, payload, errCodeRate)
}

// TestRateLimiterRefill pins the token-bucket arithmetic on a scripted
// clock: a drained bucket refills at the configured rate and caps at
// the burst.
func TestRateLimiterRefill(t *testing.T) {
	l := newRateLimiter(2, 2) // 2 tokens/s, depth 2
	if !l.allow("h", 0) || !l.allow("h", 0) {
		t.Fatal("burst not honored")
	}
	if l.allow("h", 0) {
		t.Fatal("empty bucket allowed")
	}
	if l.allow("h", 400*time.Millisecond) {
		t.Fatal("allowed before a whole token refilled")
	}
	// 400ms at 2/s refilled 0.8; by 600ms it crossed 1.
	if !l.allow("h", 600*time.Millisecond) {
		t.Fatal("refilled token not granted")
	}
	// Independent hosts do not share buckets.
	if !l.allow("other", 0) {
		t.Fatal("fresh host should start with a full bucket")
	}
	if newRateLimiter(0, 5) != nil {
		t.Fatal("zero rate must disable the limiter")
	}
}
