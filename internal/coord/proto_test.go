package coord

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/tsstore"
)

// TestProtoRoundTrips: every control message must survive
// marshal → frame → unframe → unmarshal unchanged.
func TestProtoRoundTrips(t *testing.T) {
	hello := helloMsg{Min: 1, Max: 3, Name: "agent-α"}
	ack := helloAckMsg{Version: 2, TTL: 10 * time.Second, Epoch: 2 * time.Second}
	hb := heartbeatMsg{Seq: 42}
	asg := assignMsg{
		Seq:    7,
		Budget: 12e6,
		Leases: []Lease{{Path: "p00", Group: 0}, {Path: "p01", Group: 0}, {Path: "p04", Group: 2}},
	}
	digest := tsstore.NewDigest(8)
	for _, v := range []float64{1e6, 2e6, 4e6, 4e6, 8e6} {
		digest.Add(v)
	}
	push := pushMsg{
		Seq:   3,
		Path:  "p00",
		Total: 9,
		Errs:  2,
		Points: []tsstore.Point{
			{Round: 0, At: 0, Span: time.Second, Lo: 3e6, Hi: 5e6, Bits: 1e5},
			{Round: 1, At: time.Second, Span: 2 * time.Second, Err: "transport lost"},
		},
	}
	blob, err := digest.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	push.DigestBinary = blob
	pushAck := pushAckMsg{Seq: 3, Applied: true}

	var buf bytes.Buffer
	frames := []struct {
		t       msgType
		payload []byte
	}{
		{msgHello, marshalHello(hello)},
		{msgHelloAck, marshalHelloAck(ack)},
		{msgHeartbeat, marshalHeartbeat(hb)},
		{msgAssign, marshalAssign(asg)},
		{msgPush, marshalPush(push)},
		{msgPushAck, marshalPushAck(pushAck)},
		{msgBye, nil},
	}
	for _, f := range frames {
		if err := writeFrame(&buf, f.t, f.payload); err != nil {
			t.Fatalf("writeFrame(%v): %v", f.t, err)
		}
	}

	readOne := func(want msgType) []byte {
		t.Helper()
		typ, payload, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("readFrame: %v", err)
		}
		if typ != want {
			t.Fatalf("readFrame type = %v, want %v", typ, want)
		}
		return payload
	}

	if got, err := unmarshalHello(readOne(msgHello)); err != nil || got != hello {
		t.Fatalf("hello round-trip = %+v, %v; want %+v", got, err, hello)
	}
	if got, err := unmarshalHelloAck(readOne(msgHelloAck)); err != nil || got != ack {
		t.Fatalf("hello-ack round-trip = %+v, %v; want %+v", got, err, ack)
	}
	if got, err := unmarshalHeartbeat(readOne(msgHeartbeat)); err != nil || got != hb {
		t.Fatalf("heartbeat round-trip = %+v, %v; want %+v", got, err, hb)
	}
	if got, err := unmarshalAssign(readOne(msgAssign)); err != nil || !reflect.DeepEqual(got, asg) {
		t.Fatalf("assign round-trip = %+v, %v; want %+v", got, err, asg)
	}
	gotPush, err := unmarshalPush(readOne(msgPush))
	if err != nil || !reflect.DeepEqual(gotPush, push) {
		t.Fatalf("push round-trip = %+v, %v; want %+v", gotPush, err, push)
	}
	c, err := pushToContribution(gotPush)
	if err != nil {
		t.Fatalf("pushToContribution: %v", err)
	}
	if c.Digest == nil || c.Digest.Count() != digest.Count() || c.Digest.Quantile(0.5) != digest.Quantile(0.5) {
		t.Fatalf("push digest did not survive: %+v", c.Digest)
	}
	if got, err := unmarshalPushAck(readOne(msgPushAck)); err != nil || got != pushAck {
		t.Fatalf("push-ack round-trip = %+v, %v; want %+v", got, err, pushAck)
	}
	readOne(msgBye)
}

// TestProtoRejectsGarbage: structurally broken frames and payloads must
// error, never panic or misparse.
func TestProtoRejectsGarbage(t *testing.T) {
	// Wrong magic.
	if _, _, err := readFrame(bytes.NewReader([]byte{0xde, 0xad, 0xbe, 0xef, 1, 0, 0, 0, 0})); err == nil {
		t.Fatalf("bad magic accepted")
	}
	// Oversized length prefix.
	over := []byte{0x53, 0x4c, 0x43, 0x50, 1, 0xff, 0xff, 0xff, 0xff}
	if _, _, err := readFrame(bytes.NewReader(over)); err == nil {
		t.Fatalf("oversized frame accepted")
	}
	// Truncated payloads for every unmarshal.
	if _, err := unmarshalHello([]byte{0, 1}); err == nil {
		t.Fatalf("truncated hello accepted")
	}
	if _, err := unmarshalHello(marshalHello(helloMsg{Min: 5, Max: 1})); err == nil {
		t.Fatalf("inverted hello range accepted")
	}
	if _, err := unmarshalAssign([]byte{0, 0, 0}); err == nil {
		t.Fatalf("truncated assign accepted")
	}
	if _, err := unmarshalPush([]byte{1, 2, 3}); err == nil {
		t.Fatalf("truncated push accepted")
	}
	// Trailing junk must be detected too.
	withJunk := append(marshalHeartbeat(heartbeatMsg{Seq: 1}), 0xff)
	if _, err := unmarshalHeartbeat(withJunk); err == nil {
		t.Fatalf("heartbeat with trailing bytes accepted")
	}
	// A push whose digest blob is corrupt must fail conversion, not
	// poison the federation.
	p := pushMsg{Seq: 1, Path: "p", DigestBinary: []byte{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 9}}
	if _, err := pushToContribution(p); err == nil {
		t.Fatalf("corrupt digest blob accepted")
	}
}

// TestNegotiate mirrors the wire package's rule on the control plane.
func TestNegotiate(t *testing.T) {
	cases := []struct {
		min, max uint16
		want     uint16
		ok       bool
	}{
		{1, 1, 0, false}, // v1-only peer: below the floor
		{1, 9, 2, true},  // newest common is our Version
		{2, 9, 2, true},
		{3, 9, 0, false},
		{0, 0, 0, false},
	}
	for _, c := range cases {
		got, err := Negotiate(c.min, c.max)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("Negotiate(%d, %d) = %d, %v; want %d, ok=%v", c.min, c.max, got, err, c.want, c.ok)
		}
	}
}
