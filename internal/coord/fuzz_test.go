package coord

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/tsstore"
)

// remarshal decodes a control payload with its type's unmarshal* and
// marshals the value back. Types without a payload decoder (bye) have
// no entry.
var remarshal = map[msgType]func([]byte) ([]byte, error){
	msgHello: func(b []byte) ([]byte, error) {
		v, err := unmarshalHello(b)
		return marshalHello(v), err
	},
	msgHelloAck: func(b []byte) ([]byte, error) {
		v, err := unmarshalHelloAck(b)
		return marshalHelloAck(v), err
	},
	msgHeartbeat: func(b []byte) ([]byte, error) {
		v, err := unmarshalHeartbeat(b)
		return marshalHeartbeat(v), err
	},
	msgAssign: func(b []byte) ([]byte, error) {
		v, err := unmarshalAssign(b)
		return marshalAssign(v), err
	},
	msgPush: func(b []byte) ([]byte, error) {
		v, err := unmarshalPush(b)
		if err != nil {
			return nil, err
		}
		// The coordinator rebuilds the contribution next; its digest
		// decoder must fail cleanly too.
		pushToContribution(v)
		return marshalPush(v), nil
	},
	msgPushAck: func(b []byte) ([]byte, error) {
		v, err := unmarshalPushAck(b)
		return marshalPushAck(v), err
	},
	msgChallenge: func(b []byte) ([]byte, error) {
		v, err := unmarshalChallenge(b)
		return marshalChallenge(v), err
	},
	msgAuth: func(b []byte) ([]byte, error) {
		v, err := unmarshalAuth(b)
		return marshalAuth(v), err
	},
	msgError: func(b []byte) ([]byte, error) {
		v, err := unmarshalError(b)
		return marshalError(v), err
	},
}

// FuzzReadFrame: arbitrary bytes through readFrame and then the
// frame type's decoder must never panic. A frame that parses must
// re-encode to the same bytes, and a payload that decodes must
// re-marshal to the same bytes: the SLCP encoding is canonical, so a
// decoder that accepts a payload its encoder cannot produce is a bug.
// The seed corpus is in testdata/fuzz/FuzzReadFrame.
func FuzzReadFrame(f *testing.F) {
	frame := func(t msgType, payload []byte) []byte {
		var b bytes.Buffer
		if err := writeFrame(&b, t, payload); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	digest := tsstore.NewDigest(4)
	digest.Add(5e6)
	blob, err := digest.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame(msgHello, marshalHello(helloMsg{Min: VersionMin, Max: Version, Name: "agent-0"})))
	f.Add(frame(msgHelloAck, marshalHelloAck(helloAckMsg{Version: Version, TTL: 10 * time.Second, Epoch: 2 * time.Second})))
	f.Add(frame(msgHeartbeat, marshalHeartbeat(heartbeatMsg{Seq: 9})))
	f.Add(frame(msgAssign, marshalAssign(assignMsg{Seq: 9, Budget: 4e6, Leases: []Lease{{Path: "p00"}, {Path: "p01", Group: 3}}})))
	f.Add(frame(msgPush, marshalPush(pushMsg{Seq: 2, Path: "p00", Total: 3, Errs: 1, Points: []tsstore.Point{
		{Round: 1, At: time.Second, Span: time.Second, Lo: 3e6, Hi: 5e6, Bits: 1e5},
		{Round: 2, Err: "transport lost"},
	}, DigestBinary: blob})))
	f.Add(frame(msgPushAck, marshalPushAck(pushAckMsg{Seq: 2, Applied: true})))
	f.Add(frame(msgChallenge, marshalChallenge(make([]byte, nonceLen))))
	f.Add(frame(msgAuth, marshalAuth(authMAC("secret", make([]byte, nonceLen), "agent-0"))))
	f.Add(frame(msgError, marshalError(errorMsg{Version: Version, Code: errCodeRate, Text: "slow down"})))
	f.Add(frame(msgBye, nil))
	oversize := frame(msgPush, nil)
	binary.BigEndian.PutUint32(oversize[5:], maxFrame+1)
	f.Add(oversize)
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var b bytes.Buffer
		if err := writeFrame(&b, typ, payload); err != nil {
			t.Fatalf("re-encoding a %v frame that just parsed: %v", typ, err)
		}
		if n := b.Len(); !bytes.Equal(b.Bytes(), data[:n]) {
			t.Fatalf("%v frame not idempotent:\n got %x\nwant %x", typ, b.Bytes(), data[:n])
		}
		re, ok := remarshal[typ]
		if !ok {
			return
		}
		again, err := re(payload)
		if err != nil {
			return
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("%v payload re-marshals differently:\n got %x\nwant %x", typ, again, payload)
		}
	})
}
