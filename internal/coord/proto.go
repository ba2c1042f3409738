// Package coord is the fleet control plane: a coordinator
// (cmd/pathload-coord) that owns the path table and an agent runtime
// (pathload -agent) that measures whatever it is leased.
//
// Agents register over a small versioned control protocol — a sibling
// of internal/wire's framing and range negotiation, with its own magic
// and a frame limit sized for digest pushes — then heartbeat to renew
// their lease TTLs, and periodically push tsstore contributions
// (retained points + all-time digests) that the coordinator federates
// into one global store behind the existing /metrics /series /mrtg
// scrape surface. The lease state machine itself (State) is a pure,
// clock-explicit core, which is what makes the multi-agent harness
// tests deterministic down to the byte.
package coord

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/tsstore"
)

// protoMagic identifies coordination control streams ("SLCP" — SLoPS
// control plane; distinct from wire.Magic so a prober dialed at a
// coordinator, or vice versa, fails fast instead of misparsing).
const protoMagic uint32 = 0x534c4350

// Version is the newest control-plane protocol version this build
// speaks; VersionMin the oldest. Version 1 defined hello/hello-ack
// with wire-style range negotiation, heartbeat/assign leasing, and
// contribution push/ack. Version 2 adds the authentication handshake
// (challenge/auth) and the versioned error frame, and is the floor: a
// v1-only dialer is refused with errCodeVersion whether or not a
// secret is configured.
const (
	Version    uint16 = 2
	VersionMin uint16 = 2
)

// ErrVersionMismatch reports peers whose version ranges do not
// intersect.
var ErrVersionMismatch = errors.New("coord: no protocol version in common")

// ErrRejected reports that the coordinator refused this agent with a
// versioned error frame (bad credentials, rate limit, version gate).
// Unlike a broken connection it is not retryable: the agent's Run loop
// stops instead of hammering the control port.
var ErrRejected = errors.New("coord: rejected by coordinator")

// Negotiate picks the session version: the highest version inside both
// the peer's advertised range and this build's — the wire.Negotiate
// rule applied to the control plane.
func Negotiate(peerMin, peerMax uint16) (uint16, error) {
	chosen := Version
	if peerMax < chosen {
		chosen = peerMax
	}
	if chosen < VersionMin || chosen < peerMin {
		return 0, fmt.Errorf("%w: peer speaks [%d, %d], this build [%d, %d]",
			ErrVersionMismatch, peerMin, peerMax, VersionMin, Version)
	}
	return chosen, nil
}

// Control message types.
type msgType uint8

const (
	msgHello     msgType = iota + 1 // agent → coord: version range + name
	msgHelloAck                     // coord → agent: chosen version + timing
	msgHeartbeat                    // agent → coord: liveness, lease renewal
	msgAssign                       // coord → agent: current lease set (heartbeat answer)
	msgPush                         // agent → coord: one path's Contribution
	msgPushAck                      // coord → agent: applied / stale
	msgBye                          // either: clean close (coord: please re-register)

	// Version 2 additions.
	msgChallenge // coord → agent: auth nonce (only when a secret is set)
	msgAuth      // agent → coord: HMAC over nonce‖name
	msgError     // coord → agent: versioned rejection, then close
)

// String names the message type.
func (t msgType) String() string {
	switch t {
	case msgHello:
		return "hello"
	case msgHelloAck:
		return "hello-ack"
	case msgHeartbeat:
		return "heartbeat"
	case msgAssign:
		return "assign"
	case msgPush:
		return "push"
	case msgPushAck:
		return "push-ack"
	case msgBye:
		return "bye"
	case msgChallenge:
		return "challenge"
	case msgAuth:
		return "auth"
	case msgError:
		return "error"
	default:
		return fmt.Sprintf("msgType(%d)", uint8(t))
	}
}

// maxFrame bounds a control frame payload. Unlike wire's 1 KiB, a push
// carries a whole retained window (up to DefaultCapacity points with
// error strings) plus a digest, so the limit is 1 MiB — still small
// enough to cap what a garbage length prefix can make us allocate.
const maxFrame = 1 << 20

// writeFrame writes one length-prefixed control frame:
// [magic u32][type u8][len u32][payload].
func writeFrame(w io.Writer, t msgType, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("coord: control payload %d exceeds limit %d", len(payload), maxFrame)
	}
	hdr := make([]byte, 9)
	binary.BigEndian.PutUint32(hdr[0:], protoMagic)
	hdr[4] = uint8(t)
	binary.BigEndian.PutUint32(hdr[5:], uint32(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("coord: writing control header: %w", err)
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return fmt.Errorf("coord: writing control payload: %w", err)
		}
	}
	return nil
}

// readFrame reads one control frame.
func readFrame(r io.Reader) (msgType, []byte, error) {
	hdr := make([]byte, 9)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	if binary.BigEndian.Uint32(hdr[0:]) != protoMagic {
		return 0, nil, errors.New("coord: bad control magic")
	}
	t := msgType(hdr[4])
	n := binary.BigEndian.Uint32(hdr[5:])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("coord: control payload %d exceeds limit %d", n, maxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("coord: reading control payload: %w", err)
	}
	return t, payload, nil
}

// --- payload encoding -------------------------------------------------
//
// Big-endian throughout; strings are u16-length-prefixed UTF-8. A
// decoder object carries the error so message decoders read linearly
// and fail atomically.

type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("coord: truncated %s", what)
	}
}

func (d *decoder) u8(what string) uint8 {
	if d.err != nil || len(d.buf) < 1 {
		d.fail(what)
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

func (d *decoder) u16(what string) uint16 {
	if d.err != nil || len(d.buf) < 2 {
		d.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint16(d.buf)
	d.buf = d.buf[2:]
	return v
}

func (d *decoder) u32(what string) uint32 {
	if d.err != nil || len(d.buf) < 4 {
		d.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v
}

func (d *decoder) u64(what string) uint64 {
	if d.err != nil || len(d.buf) < 8 {
		d.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

func (d *decoder) f64(what string) float64 { return math.Float64frombits(d.u64(what)) }

func (d *decoder) dur(what string) time.Duration { return time.Duration(d.u64(what)) }

func (d *decoder) str(what string) string {
	n := int(d.u16(what))
	if d.err != nil || len(d.buf) < n {
		d.fail(what)
		return ""
	}
	v := string(d.buf[:n])
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) bytes(what string) []byte {
	n := int(d.u32(what))
	if d.err != nil || len(d.buf) < n {
		d.fail(what)
		return nil
	}
	v := d.buf[:n]
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) done(what string) error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("coord: %s payload has %d trailing bytes", what, len(d.buf))
	}
	return nil
}

func appendStr(buf []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// helloMsg opens a control session: the agent's version range and name.
type helloMsg struct {
	Min, Max uint16
	Name     string
}

func marshalHello(h helloMsg) []byte {
	buf := binary.BigEndian.AppendUint16(nil, h.Min)
	buf = binary.BigEndian.AppendUint16(buf, h.Max)
	return appendStr(buf, h.Name)
}

func unmarshalHello(b []byte) (helloMsg, error) {
	d := &decoder{buf: b}
	h := helloMsg{Min: d.u16("hello"), Max: d.u16("hello"), Name: d.str("hello")}
	if h.Min > h.Max {
		return helloMsg{}, fmt.Errorf("coord: inverted hello version range [%d, %d]", h.Min, h.Max)
	}
	return h, d.done("hello")
}

// helloAckMsg answers a hello: the chosen version plus the
// coordinator's timing contract — the agent liveness TTL and the
// rebalance epoch — so agents size their heartbeat cadence from the
// authority that enforces it.
type helloAckMsg struct {
	Version uint16
	TTL     time.Duration
	Epoch   time.Duration
}

func marshalHelloAck(a helloAckMsg) []byte {
	buf := binary.BigEndian.AppendUint16(nil, a.Version)
	buf = binary.BigEndian.AppendUint64(buf, uint64(a.TTL))
	return binary.BigEndian.AppendUint64(buf, uint64(a.Epoch))
}

func unmarshalHelloAck(b []byte) (helloAckMsg, error) {
	d := &decoder{buf: b}
	a := helloAckMsg{Version: d.u16("hello-ack"), TTL: d.dur("hello-ack"), Epoch: d.dur("hello-ack")}
	return a, d.done("hello-ack")
}

// heartbeatMsg renews the agent's TTL; Seq is echoed in the assign
// answer so an agent can match replies after a resync.
type heartbeatMsg struct {
	Seq uint64
}

func marshalHeartbeat(h heartbeatMsg) []byte {
	return binary.BigEndian.AppendUint64(nil, h.Seq)
}

func unmarshalHeartbeat(b []byte) (heartbeatMsg, error) {
	d := &decoder{buf: b}
	h := heartbeatMsg{Seq: d.u64("heartbeat")}
	return h, d.done("heartbeat")
}

// assignMsg is the heartbeat answer: the agent's complete current
// lease set (idempotent — the agent reconciles against it, so a lost
// assign is healed by the next one), its aggregate probe budget, and
// each lease's conflict group so the agent can stagger paths that
// share a tight link.
type assignMsg struct {
	Seq    uint64
	Budget float64 // bits/s across the agent's leases; 0 = uncapped
	Leases []Lease
}

func marshalAssign(a assignMsg) []byte {
	buf := binary.BigEndian.AppendUint64(nil, a.Seq)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(a.Budget))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(a.Leases)))
	for _, l := range a.Leases {
		buf = binary.BigEndian.AppendUint32(buf, uint32(l.Group))
		buf = appendStr(buf, l.Path)
	}
	return buf
}

func unmarshalAssign(b []byte) (assignMsg, error) {
	d := &decoder{buf: b}
	a := assignMsg{Seq: d.u64("assign"), Budget: d.f64("assign")}
	n := int(d.u32("assign"))
	if d.err == nil && n > maxFrame/8 {
		return assignMsg{}, fmt.Errorf("coord: assign claims %d leases", n)
	}
	for i := 0; i < n && d.err == nil; i++ {
		l := Lease{Group: int(d.u32("assign"))}
		l.Path = d.str("assign")
		a.Leases = append(a.Leases, l)
	}
	return a, d.done("assign")
}

// pushMsg carries one path's tsstore Contribution. The agent name is
// implied by the session. Point wall clocks are deliberately not on
// the wire: the deterministic export surface never renders them, and
// omitting them keeps federated snapshots reproducible.
type pushMsg struct {
	Seq          uint64
	Path         string
	Total, Errs  uint64
	Points       []tsstore.Point
	DigestBinary []byte // Digest.MarshalBinary, empty when no digest
}

// maxErrLen caps a pushed point's error text so a pathological error
// string cannot blow the frame limit.
const maxErrLen = 256

func marshalPush(p pushMsg) []byte {
	buf := binary.BigEndian.AppendUint64(nil, p.Seq)
	buf = appendStr(buf, p.Path)
	buf = binary.BigEndian.AppendUint64(buf, p.Total)
	buf = binary.BigEndian.AppendUint64(buf, p.Errs)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p.Points)))
	for _, pt := range p.Points {
		buf = binary.BigEndian.AppendUint64(buf, uint64(pt.Round))
		buf = binary.BigEndian.AppendUint64(buf, uint64(pt.At))
		buf = binary.BigEndian.AppendUint64(buf, uint64(pt.Span))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(pt.Lo))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(pt.Hi))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(pt.Bits))
		e := pt.Err
		if len(e) > maxErrLen {
			e = e[:maxErrLen]
		}
		buf = appendStr(buf, e)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p.DigestBinary)))
	return append(buf, p.DigestBinary...)
}

func unmarshalPush(b []byte) (pushMsg, error) {
	d := &decoder{buf: b}
	p := pushMsg{Seq: d.u64("push")}
	p.Path = d.str("push")
	p.Total = d.u64("push")
	p.Errs = d.u64("push")
	n := int(d.u32("push"))
	if d.err == nil && n > maxFrame/48 {
		return pushMsg{}, fmt.Errorf("coord: push claims %d points", n)
	}
	for i := 0; i < n && d.err == nil; i++ {
		pt := tsstore.Point{
			Round: int(int64(d.u64("push"))),
			At:    d.dur("push"),
			Span:  d.dur("push"),
			Lo:    d.f64("push"),
			Hi:    d.f64("push"),
			Bits:  d.f64("push"),
			Err:   d.str("push"),
		}
		p.Points = append(p.Points, pt)
	}
	p.DigestBinary = append([]byte(nil), d.bytes("push")...)
	return p, d.done("push")
}

// pushAckMsg confirms a push; Applied is false when the federation
// already held a contribution at least as new (re-delivery).
type pushAckMsg struct {
	Seq     uint64
	Applied bool
}

func marshalPushAck(a pushAckMsg) []byte {
	buf := binary.BigEndian.AppendUint64(nil, a.Seq)
	if a.Applied {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func unmarshalPushAck(b []byte) (pushAckMsg, error) {
	d := &decoder{buf: b}
	a := pushAckMsg{Seq: d.u64("push-ack"), Applied: d.u8("push-ack") != 0}
	return a, d.done("push-ack")
}

// nonceLen is the challenge nonce size. 32 random bytes make nonce
// reuse (and therefore MAC replay) negligible over any deployment
// lifetime.
const nonceLen = 32

// challengeMsg carries the coordinator's auth nonce.
func marshalChallenge(nonce []byte) []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(len(nonce)))
	return append(buf, nonce...)
}

func unmarshalChallenge(b []byte) ([]byte, error) {
	d := &decoder{buf: b}
	nonce := append([]byte(nil), d.bytes("challenge")...)
	if err := d.done("challenge"); err != nil {
		return nil, err
	}
	if len(nonce) != nonceLen {
		return nil, fmt.Errorf("coord: challenge nonce is %d bytes, want %d", len(nonce), nonceLen)
	}
	return nonce, nil
}

// authMsg answers a challenge with the MAC.
func marshalAuth(mac []byte) []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(len(mac)))
	return append(buf, mac...)
}

func unmarshalAuth(b []byte) ([]byte, error) {
	d := &decoder{buf: b}
	mac := append([]byte(nil), d.bytes("auth")...)
	return mac, d.done("auth")
}

// authMAC is the proof of secret knowledge: HMAC-SHA256 keyed by the
// shared secret over nonce‖name. Binding the agent name into the MAC
// stops a snooped handshake from being replayed under another
// identity (the nonce already stops replaying it at all).
func authMAC(secret string, nonce []byte, name string) []byte {
	m := hmac.New(sha256.New, []byte(secret))
	m.Write(nonce)
	m.Write([]byte(name))
	return m.Sum(nil)
}

// Rejection codes carried by msgError.
const (
	errCodeAuth    uint16 = 1 // bad or missing credentials
	errCodeRate    uint16 = 2 // per-remote rate limit tripped
	errCodeVersion uint16 = 3 // negotiated version cannot satisfy policy
)

// errorMsg is the versioned rejection frame: the speaker's protocol
// version (so even a refused dialer learns what the coordinator
// speaks), a machine-readable code, and human-readable text.
type errorMsg struct {
	Version uint16
	Code    uint16
	Text    string
}

func marshalError(e errorMsg) []byte {
	buf := binary.BigEndian.AppendUint16(nil, e.Version)
	buf = binary.BigEndian.AppendUint16(buf, e.Code)
	return appendStr(buf, e.Text)
}

func unmarshalError(b []byte) (errorMsg, error) {
	d := &decoder{buf: b}
	e := errorMsg{Version: d.u16("error"), Code: d.u16("error"), Text: d.str("error")}
	return e, d.done("error")
}

// contributionToPush converts a tsstore Contribution into its wire
// form; digest marshaling cannot fail today but the signature keeps
// room for future digest versions.
func contributionToPush(path string, c tsstore.Contribution) (pushMsg, error) {
	p := pushMsg{Seq: c.Seq, Path: path, Total: c.Total, Errs: c.Errors, Points: c.Points}
	if c.Digest != nil {
		blob, err := c.Digest.MarshalBinary()
		if err != nil {
			return pushMsg{}, err
		}
		p.DigestBinary = blob
	}
	return p, nil
}

// pushToContribution rebuilds the Contribution a push carried.
func pushToContribution(p pushMsg) (tsstore.Contribution, error) {
	c := tsstore.Contribution{Seq: p.Seq, Total: p.Total, Errors: p.Errs, Points: p.Points}
	if len(p.DigestBinary) > 0 {
		d, err := tsstore.UnmarshalDigest(p.DigestBinary)
		if err != nil {
			return tsstore.Contribution{}, err
		}
		c.Digest = d
	}
	return c, nil
}
