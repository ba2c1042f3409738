package netsim

// A Sink receives packets at the end of their route. The at argument is
// the arrival time of the packet's last bit at the receiving host.
type Sink func(pkt *Packet, at Time)

// A Packet is a unit of transmission. Size is the wire size in bytes,
// including all link- and transport-layer headers; the simulator charges
// transmission time for the full wire size. Payload carries
// application-specific data (probe sequence numbers, TCP segment
// descriptors, ...) and is never inspected by the simulator.
type Packet struct {
	ID      uint64
	Size    int
	SentAt  Time // stamped by Inject
	Payload any

	route  []*Link
	hop    int
	sink   Sink
	pooled bool // allocated by NewPacket; recyclable via FreePacket
}

// NewPacket returns a packet from the simulator's freelist (or a fresh
// one), for allocation-free per-packet hot paths. Ownership rules: a
// pooled packet injected with a nil sink is recycled automatically when
// it leaves the network (delivery or drop); with a non-nil sink,
// ownership passes to the sink, which may return it with FreePacket
// once it no longer holds any reference (including Payload).
func (s *Simulator) NewPacket() *Packet {
	if n := len(s.pktFree); n > 0 {
		pkt := s.pktFree[n-1]
		s.pktFree[n-1] = nil
		s.pktFree = s.pktFree[:n-1]
		return pkt
	}
	return &Packet{pooled: true}
}

// FreePacket returns a pooled packet to the freelist. Packets not
// allocated by NewPacket are ignored (the caller owns them outright),
// so generic sinks can call it unconditionally.
func (s *Simulator) FreePacket(pkt *Packet) {
	if pkt == nil || !pkt.pooled {
		return
	}
	pkt.ID, pkt.Size, pkt.SentAt, pkt.Payload = 0, 0, 0, nil
	pkt.route, pkt.hop, pkt.sink = nil, 0, nil
	s.pktFree = append(s.pktFree, pkt)
}

// Inject introduces a packet into the network at the first link of
// route at the current simulated time. When the packet's last bit
// leaves the final link, sink is invoked; if the packet is dropped at a
// full buffer, sink is never invoked (drops are visible through link
// counters and the link's OnDrop observer).
//
// An empty route delivers the packet to sink immediately.
func (s *Simulator) Inject(pkt *Packet, route []*Link, sink Sink) {
	pkt.SentAt = s.now
	pkt.route = route
	pkt.hop = 0
	pkt.sink = sink
	if len(route) == 0 {
		if sink != nil {
			sink(pkt, s.now)
		} else {
			s.FreePacket(pkt)
		}
		return
	}
	route[0].arrive(pkt, s.now)
}

// departing reports whether the packet leaves the network at its
// current hop: it is on the last link of its route and nobody receives
// it, so once transmitted it only returns to the freelist.
func (pkt *Packet) departing() bool {
	return pkt.sink == nil && pkt.hop == len(pkt.route)-1
}

// forward moves the packet to its next hop, or delivers it to the sink
// when the route is exhausted.
func (pkt *Packet) forward(sim *Simulator, at Time) {
	pkt.hop++
	if pkt.hop < len(pkt.route) {
		pkt.route[pkt.hop].arrive(pkt, at)
		return
	}
	if pkt.sink != nil {
		pkt.sink(pkt, at)
	} else {
		sim.FreePacket(pkt)
	}
}
