package netsim

// Accessors used by the snapshot wire codec (internal/gen/wire.go). The
// codec rebuilds a Network field-for-field in another process, which
// needs exactly the state BeginSnapshot/Finish carries across a clone:
// the virtual-clock basis. They are deliberately narrow — the event queue
// itself never crosses the wire (encode refuses a non-quiescent fabric,
// mirroring BeginSnapshot).

import "time"

// WireBasis returns the simulation basis a codec must carry: the virtual
// clock, the event sequence counter, and the fabric counters — the same
// trio BeginSnapshot copies onto a clone.
func (n *Network) WireBasis() (clock time.Duration, seq uint64, stats FabricStats) {
	return n.clock, n.seq, n.stats
}

// SetWireBasis restores the simulation basis on a freshly built Network.
func (n *Network) SetWireBasis(clock time.Duration, seq uint64, stats FabricStats) {
	n.clock = clock
	n.seq = seq
	n.stats = stats
}

// Quiescent reports whether the event queue is empty. Encoding a fabric
// with in-flight events is refused for the same reason BeginSnapshot
// refuses it: queued closures cannot be serialized.
func (n *Network) Quiescent() bool { return n.queue.len() == 0 }

// RegisteredIfaces returns the addresses registered for delivery, in
// arbitrary order; the codec sorts before writing. Iface identity on the
// wire is positional (the global interface walk), so only the addresses
// are needed to replay RegisterIface on decode.
func (n *Network) RegisteredIfaces() []*Iface {
	out := make([]*Iface, 0, len(n.ifaces))
	for _, ifc := range n.ifaces {
		out = append(out, ifc)
	}
	return out
}
