package netsim

// Accessors the replica constructors in internal/gen use: Snapshot
// copies a fabric in process and the wire codec (internal/gen/wire.go)
// rebuilds one in another process, and both carry the same state across
// — the virtual-clock basis — onto a fresh Network. They are
// deliberately narrow: the event queue itself is never copied (both
// refuse a non-quiescent fabric).

import "time"

// WireBasis returns the simulation basis a replica carries: the virtual
// clock, the event sequence counter, and the fabric counters.
func (n *Network) WireBasis() (clock time.Duration, seq uint64, stats FabricStats) {
	return n.clock, n.seq, n.stats
}

// SetWireBasis restores the simulation basis on a freshly built Network.
func (n *Network) SetWireBasis(clock time.Duration, seq uint64, stats FabricStats) {
	n.clock = clock
	n.seq = seq
	n.stats = stats
}

// Quiescent reports whether the event queue is empty. Copying or
// encoding a fabric with in-flight events is refused: queued packets are
// transient drain state, not part of the world.
func (n *Network) Quiescent() bool { return n.queue.len() == 0 }
