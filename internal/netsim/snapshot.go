package netsim

import (
	"errors"
	"fmt"

	"wormhole/internal/netaddr"
)

// Cloner builds a structural replica of an idle Network. The generator
// layer drives it: it snapshots each node (routers and hosts know how to
// deep-copy themselves), registering old→new node and interface mappings
// here, and Finish replicates the links and the fabric-wide address index
// onto the new Network.
//
// Snapshot invariants (also documented in DESIGN.md):
//
//   - The source fabric must be idle: no queued events. Snapshotting
//     mid-drain has no sensible meaning and is refused.
//   - The replica gets a fresh packet pool; free lists are warm-up state,
//     not semantics.
type Cloner struct {
	src, dst *Network
	nodes    map[Node]Node
	ifaces   map[*Iface]*Iface
}

// BeginSnapshot starts a structural copy of the network, returning a
// Cloner whose destination is an empty fabric with the same clock,
// sequence counter and fabric counters. It fails if events are still
// queued.
func (n *Network) BeginSnapshot() (*Cloner, error) {
	if n.queue.len() > 0 {
		return nil, errors.New("netsim: cannot snapshot a fabric with queued events")
	}
	dst := New()
	dst.clock = n.clock
	dst.seq = n.seq
	dst.stats = n.stats
	// Pre-size everything whose final cardinality the source already
	// knows: node and interface tables, and one arena block covering the
	// replica's whole link table. Steady-state inserts below then never
	// touch the allocator, which is what keeps Snapshot() at (far) under
	// one allocation per router.
	dst.nodes = make([]Node, 0, len(n.nodes))
	dst.nodeIdx = make(map[Node]int32, len(n.nodes))
	dst.ifaces = make(map[netaddr.Addr]*Iface, len(n.ifaces))
	dst.ReserveLinks(len(n.links))
	dst.links = make([]*Link, 0, len(n.links))
	return &Cloner{
		src:    n,
		dst:    dst,
		nodes:  make(map[Node]Node, len(n.nodes)),
		ifaces: make(map[*Iface]*Iface, len(n.ifaces)),
	}, nil
}

// Net returns the replica under construction.
func (c *Cloner) Net() *Network { return c.dst }

// PutNode records the replica of a source node and attaches it to the
// destination fabric. Call order defines the replica's node order, so
// callers iterate the source's Nodes() slice.
func (c *Cloner) PutNode(src, dst Node) {
	c.nodes[src] = dst
	c.dst.AddNode(dst)
}

// NodeOf returns the replica of a source node, or nil if not yet snapshot.
func (c *Cloner) NodeOf(src Node) Node { return c.nodes[src] }

// MapIface records the replica of a source interface. Node snapshot code
// calls it for every interface it creates, loopbacks included.
func (c *Cloner) MapIface(src, dst *Iface) { c.ifaces[src] = dst }

// Finish replicates links (delay and Up) and the fabric-wide address
// index. Every source interface must have been mapped by then.
func (c *Cloner) Finish() error {
	for _, l := range c.src.links {
		a, b := c.ifaces[l.a], c.ifaces[l.b]
		if a == nil || b == nil {
			return fmt.Errorf("netsim: link %s—%s has unmapped endpoint", l.a, l.b)
		}
		nl := c.dst.Connect(a, b, l.Delay)
		nl.Up = l.Up
	}
	for addr, i := range c.src.ifaces {
		ni := c.ifaces[i]
		if ni == nil {
			return fmt.Errorf("netsim: registered interface %s not mapped", i)
		}
		c.dst.ifaces[addr] = ni
	}
	return nil
}

// Snapshot deep-copies a host onto the replica fabric. The packet handler
// is deliberately not copied: it closes over source-side state (the
// prober), so the replica's owner installs a fresh one.
func (h *Host) Snapshot(c *Cloner) *Host {
	nh := &Host{name: h.name, InitTTL: h.InitTTL}
	nh.If = &Iface{Owner: nh, Name: h.If.Name, Addr: h.If.Addr, Prefix: h.If.Prefix}
	c.MapIface(h.If, nh.If)
	c.PutNode(h, nh)
	return nh
}
