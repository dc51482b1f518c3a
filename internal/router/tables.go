package router

import (
	"wormhole/internal/netaddr"
	"wormhole/internal/netsim"
	"wormhole/internal/packet"
)

// Origin records how a FIB route was learned; it determines the FEC used
// for label imposition (Sec. 3.2: external BGP traffic is switched toward
// the BGP next hop, internal traffic toward the destination prefix itself).
type Origin uint8

const (
	OriginConnected Origin = iota
	OriginIGP
	OriginBGP
)

func (o Origin) String() string {
	switch o {
	case OriginConnected:
		return "connected"
	case OriginIGP:
		return "igp"
	case OriginBGP:
		return "bgp"
	default:
		return "unknown"
	}
}

// NextHop is one forwarding alternative of a route.
type NextHop struct {
	Out *netsim.Iface
	// Gateway is the next router's interface address; zero for connected
	// routes (point-to-point delivery straight out of Out).
	Gateway netaddr.Addr
}

// Route is a FIB entry. Multiple next hops model ECMP; the per-flow hash
// picks one, so Paris traceroute (constant flow identifier) sees a stable
// path.
type Route struct {
	Origin   Origin
	NextHops []NextHop
	// BGPNextHop is the iBGP next hop (the egress LER loopback) for
	// OriginBGP routes; label imposition resolves the FEC through it.
	BGPNextHop netaddr.Addr
}

// Special out-label sentinels in a LabelHop. Real label values start at 16,
// so the reserved range below 16 is free for signaling.
const (
	// OutLabelImplicitNull means "do not push / pop before forwarding":
	// the downstream router advertised implicit-null (it is the egress and
	// PHP applies).
	OutLabelImplicitNull = packet.LabelImplicitNull
	// OutLabelExplicitNull pushes/swaps to label 0: the downstream router
	// is a UHP egress.
	OutLabelExplicitNull = packet.LabelExplicitNull
)

// LabelHop is one labeled forwarding alternative.
type LabelHop struct {
	Out   *netsim.Iface
	Label uint32 // outgoing label, or one of the OutLabel sentinels
}

// Binding is the imposition entry for a FEC at an ingress/transit router:
// push (or not, for implicit null) and forward.
type Binding struct {
	FEC      netaddr.Prefix
	NextHops []LabelHop
}

// LFIBEntry maps an incoming label to its operation. The operation is
// encoded by the out-label of the chosen hop: a real label means swap,
// OutLabelImplicitNull means pop (PHP: forward the exposed payload to the
// next hop without an IP lookup), OutLabelExplicitNull means swap-to-0.
// PopLocal marks the egress's own entry for explicit-null (label 0): pop
// and process the packet locally (UHP disposition).
type LFIBEntry struct {
	InLabel  uint32
	NextHops []LabelHop
	PopLocal bool
}

// ecmpNextHop selects the ECMP member for a flow by packet.FlowHash, the
// hash over the fields Paris traceroute keeps constant. A single-hop route
// never branches and skips the hash.
func ecmpNextHop(hops []NextHop, pkt *packet.Packet) NextHop {
	if len(hops) == 1 {
		return hops[0]
	}
	return hops[packet.FlowHash(pkt)%uint32(len(hops))]
}

// ecmpLabelHop is ecmpNextHop over an LFIB entry's or binding's hops.
func ecmpLabelHop(hops []LabelHop, pkt *packet.Packet) LabelHop {
	if len(hops) == 1 {
		return hops[0]
	}
	return hops[packet.FlowHash(pkt)%uint32(len(hops))]
}
