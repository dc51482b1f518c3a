package netsim

import (
	"wormhole/internal/netaddr"
	"wormhole/internal/packet"
)

// Host is an end system: it answers echo requests, returns port-unreachable
// for UDP probes aimed at closed ports, and hands every other packet
// addressed to it to its Handler (the prober's receive path). Hosts never
// forward.
type Host struct {
	name string
	If   *Iface

	// InitTTL seeds the IP TTL of packets the host originates (64, the
	// Linux default, matching the <64,64> signature row of Table 1).
	InitTTL uint8

	// Handler receives packets addressed to the host that it does not
	// answer itself. It may be nil.
	Handler func(net *Network, pkt *packet.Packet)
}

// NewHost creates a host with one interface bearing addr inside prefix.
func NewHost(name string, addr netaddr.Addr, prefix netaddr.Prefix) *Host {
	h := &Host{name: name, InitTTL: 64}
	h.If = &Iface{Owner: h, Name: "eth0", Addr: addr, Prefix: prefix}
	return h
}

// Name implements Node.
func (h *Host) Name() string { return h.name }

// Addr returns the host's interface address.
func (h *Host) Addr() netaddr.Addr { return h.If.Addr }

// Receive implements Node.
func (h *Host) Receive(net *Network, in *Iface, pkt *packet.Packet) {
	if pkt.IP.Dst != h.If.Addr {
		return // hosts do not forward
	}
	pool := net.PacketPool()
	switch {
	case pkt.IP.Protocol == packet.ProtoICMP && pkt.ICMP != nil && pkt.ICMP.Type == packet.ICMPEchoRequest:
		reply := pool.Packet()
		reply.IP = packet.IPv4{
			TTL:      h.InitTTL,
			Protocol: packet.ProtoICMP,
			Src:      h.If.Addr,
			Dst:      pkt.IP.Src,
		}
		icmp := pool.ICMP()
		icmp.Type, icmp.ID, icmp.Seq = packet.ICMPEchoReply, pkt.ICMP.ID, pkt.ICMP.Seq
		reply.ICMP = icmp
		reply.PayloadLen = pkt.PayloadLen
		net.Transmit(h.If, reply)
	case pkt.IP.Protocol == packet.ProtoUDP && pkt.UDP != nil:
		reply := pool.Packet()
		reply.IP = packet.IPv4{
			TTL:      h.InitTTL,
			Protocol: packet.ProtoICMP,
			Src:      h.If.Addr,
			Dst:      pkt.IP.Src,
		}
		icmp := pool.ICMP()
		icmp.Type, icmp.Code = packet.ICMPDestUnreach, packet.CodePortUnreach
		q := pool.Quote()
		q.IP, q.ID, q.Seq = pkt.IP, pkt.UDP.SrcPort, pkt.UDP.DstPort
		icmp.Quote = q
		reply.ICMP = icmp
		net.Transmit(h.If, reply)
	default:
		if h.Handler != nil {
			// The packet is recycled when Receive returns; a handler that
			// retains it (the prober stores matched replies) must call
			// net.AdoptPacket first.
			h.Handler(net, pkt)
		}
	}
}
