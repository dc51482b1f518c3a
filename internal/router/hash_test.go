package router

import (
	"testing"

	"wormhole/internal/netaddr"
	"wormhole/internal/packet"
)

func TestFlowHashVariesWithID(t *testing.T) {
	hops := []NextHop{
		{Gateway: netaddr.MustParseAddr("10.66.0.1")},
		{Gateway: netaddr.MustParseAddr("10.66.0.2")},
	}
	seen := map[netaddr.Addr]int{}
	for f := 0; f < 24; f++ {
		pkt := &packet.Packet{
			IP: packet.IPv4{
				Protocol: packet.ProtoICMP,
				Src:      netaddr.MustParseAddr("10.66.100.2"),
				Dst:      netaddr.MustParseAddr("10.66.101.2"),
			},
			ICMP: &packet.ICMP{Type: packet.ICMPEchoRequest, ID: 0x1234 + uint16(f)*257, Seq: 1},
		}
		seen[ecmpNextHop(hops, pkt).Gateway]++
	}
	t.Logf("branch counts: %v", seen)
	if len(seen) < 2 {
		t.Error("flow hash never switched branch")
	}
}
