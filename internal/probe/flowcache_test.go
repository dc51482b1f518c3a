package probe

import (
	"testing"

	"wormhole/internal/netsim"
	"wormhole/internal/packet"
)

// TestNextTokenNeverZeroAndUnique pins the probe-token contract: tokens
// are non-zero (so they never collide with the zero IP identifier of
// non-probe traffic) and unique across any 65535-probe window, across the
// uint16 wraparound included.
func TestNextTokenNeverZeroAndUnique(t *testing.T) {
	p := &Prober{}
	p.seq = 65530 // straddle the wrap
	seen := make(map[uint16]int)
	for i := 0; i < 65535; i++ {
		tok := p.nextToken()
		if tok == 0 {
			t.Fatalf("token %d is zero", i)
		}
		if j, dup := seen[tok]; dup {
			t.Fatalf("token %#x repeated at %d and %d", tok, j, i)
		}
		seen[tok] = i
	}
	// The 65536th draw may legitimately repeat the first.
	if tok := p.nextToken(); tok == 0 {
		t.Fatal("wrapped token is zero")
	}
}

// TestTracerouteAcrossTokenWrap replays a full TTL ladder with the
// sequence counter parked just below the 16-bit wrap: the zero token must
// be skipped and every reply still matched. The ladder drives probe()
// directly — Traceroute reseeds the sequence per trace, which would
// un-park it.
func TestTracerouteAcrossTokenWrap(t *testing.T) {
	l := buildLine(t, 3)
	l.prober.seq = 0xFFFE
	for ttl := uint8(1); ttl <= 4; ttl++ {
		if obs := l.prober.probe(l.host.Addr(), ttl, ICMPParis); !obs.Answered {
			t.Errorf("probe at TTL %d unmatched across token wrap", ttl)
		}
	}
	if l.prober.Sent != l.prober.Recv {
		t.Errorf("Sent %d != Recv %d across wrap", l.prober.Sent, l.prober.Recv)
	}
}

// TestUDPQuoteMatchingUsesIPID is the regression test for the UDP
// port-cycle aliasing fix: two probes 128 tokens apart share the same
// destination port, so the quoted transport pair alone cannot tell them
// apart — the quoted IP identifier (the full 16-bit token) must decide.
func TestUDPQuoteMatchingUsesIPID(t *testing.T) {
	net := netsim.New()
	p := &Prober{Net: net, FlowID: 0x1234}

	// Pretend a UDP probe with token 7 is in flight.
	token := uint16(7)
	p.pending = await{id: p.FlowID, seq: udpBasePort + token%128, ipid: token}
	p.waiting = true

	reply := func(quotedToken uint16) *packet.Packet {
		return &packet.Packet{
			ICMP: &packet.ICMP{
				Type: packet.ICMPTimeExceeded,
				Quote: &packet.Quote{
					IP: packet.IPv4{ID: quotedToken, Protocol: packet.ProtoUDP},
					ID: p.FlowID,
					// Same port-cycle slot as the pending probe.
					Seq: udpBasePort + quotedToken%128,
				},
			},
		}
	}

	// A stale reply quoting token 7+128 hits the same port but must NOT
	// match the pending probe.
	p.handle(net, reply(token+128))
	if p.pending.reply != nil || p.Recv != 0 {
		t.Fatal("aliased quote (same port, different token) was matched")
	}
	// The genuine reply must match.
	p.handle(net, reply(token))
	if p.pending.reply == nil || p.Recv != 1 {
		t.Fatal("genuine quote was not matched")
	}
}
