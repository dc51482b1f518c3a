package router

import (
	"testing"
	"time"

	"wormhole/internal/netaddr"
	"wormhole/internal/netsim"
	"wormhole/internal/packet"
)

// chain builds VP -- R1 -- R2 -- R3 with /30s 10.0.i.0/30 and static FIBs,
// returning the pieces tests poke at. All routers are Cisco-personality
// plain-IP unless the test reconfigures them.
type chainFixture struct {
	net        *netsim.Network
	vp         *netsim.Host
	h          *netsim.Host
	r1, r2, r3 *Router
	dst        netaddr.Addr // r3's loopback
}

func buildChain(t *testing.T) *chainFixture {
	t.Helper()
	net := netsim.New()

	p0 := netaddr.MustParsePrefix("10.0.0.0/30") // vp - r1
	p1 := netaddr.MustParsePrefix("10.0.1.0/30") // r1 - r2
	p2 := netaddr.MustParsePrefix("10.0.2.0/30") // r2 - r3
	p3 := netaddr.MustParsePrefix("10.0.3.0/30") // r3 - h

	vp := netsim.NewHost("vp", p0.Nth(1), p0)
	cfg := Config{TTLPropagate: true}
	r1 := New("r1", Cisco, cfg)
	r2 := New("r2", Cisco, cfg)
	r3 := New("r3", Cisco, cfg)

	r1a := r1.AddIface("left", p0.Nth(2), p0)
	r1b := r1.AddIface("right", p1.Nth(1), p1)
	r2a := r2.AddIface("left", p1.Nth(2), p1)
	r2b := r2.AddIface("right", p2.Nth(1), p2)
	r3a := r3.AddIface("left", p2.Nth(2), p2)
	r3b := r3.AddIface("right", p3.Nth(1), p3)
	h := netsim.NewHost("h", p3.Nth(2), p3)
	lo := netaddr.MustParseAddr("192.168.0.3")
	r3.SetLoopback(lo)

	for _, n := range []netsim.Node{vp, h, r1, r2, r3} {
		net.AddNode(n)
	}
	net.Connect(vp.If, r1a, time.Millisecond)
	net.Connect(r1b, r2a, time.Millisecond)
	net.Connect(r2b, r3a, time.Millisecond)
	net.Connect(r3b, h.If, time.Millisecond)

	// Static routing: everything right goes right, everything left goes left.
	host := func(a netaddr.Addr) netaddr.Prefix { return netaddr.HostPrefix(a) }
	r1.InstallRoute(p0, &Route{Origin: OriginConnected, NextHops: []NextHop{{Out: r1a}}})
	r1.InstallRoute(p1, &Route{Origin: OriginConnected, NextHops: []NextHop{{Out: r1b}}})
	r1.InstallRoute(p2, &Route{Origin: OriginIGP, NextHops: []NextHop{{Out: r1b, Gateway: p1.Nth(2)}}})
	r1.InstallRoute(host(lo), &Route{Origin: OriginIGP, NextHops: []NextHop{{Out: r1b, Gateway: p1.Nth(2)}}})
	r1.InstallRoute(p3, &Route{Origin: OriginIGP, NextHops: []NextHop{{Out: r1b, Gateway: p1.Nth(2)}}})

	r2.InstallRoute(p1, &Route{Origin: OriginConnected, NextHops: []NextHop{{Out: r2a}}})
	r2.InstallRoute(p2, &Route{Origin: OriginConnected, NextHops: []NextHop{{Out: r2b}}})
	r2.InstallRoute(p0, &Route{Origin: OriginIGP, NextHops: []NextHop{{Out: r2a, Gateway: p1.Nth(1)}}})
	r2.InstallRoute(host(lo), &Route{Origin: OriginIGP, NextHops: []NextHop{{Out: r2b, Gateway: p2.Nth(2)}}})
	r2.InstallRoute(p3, &Route{Origin: OriginIGP, NextHops: []NextHop{{Out: r2b, Gateway: p2.Nth(2)}}})

	r3.InstallRoute(p2, &Route{Origin: OriginConnected, NextHops: []NextHop{{Out: r3a}}})
	r3.InstallRoute(p0, &Route{Origin: OriginIGP, NextHops: []NextHop{{Out: r3a, Gateway: p2.Nth(1)}}})
	r3.InstallRoute(p1, &Route{Origin: OriginIGP, NextHops: []NextHop{{Out: r3a, Gateway: p2.Nth(1)}}})
	r3.InstallRoute(p3, &Route{Origin: OriginConnected, NextHops: []NextHop{{Out: r3b}}})

	return &chainFixture{net: net, vp: vp, h: h, r1: r1, r2: r2, r3: r3, dst: lo}
}

func (f *chainFixture) probe(t *testing.T, ttl uint8, dst netaddr.Addr) *packet.Packet {
	t.Helper()
	var got *packet.Packet
	f.vp.Handler = func(net *netsim.Network, pkt *packet.Packet) { got = new(packet.Pool).Clone(pkt) }
	p := &packet.Packet{
		IP:   packet.IPv4{TTL: ttl, Protocol: packet.ProtoICMP, Src: f.vp.Addr(), Dst: dst},
		ICMP: &packet.ICMP{Type: packet.ICMPEchoRequest, ID: 9, Seq: uint16(ttl)},
	}
	f.net.Inject(f.vp.If, p)
	return got
}

func TestIPTTLExpiryPerHop(t *testing.T) {
	f := buildChain(t)
	wantSrc := []string{"10.0.0.2", "10.0.1.2", "10.0.2.2"}
	for i, want := range wantSrc {
		got := f.probe(t, uint8(i+1), f.h.Addr())
		if got == nil {
			t.Fatalf("ttl=%d: no reply", i+1)
		}
		if got.ICMP.Type != packet.ICMPTimeExceeded {
			t.Fatalf("ttl=%d: reply type %d", i+1, got.ICMP.Type)
		}
		if got.IP.Src != netaddr.MustParseAddr(want) {
			t.Errorf("ttl=%d: TE from %s, want %s", i+1, got.IP.Src, want)
		}
		if got.ICMP.Quote == nil || got.ICMP.Quote.Seq != uint16(i+1) {
			t.Errorf("ttl=%d: quote = %+v", i+1, got.ICMP.Quote)
		}
	}
	// The destination itself answers with an echo reply once reached.
	got := f.probe(t, 4, f.h.Addr())
	if got == nil || got.ICMP.Type != packet.ICMPEchoReply {
		t.Fatalf("ttl=4 reply = %v, want echo reply from destination", got)
	}
	if got.IP.TTL != 61 { // host init 64 minus r3, r2, r1
		t.Errorf("host echo TTL = %d, want 61", got.IP.TTL)
	}
}

func TestEchoReachesLoopback(t *testing.T) {
	f := buildChain(t)
	got := f.probe(t, 64, f.dst)
	if got == nil || got.ICMP.Type != packet.ICMPEchoReply {
		t.Fatalf("reply = %v", got)
	}
	if got.IP.Src != f.dst {
		t.Errorf("echo reply src = %s, want %s", got.IP.Src, f.dst)
	}
	// Three routers back: r3 originates at 255 (Cisco), r2 and r1 decrement.
	if got.IP.TTL != 253 {
		t.Errorf("reply TTL = %d, want 253", got.IP.TTL)
	}
}

func TestReturnTTLRevealsDistance(t *testing.T) {
	f := buildChain(t)
	got := f.probe(t, 3, f.h.Addr()) // expires at r3
	if got == nil {
		t.Fatal("no reply")
	}
	// r3's TE starts at 255 and crosses r2, r1.
	if got.IP.TTL != 253 {
		t.Errorf("TE TTL at VP = %d, want 253", got.IP.TTL)
	}
}

func TestJuniperSignatureTTLs(t *testing.T) {
	f := buildChain(t)
	f.r3.os = Juniper
	te := f.probe(t, 3, f.h.Addr()) // expires at r3
	if te == nil || te.ICMP.Type != packet.ICMPTimeExceeded {
		t.Fatalf("ttl=3 reply = %v", te)
	}
	if te.IP.TTL != 253 { // TE init 255 minus r2, r1
		t.Errorf("juniper TE TTL = %d, want 253", te.IP.TTL)
	}
	echo := f.probe(t, 64, f.dst)
	if echo == nil || echo.ICMP.Type != packet.ICMPEchoReply {
		t.Fatalf("echo reply = %v", echo)
	}
	if echo.IP.TTL != 62 { // echo init 64 minus r2, r1
		t.Errorf("juniper echo TTL = %d, want 62", echo.IP.TTL)
	}
}

func TestSilentRouterAnswersNothing(t *testing.T) {
	f := buildChain(t)
	f.r2.cfg.Silent = true
	if got := f.probe(t, 2, f.dst); got != nil {
		t.Errorf("silent router replied: %v", got)
	}
	// But it still forwards.
	if got := f.probe(t, 3, f.h.Addr()); got == nil || got.IP.Src != netaddr.MustParseAddr("10.0.2.2") {
		t.Errorf("silent router did not forward: %v", got)
	}
}

func TestNoICMPTimeExceededStillPings(t *testing.T) {
	f := buildChain(t)
	f.r2.cfg.NoICMPTimeExceeded = true
	if got := f.probe(t, 2, f.dst); got != nil {
		t.Errorf("TE suppressed router sent TE: %v", got)
	}
	if got := f.probe(t, 64, netaddr.MustParseAddr("10.0.1.2")); got == nil || got.ICMP.Type != packet.ICMPEchoReply {
		t.Errorf("TE-suppressed router did not answer ping: %v", got)
	}
}

func TestUDPProbeToRouterPortUnreach(t *testing.T) {
	f := buildChain(t)
	var got *packet.Packet
	f.vp.Handler = func(net *netsim.Network, pkt *packet.Packet) { got = new(packet.Pool).Clone(pkt) }
	p := &packet.Packet{
		IP:  packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: f.vp.Addr(), Dst: f.dst},
		UDP: &packet.UDP{SrcPort: 33000, DstPort: 33434},
	}
	f.net.Inject(f.vp.If, p)
	if got == nil || got.ICMP == nil || got.ICMP.Type != packet.ICMPDestUnreach || got.ICMP.Code != packet.CodePortUnreach {
		t.Fatalf("reply = %v", got)
	}
}

// installLSP wires a static LSP r1 -> r2 -> r3 for the loopback FEC with
// PHP: r1 pushes label 100 (r2's), r2 pops (r3 advertised implicit null).
func installLSP(f *chainFixture, propagate bool) {
	for _, r := range []*Router{f.r1, f.r2, f.r3} {
		r.cfg.MPLSEnabled = true
		r.cfg.TTLPropagate = propagate
	}
	r1b := f.r1.Ifaces()[1]
	r2b := f.r2.Ifaces()[1]
	for _, fec := range []netaddr.Prefix{netaddr.HostPrefix(f.dst), netaddr.MustParsePrefix("10.0.3.0/30")} {
		f.r1.InstallBinding(&Binding{FEC: fec, NextHops: []LabelHop{{Out: r1b, Label: 100}}})
	}
	f.r2.InstallLFIB(&LFIBEntry{InLabel: 100, NextHops: []LabelHop{{Out: r2b, Label: OutLabelImplicitNull}}})
}

func TestInvisibleTunnelHidesLSR(t *testing.T) {
	f := buildChain(t)
	installLSP(f, false)
	// TTL=2 expires at r3 (the egress), not r2: r1 decremented to 1 and
	// pushed; r2 only decremented the LSE; r3 got IP TTL 1.
	got := f.probe(t, 2, f.h.Addr())
	if got == nil || got.IP.Src != netaddr.MustParseAddr("10.0.2.2") {
		t.Fatalf("ttl=2 reply from %v, want r3 (10.0.2.2)", got)
	}
	// min-on-pop leaked the tunnel length into the return path: r3's TE
	// rides no return tunnel here, so its TTL reflects true distance.
	if got.IP.TTL != 253 {
		t.Errorf("TE TTL = %d, want 253", got.IP.TTL)
	}
}

func TestExplicitTunnelRevealsLSRWithRFC4950(t *testing.T) {
	f := buildChain(t)
	installLSP(f, true)
	got := f.probe(t, 2, f.h.Addr())
	if got == nil || got.IP.Src != netaddr.MustParseAddr("10.0.1.2") {
		t.Fatalf("ttl=2 reply from %v, want r2 (10.0.1.2)", got)
	}
	if got.ICMP.Ext == nil || len(got.ICMP.Ext.LabelStack) != 1 {
		t.Fatalf("missing RFC4950 extension: %+v", got.ICMP.Ext)
	}
	lse := got.ICMP.Ext.LabelStack[0]
	if lse.Label != 100 || lse.TTL != 1 {
		t.Errorf("quoted LSE = %+v, want label 100 ttl 1", lse)
	}
}

func TestNoRFC4950OmitsExtension(t *testing.T) {
	f := buildChain(t)
	installLSP(f, true)
	f.r2.os = Legacy // no RFC4950
	got := f.probe(t, 2, f.h.Addr())
	if got == nil {
		t.Fatal("no reply")
	}
	if got.ICMP.Ext != nil {
		t.Errorf("legacy router quoted labels: %+v", got.ICMP.Ext)
	}
}

func TestMinOnPopCopiesLSETTL(t *testing.T) {
	f := buildChain(t)
	installLSP(f, false)
	// Probe with plenty of IP TTL: at r2's pop, LSE TTL (254) < IP TTL
	// (63): min writes 254? No: LSE starts at 255, r2 decrements to 254;
	// IP TTL is 63 after r1; min(63, 254) keeps 63. The reply from the
	// loopback then shows the true reverse distance.
	got := f.probe(t, 64, f.dst)
	if got == nil || got.ICMP.Type != packet.ICMPEchoReply {
		t.Fatalf("reply = %v", got)
	}
	// Now the interesting direction: a return tunnel. Give r3 a binding
	// toward the VP so its replies enter an invisible return LSP.
	vpPrefix := netaddr.MustParsePrefix("10.0.0.0/30")
	r3a := f.r3.Ifaces()[0]
	r2a := f.r2.Ifaces()[0]
	f.r3.InstallBinding(&Binding{FEC: vpPrefix, NextHops: []LabelHop{{Out: r3a, Label: 200}}})
	f.r2.InstallLFIB(&LFIBEntry{InLabel: 200, NextHops: []LabelHop{{Out: r2a, Label: OutLabelImplicitNull}}})
	// r3's route for the VP prefix must be IGP-origin for the binding to
	// apply (it is, from buildChain).
	// With the forward tunnel invisible, the host is only 3 IP hops away
	// (r1, r3, h): TTL=2 expires at r3, the egress.
	got = f.probe(t, 2, f.h.Addr()) // expires at r3; TE returns through the LSP
	if got == nil {
		t.Fatal("no reply")
	}
	// TE: r3 originates at 255, pushes LSE 255 (no propagate on r3...
	// propagate=false from installLSP). r2 pops: LSE 254 < IP 255 -> 254.
	// r1: IP hop -> 253.
	if got.IP.TTL != 253 {
		t.Errorf("TE TTL through return tunnel = %d, want 253", got.IP.TTL)
	}
	// Juniper echo replies start at 64: the min keeps 64 (the "gap").
	f.r3.os = Juniper
	got = f.probe(t, 64, f.dst)
	// Echo reply 64; push LSE 255; pop min(64, 254) = 64; r1 -> 63.
	if got.IP.TTL != 63 {
		t.Errorf("juniper echo through return tunnel = %d, want 63", got.IP.TTL)
	}
}

func TestUHPDisposition(t *testing.T) {
	f := buildChain(t)
	installLSP(f, false)
	// Rewire as UHP: r2 swaps to explicit null, r3 pops locally.
	r2b := f.r2.Ifaces()[1]
	f.r2.InstallLFIB(&LFIBEntry{InLabel: 100, NextHops: []LabelHop{{Out: r2b, Label: OutLabelExplicitNull}}})
	f.r3.InstallLFIB(&LFIBEntry{InLabel: packet.LabelExplicitNull, PopLocal: true})
	f.r3.cfg.UHP = true

	// TTL=2: r1 pushes with IP TTL 1; tunnel invisible; r3 pops with no
	// expiry check and forwards the TTL-0 packet to the destination, which
	// answers: tunnel AND egress hidden (Fig. 4d).
	got := f.probe(t, 2, f.h.Addr())
	if got == nil || got.ICMP.Type != packet.ICMPEchoReply {
		t.Fatalf("UHP ttl=2 reply = %v, want echo reply from destination", got)
	}
	if got.IP.Src != f.h.Addr() {
		t.Errorf("reply src = %s, want destination host", got.IP.Src)
	}
}

func TestLabeledPacketDroppedWithoutMPLS(t *testing.T) {
	f := buildChain(t)
	installLSP(f, false)
	f.r2.cfg.MPLSEnabled = false
	before := f.net.FabricStats().Deliveries
	got := f.probe(t, 5, f.dst)
	if got != nil {
		t.Errorf("labeled packet crossed a non-MPLS router: %v", got)
	}
	// r1 and r2 received the probe; r2 dropped it, so r3 never did.
	if d := f.net.FabricStats().Deliveries - before; d != 2 {
		t.Errorf("%d deliveries, want 2 (vp→r1, r1→r2)", d)
	}
}

func TestUnknownLabelDropped(t *testing.T) {
	f := buildChain(t)
	installLSP(f, false)
	f.r1.InstallBinding(&Binding{FEC: netaddr.HostPrefix(f.dst), NextHops: []LabelHop{{Out: f.r1.Ifaces()[1], Label: 999}}})
	got := f.probe(t, 5, f.dst)
	if got != nil {
		t.Errorf("packet with unknown label delivered: %v", got)
	}
}

func TestECMPStableUnderParisFlowID(t *testing.T) {
	f := buildChain(t)
	// Give r1 two "paths" (same physical link twice, distinguishable via
	// gateway) and check the flow hash picks deterministically.
	p1 := netaddr.MustParsePrefix("10.0.1.0/30")
	rt := &Route{Origin: OriginIGP, NextHops: []NextHop{
		{Out: f.r1.Ifaces()[1], Gateway: p1.Nth(2)},
		{Out: f.r1.Ifaces()[1], Gateway: p1.Nth(1)},
	}}
	pkt := &packet.Packet{
		IP:   packet.IPv4{TTL: 9, Protocol: packet.ProtoICMP, Src: f.vp.Addr(), Dst: f.dst},
		ICMP: &packet.ICMP{Type: packet.ICMPEchoRequest, ID: 7, Seq: 1},
	}
	first := ecmpNextHop(rt.NextHops, pkt)
	for i := 0; i < 10; i++ {
		pkt.ICMP.Seq = uint16(i) // Paris: seq may vary, ID constant
		if got := ecmpNextHop(rt.NextHops, pkt); got != first {
			t.Fatal("ECMP choice changed for constant flow ID")
		}
	}
}

func TestRouteWithoutNextHopsPanics(t *testing.T) {
	r := New("x", Cisco, Config{})
	defer func() {
		if recover() == nil {
			t.Error("no panic for empty next hops")
		}
	}()
	r.InstallRoute(netaddr.MustParsePrefix("10.0.0.0/8"), &Route{})
}

func TestPersonalitySignatures(t *testing.T) {
	cases := []struct {
		p      Personality
		te, er uint8
	}{
		{Cisco, 255, 255},
		{Juniper, 255, 64},
		{JunosE, 128, 128},
		{Legacy, 64, 64},
	}
	for _, c := range cases {
		te, er := c.p.TimeExceededTTL, c.p.EchoReplyTTL
		if te != c.te || er != c.er {
			t.Errorf("%s signature = <%d,%d>, want <%d,%d>", c.p.Name, te, er, c.te, c.er)
		}
	}
}

func TestOriginateWithoutRouteDrops(t *testing.T) {
	echo := func() *packet.Packet {
		return &packet.Packet{
			IP:   packet.IPv4{TTL: 64, Protocol: packet.ProtoICMP, Dst: netaddr.MustParseAddr("203.0.113.1")},
			ICMP: &packet.ICMP{Type: packet.ICMPEchoRequest},
		}
	}
	// Originate permits a nil fabric: a routeless packet is dropped
	// before anything would be transmitted.
	New("lonely", Cisco, Config{}).Originate(nil, echo())
	// On a fabric, r1 has no route to the destination: nothing leaves it.
	f := buildChain(t)
	before := f.net.FabricStats().Deliveries
	f.r1.Originate(f.net, echo())
	f.net.Run()
	if d := f.net.FabricStats().Deliveries - before; d != 0 {
		t.Errorf("%d deliveries after a routeless originate, want 0", d)
	}
}

func TestRateLimiterAllowsAfterInterval(t *testing.T) {
	f := buildChain(t)
	cfg := f.r2.Config()
	cfg.ICMPInterval = 3 * time.Millisecond
	f.r2.SetConfig(cfg)
	// First expiry answered.
	if got := f.probe(t, 2, f.h.Addr()); got == nil {
		t.Fatal("first TE suppressed")
	}
	// Virtual time advances ~8ms per probe round (4 links each way), so
	// the next expiry is past the interval and must be answered too.
	if got := f.probe(t, 2, f.h.Addr()); got == nil {
		t.Fatal("TE suppressed after the interval elapsed")
	}
}

func TestIsLocalAndGetRoute(t *testing.T) {
	f := buildChain(t)
	if !f.r3.IsLocal(f.dst) {
		t.Error("loopback not local")
	}
	if f.r3.IsLocal(f.vp.Addr()) {
		t.Error("foreign address local")
	}
	if _, ok := f.r1.GetRoute(netaddr.MustParsePrefix("10.0.0.0/30")); !ok {
		t.Error("GetRoute missed connected route")
	}
	if _, ok := f.r1.GetRoute(netaddr.MustParsePrefix("10.0.0.0/29")); ok {
		t.Error("GetRoute used LPM")
	}
}

func TestClearMPLSRemovesState(t *testing.T) {
	f := buildChain(t)
	installLSP(f, false)
	f.r1.ClearMPLS()
	f.r2.ClearMPLS()
	// With label state gone the path is plain IP again: TTL=3 expires at
	// r3 (3 IP hops).
	got := f.probe(t, 3, f.h.Addr())
	if got == nil || got.IP.Src != netaddr.MustParseAddr("10.0.2.2") {
		t.Fatalf("after ClearMPLS: %v", got)
	}
}

func TestUHPDispositionWithPropagate(t *testing.T) {
	// UHP egress with ttl-propagate behaves like an IP hop: min copy plus
	// expiry check, so the egress appears in traces.
	f := buildChain(t)
	for _, r := range []*Router{f.r1, f.r2, f.r3} {
		cfg := r.Config()
		cfg.MPLSEnabled = true
		cfg.TTLPropagate = true
		r.SetConfig(cfg)
	}
	f.r1.InstallBinding(&Binding{
		FEC:      netaddr.MustParsePrefix("10.0.3.0/30"),
		NextHops: []LabelHop{{Out: f.r1.Ifaces()[1], Label: 100}},
	})
	f.r2.InstallLFIB(&LFIBEntry{InLabel: 100, NextHops: []LabelHop{{Out: f.r2.Ifaces()[1], Label: OutLabelExplicitNull}}})
	f.r3.InstallLFIB(&LFIBEntry{InLabel: packet.LabelExplicitNull, PopLocal: true})
	f.r3.cfg.UHP = true

	// TTL=3: r1 (3->2, push LSE 2), r2 (LSE 1, swap to null), r3: pop,
	// min(IP 2, LSE 0)=0 -> expire AT the egress: visible.
	got := f.probe(t, 3, f.h.Addr())
	if got == nil || got.ICMP.Type != packet.ICMPTimeExceeded {
		t.Fatalf("reply = %v, want TE", got)
	}
	if got.IP.Src != netaddr.MustParseAddr("10.0.2.2") {
		t.Errorf("TE from %s, want the UHP egress r3", got.IP.Src)
	}
	// And the destination still answers at TTL 4.
	got = f.probe(t, 4, f.h.Addr())
	if got == nil || got.ICMP.Type != packet.ICMPEchoReply {
		t.Fatalf("ttl=4 = %v, want echo from h", got)
	}
}

func TestUHPDispositionLocalDelivery(t *testing.T) {
	// A probe whose destination IS the UHP egress: pop then local answer.
	f := buildChain(t)
	for _, r := range []*Router{f.r1, f.r2, f.r3} {
		cfg := r.Config()
		cfg.MPLSEnabled = true
		r.SetConfig(cfg)
	}
	f.r1.InstallBinding(&Binding{
		FEC:      netaddr.HostPrefix(f.dst),
		NextHops: []LabelHop{{Out: f.r1.Ifaces()[1], Label: 100}},
	})
	f.r2.InstallLFIB(&LFIBEntry{InLabel: 100, NextHops: []LabelHop{{Out: f.r2.Ifaces()[1], Label: OutLabelExplicitNull}}})
	f.r3.InstallLFIB(&LFIBEntry{InLabel: packet.LabelExplicitNull, PopLocal: true})
	got := f.probe(t, 64, f.dst)
	if got == nil || got.ICMP.Type != packet.ICMPEchoReply || got.IP.Src != f.dst {
		t.Fatalf("reply = %v, want echo from the egress loopback", got)
	}
}
