package ldp

import (
	"fmt"
	"testing"
	"time"

	"wormhole/internal/igp"
	"wormhole/internal/netaddr"
	"wormhole/internal/netsim"
	"wormhole/internal/packet"
	"wormhole/internal/probe"
	"wormhole/internal/router"
)

// fixture is a linear MPLS domain vp - r0 - r1 - r2 - r3 - h with SPF
// computed and LDP built according to the per-router configs.
type fixture struct {
	net    *netsim.Network
	vp     *netsim.Host
	host   *netsim.Host
	rs     []*router.Router
	prober *probe.Prober
}

func build(t *testing.T, cfgs []router.Config) *fixture {
	t.Helper()
	net := netsim.New()
	f := &fixture{net: net}
	f.rs = make([]*router.Router, len(cfgs))
	for i, cfg := range cfgs {
		cfg.TTLPropagate = cfg.TTLPropagate || false
		f.rs[i] = router.New(fmt.Sprintf("r%d", i), router.Cisco, cfg)
		f.rs[i].SetLoopback(netaddr.AddrFrom4(192, 168, 9, byte(i+1)))
		net.AddNode(f.rs[i])
	}
	wire := func(ai, bi *netsim.Iface) {
		net.Connect(ai, bi, time.Millisecond)
	}
	for i := 0; i+1 < len(f.rs); i++ {
		p := netaddr.MustPrefixFrom(netaddr.AddrFrom4(10, 50, byte(i), 0), 30)
		wire(f.rs[i].AddIface("right", p.Nth(1), p), f.rs[i+1].AddIface("left", p.Nth(2), p))
	}
	vpP := netaddr.MustParsePrefix("10.50.100.0/30")
	f.vp = netsim.NewHost("vp", vpP.Nth(2), vpP)
	net.AddNode(f.vp)
	wire(f.rs[0].AddIface("to-vp", vpP.Nth(1), vpP), f.vp.If)
	hP := netaddr.MustParsePrefix("10.50.101.0/30")
	f.host = netsim.NewHost("h", hP.Nth(2), hP)
	net.AddNode(f.host)
	wire(f.rs[len(f.rs)-1].AddIface("to-h", hP.Nth(1), hP), f.host.If)

	dom := &igp.Domain{Routers: f.rs}
	spf, err := dom.Compute()
	if err != nil {
		t.Fatal(err)
	}
	Build(f.rs, spf)
	f.prober = probe.New(f.net, f.vp)
	return f
}

func cfgN(n int, c router.Config) []router.Config {
	out := make([]router.Config, n)
	for i := range out {
		out[i] = c
	}
	return out
}

var (
	allPrefixes = router.Config{MPLSEnabled: true, LDP: router.LDPAllPrefixes}
	hostRoutes  = router.Config{MPLSEnabled: true, LDP: router.LDPHostRoutesOnly}
)

// hopsSeen traces dst and returns the responding router addresses.
func (f *fixture) hopsSeen(dst netaddr.Addr) []netaddr.Addr {
	tr := f.prober.Traceroute(dst)
	var out []netaddr.Addr
	for _, h := range tr.Hops {
		if !h.Anonymous() {
			out = append(out, h.Addr)
		}
	}
	return out
}

func TestAllPrefixesHidesInteriorWithoutPropagate(t *testing.T) {
	f := build(t, cfgN(4, allPrefixes)) // no ttl-propagate
	hops := f.hopsSeen(f.host.Addr())
	// Tunnel r0->r3 (FEC = host subnet): r1, r2 invisible.
	if len(hops) != 3 {
		t.Fatalf("saw %d hops %v, want 3 (r0, r3, h)", len(hops), hops)
	}
}

func TestAllPrefixesVisibleWithPropagate(t *testing.T) {
	cfg := allPrefixes
	cfg.TTLPropagate = true
	f := build(t, cfgN(4, cfg))
	tr := f.prober.Traceroute(f.host.Addr())
	labeled := 0
	for _, h := range tr.Hops {
		if h.Labeled() {
			labeled++
		}
	}
	// r1 and r2 reveal labels (r2 is the LH: it pops, so its reply still
	// quotes the received label).
	if labeled < 2 {
		t.Errorf("only %d labeled hops: %+v", labeled, tr.Hops)
	}
}

func TestHostRoutesLeavesSubnetsUnlabeled(t *testing.T) {
	f := build(t, cfgN(4, hostRoutes))
	// Target r3's left interface: a /30 FEC never labeled under
	// host-routes, so the pure IGP route reveals every interior hop (the
	// DPR precondition).
	target := f.rs[3].Ifaces()[0].Addr
	hops := f.hopsSeen(target)
	if len(hops) != 4 {
		t.Fatalf("saw %v, want all four routers", hops)
	}
}

func TestHostRoutesStillTunnelsLoopbacks(t *testing.T) {
	f := build(t, cfgN(4, hostRoutes))
	// Target r3's loopback: labeled (host FEC), interior hidden.
	hops := f.hopsSeen(f.rs[3].Loopback().Addr)
	if len(hops) != 2 {
		t.Fatalf("saw %v, want r0 then r3 only", hops)
	}
}

func TestUHPHidesEgressToo(t *testing.T) {
	cfg := allPrefixes
	cfg.UHP = true
	f := build(t, cfgN(4, cfg))
	hops := f.hopsSeen(f.host.Addr())
	// With UHP the egress r3 disappears as well: r0 then h.
	if len(hops) != 2 || hops[1] != f.host.Addr() {
		t.Fatalf("saw %v, want r0 then host", hops)
	}
}

func TestMixedPoliciesDoNotBlackhole(t *testing.T) {
	cfgs := []router.Config{allPrefixes, hostRoutes, allPrefixes, allPrefixes}
	f := build(t, cfgs)
	tr := f.prober.Traceroute(f.host.Addr())
	if !tr.Reached {
		t.Fatalf("mixed-policy chain black-holed traffic: %+v", tr.Hops)
	}
	// And an interior /30 target also survives.
	tr = f.prober.Traceroute(f.rs[3].Ifaces()[0].Addr)
	if !tr.Reached {
		t.Fatalf("interior target black-holed: %+v", tr.Hops)
	}
}

func TestMPLSDisabledRouterGetsNoState(t *testing.T) {
	cfgs := []router.Config{allPrefixes, {}, allPrefixes, allPrefixes}
	f := build(t, cfgs)
	if got := f.rs[1].AllocLabel(); got != 16 {
		t.Errorf("non-MPLS router allocated labels (next=%d)", got)
	}
	// Traffic still flows as IP through the non-MPLS hop.
	tr := f.prober.Traceroute(f.host.Addr())
	if !tr.Reached {
		t.Fatal("chain with plain-IP middle black-holed")
	}
}

func TestExplicitNullOnTheWire(t *testing.T) {
	cfg := allPrefixes
	cfg.UHP = true
	cfg.TTLPropagate = true
	f := build(t, cfgN(4, cfg))
	// With propagation on, an expiring probe inside the tunnel reveals
	// the label stack; the hop before the egress must carry explicit null
	// (label 0) after the penultimate swap.
	tr := f.prober.Traceroute(f.host.Addr())
	sawExplicitNull := false
	for _, h := range tr.Hops {
		for _, lse := range h.MPLS {
			if lse.Label == packet.LabelExplicitNull {
				sawExplicitNull = true
			}
		}
	}
	if !sawExplicitNull {
		t.Errorf("no explicit-null label observed under UHP: %+v", tr.Hops)
	}
}

func TestPerFECLabelsAreDistinct(t *testing.T) {
	f := build(t, cfgN(4, cfgWithPropagate(allPrefixes)))
	// Trace two different FECs through the same transit router and
	// compare quoted labels at the first labeled hop.
	l1 := quotedLabel(t, f, f.host.Addr())
	l2 := quotedLabel(t, f, f.rs[3].Loopback().Addr)
	if l1 == 0 || l2 == 0 {
		t.Skip("no labeled hops observed")
	}
	if l1 == l2 {
		t.Errorf("different FECs share label %d", l1)
	}
}

func cfgWithPropagate(c router.Config) router.Config {
	c.TTLPropagate = true
	return c
}

func quotedLabel(t *testing.T, f *fixture, dst netaddr.Addr) uint32 {
	t.Helper()
	tr := f.prober.Traceroute(dst)
	for _, h := range tr.Hops {
		if len(h.MPLS) > 0 {
			return h.MPLS[0].Label
		}
	}
	return 0
}
