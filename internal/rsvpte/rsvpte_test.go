package rsvpte

import (
	"testing"
	"time"

	"wormhole/internal/igp"
	"wormhole/internal/netaddr"
	"wormhole/internal/netsim"
	"wormhole/internal/probe"
	"wormhole/internal/router"
)

// diamond builds vp - a - {b | c-d} - e - h: the IGP shortest path is
// a-b-e (3 hops), the TE path detours a-c-d-e.
type diamond struct {
	net           *netsim.Network
	vp, host      *netsim.Host
	a, b, c, d, e *router.Router
	prober        *probe.Prober
}

func buildDiamond(t *testing.T, propagate bool) *diamond {
	t.Helper()
	net := netsim.New()
	f := &diamond{net: net}
	cfg := router.Config{MPLSEnabled: true, TTLPropagate: propagate}
	mk := func(name string, i int) *router.Router {
		r := router.New(name, router.Cisco, cfg)
		r.SetLoopback(netaddr.AddrFrom4(192, 168, 77, byte(i+1)))
		net.AddNode(r)
		return r
	}
	f.a, f.b, f.c, f.d, f.e = mk("a", 0), mk("b", 1), mk("c", 2), mk("d", 3), mk("e", 4)

	sub := 0
	wire := func(x, y *router.Router) {
		p := netaddr.MustPrefixFrom(netaddr.AddrFrom4(10, 70, byte(sub), 0), 30)
		sub++
		xi := x.AddIface("to-"+y.Name(), p.Nth(1), p)
		yi := y.AddIface("to-"+x.Name(), p.Nth(2), p)
		net.Connect(xi, yi, time.Millisecond)
	}
	wire(f.a, f.b)
	wire(f.b, f.e)
	wire(f.a, f.c)
	wire(f.c, f.d)
	wire(f.d, f.e)

	vpP := netaddr.MustParsePrefix("10.70.100.0/30")
	f.vp = netsim.NewHost("vp", vpP.Nth(2), vpP)
	net.AddNode(f.vp)
	ai := f.a.AddIface("to-vp", vpP.Nth(1), vpP)
	net.Connect(ai, f.vp.If, time.Millisecond)
	hP := netaddr.MustParsePrefix("10.70.101.0/30")
	f.host = netsim.NewHost("h", hP.Nth(2), hP)
	net.AddNode(f.host)
	ei := f.e.AddIface("to-h", hP.Nth(1), hP)
	net.Connect(ei, f.host.If, time.Millisecond)

	dom := &igp.Domain{Routers: []*router.Router{f.a, f.b, f.c, f.d, f.e}}
	if _, err := dom.Compute(); err != nil {
		t.Fatal(err)
	}
	f.prober = probe.New(net, f.vp)
	return f
}

func hostFEC() netaddr.Prefix { return netaddr.MustParsePrefix("10.70.101.0/30") }

func respondingAddrs(tr *probe.Trace) []netaddr.Addr {
	var out []netaddr.Addr
	for _, h := range tr.Hops {
		if !h.Anonymous() {
			out = append(out, h.Addr)
		}
	}
	return out
}

func TestTESteersOffIGPPath(t *testing.T) {
	f := buildDiamond(t, true) // propagate: the detour is visible
	tn := &Tunnel{
		Name: "detour",
		Path: []*router.Router{f.a, f.c, f.d, f.e},
		FEC:  hostFEC(),
	}
	if err := Signal(tn); err != nil {
		t.Fatal(err)
	}
	tr := f.prober.Traceroute(f.host.Addr())
	if !tr.Reached {
		t.Fatalf("not reached: %+v", tr.Hops)
	}
	hops := respondingAddrs(tr)
	// Path must include c and d, not b.
	names := map[netaddr.Addr]bool{}
	for _, a := range hops {
		names[a] = true
	}
	if !names[f.c.Ifaces()[1].Addr] && !names[f.c.Ifaces()[0].Addr] {
		t.Errorf("TE path skipped c: %v", hops)
	}
	for _, ifc := range f.b.Ifaces() {
		if names[ifc.Addr] {
			t.Errorf("traffic still crossed b: %v", hops)
		}
	}
}

func TestTEWithUHPInvisible(t *testing.T) {
	f := buildDiamond(t, false) // no propagate
	tn := &Tunnel{
		Name: "stealth",
		Path: []*router.Router{f.a, f.c, f.d, f.e},
		FEC:  hostFEC(),
		UHP:  true,
	}
	if err := Signal(tn); err != nil {
		t.Fatal(err)
	}
	tr := f.prober.Traceroute(f.host.Addr())
	if !tr.Reached {
		t.Fatalf("not reached: %+v", tr.Hops)
	}
	hops := respondingAddrs(tr)
	// Totally invisible: a then h only — c, d AND the egress e hidden.
	if len(hops) != 2 || hops[len(hops)-1] != f.host.Addr() {
		t.Fatalf("UHP TE tunnel leaked hops: %v", hops)
	}
}

func TestTEWithPHPLeavesEgressVisible(t *testing.T) {
	f := buildDiamond(t, false)
	tn := &Tunnel{
		Name: "php",
		Path: []*router.Router{f.a, f.c, f.d, f.e},
		FEC:  hostFEC(),
	}
	if err := Signal(tn); err != nil {
		t.Fatal(err)
	}
	tr := f.prober.Traceroute(f.host.Addr())
	hops := respondingAddrs(tr)
	// PHP: interior hidden but the egress e appears (it decrements).
	if len(hops) != 3 {
		t.Fatalf("hops = %v, want a, e, h", hops)
	}
}

func TestSignalValidation(t *testing.T) {
	f := buildDiamond(t, true)
	if err := Signal(&Tunnel{Name: "short", Path: []*router.Router{f.a}}); err == nil {
		t.Error("single-router tunnel accepted")
	}
	if err := Signal(&Tunnel{Name: "gap", Path: []*router.Router{f.a, f.d}, FEC: hostFEC()}); err == nil {
		t.Error("non-adjacent path accepted")
	}
	plain := router.New("plain", router.Cisco, router.Config{})
	_ = plain
	if err := Signal(&Tunnel{Name: "noroute", Path: []*router.Router{f.a, f.b},
		FEC: netaddr.MustParsePrefix("203.0.113.0/24")}); err == nil {
		t.Error("FEC without ingress route accepted")
	}
}

func TestSignalRejectsNonMPLSHop(t *testing.T) {
	f := buildDiamond(t, true)
	cfg := f.c.Config()
	cfg.MPLSEnabled = false
	f.c.SetConfig(cfg)
	err := Signal(&Tunnel{Name: "broken", Path: []*router.Router{f.a, f.c, f.d, f.e}, FEC: hostFEC()})
	if err == nil {
		t.Error("tunnel through non-MPLS router accepted")
	}
}
