package igp

import (
	"testing"
	"time"

	"wormhole/internal/netaddr"
	"wormhole/internal/netsim"
	"wormhole/internal/packet"
	"wormhole/internal/router"
)

// diamond builds the classic ECMP diamond:
//
//	    B
//	  /   \
//	A       D --- host
//	  \   /
//	    C
type diamond struct {
	net        *netsim.Network
	a, b, c, d *router.Router
	host       *netsim.Host
	res        *Result
}

func buildDiamond(t *testing.T) *diamond {
	t.Helper()
	net := netsim.New()
	mk := func(name string) *router.Router {
		r := router.New(name, router.Cisco, router.Config{TTLPropagate: true})
		net.AddNode(r)
		return r
	}
	a, b, c, d := mk("a"), mk("b"), mk("c"), mk("d")

	subnet := 0
	connect := func(x, y *router.Router) {
		p := netaddr.MustPrefixFrom(netaddr.AddrFrom4(10, 1, byte(subnet), 0), 30)
		subnet++
		xi := x.AddIface("to-"+y.Name(), p.Nth(1), p)
		yi := y.AddIface("to-"+x.Name(), p.Nth(2), p)
		net.Connect(xi, yi, time.Millisecond)
	}
	connect(a, b)
	connect(a, c)
	connect(b, d)
	connect(c, d)

	for i, r := range []*router.Router{a, b, c, d} {
		lo := netaddr.AddrFrom4(192, 168, 1, byte(i+1))
		r.SetLoopback(lo)
	}

	hp := netaddr.MustParsePrefix("10.9.0.0/30")
	host := netsim.NewHost("host", hp.Nth(2), hp)
	net.AddNode(host)
	di := d.AddIface("to-host", hp.Nth(1), hp)
	net.Connect(di, host.If, time.Millisecond)

	dom := &Domain{Routers: []*router.Router{a, b, c, d}}
	res, err := dom.Compute()
	if err != nil {
		t.Fatal(err)
	}
	return &diamond{net: net, a: a, b: b, c: c, d: d, host: host, res: res}
}

func TestSPFDistances(t *testing.T) {
	f := buildDiamond(t)
	cases := []struct {
		from, to *router.Router
		want     int
	}{
		{f.a, f.a, 0},
		{f.a, f.b, 1},
		{f.a, f.c, 1},
		{f.a, f.d, 2},
		{f.b, f.c, 2},
	}
	for _, c := range cases {
		if got := f.res.Dist[c.from][c.to]; got != c.want {
			t.Errorf("dist(%s,%s) = %d, want %d", c.from.Name(), c.to.Name(), got, c.want)
		}
	}
}

func TestECMPNextHops(t *testing.T) {
	f := buildDiamond(t)
	lo := f.d.Loopback().Prefix
	hops := f.res.NextHops[f.a][lo]
	if len(hops) != 2 {
		t.Fatalf("a has %d next hops toward d's loopback, want 2 (via b and c)", len(hops))
	}
	vias := map[string]bool{}
	for _, h := range hops {
		vias[h.Via.Name()] = true
	}
	if !vias["b"] || !vias["c"] {
		t.Errorf("ECMP vias = %v", vias)
	}
}

func TestConnectedRoutesInstalled(t *testing.T) {
	f := buildDiamond(t)
	// a's route to the a-b subnet must be connected.
	p := f.a.Ifaces()[0].Prefix
	_, rt, ok := f.a.LookupRoute(p.Nth(1))
	if !ok || rt.Origin != router.OriginConnected {
		t.Fatalf("route = %+v ok=%v", rt, ok)
	}
}

func TestOwnersIncludeBothEndsOfSubnet(t *testing.T) {
	f := buildDiamond(t)
	p := f.a.Ifaces()[0].Prefix // a-b subnet
	owners := f.res.Owners[p]
	if len(owners) != 2 {
		t.Fatalf("owners of %s = %d, want 2", p, len(owners))
	}
}

func TestEndToEndReachabilityAfterSPF(t *testing.T) {
	f := buildDiamond(t)
	// Attach a probing host at a.
	hp := netaddr.MustParsePrefix("10.8.0.0/30")
	vp := netsim.NewHost("vp", hp.Nth(2), hp)
	f.net.AddNode(vp)
	ai := f.a.AddIface("to-vp", hp.Nth(1), hp)
	f.net.Connect(ai, vp.If, time.Millisecond)
	// Recompute with the new stub subnet.
	dom := &Domain{Routers: []*router.Router{f.a, f.b, f.c, f.d}}
	if _, err := dom.Compute(); err != nil {
		t.Fatal(err)
	}

	var got *packet.Packet
	vp.Handler = func(net *netsim.Network, pkt *packet.Packet) { got = new(packet.Pool).Clone(pkt) }
	probe := &packet.Packet{
		IP:   packet.IPv4{TTL: 64, Protocol: packet.ProtoICMP, Src: vp.Addr(), Dst: f.host.Addr()},
		ICMP: &packet.ICMP{Type: packet.ICMPEchoRequest, ID: 5, Seq: 1},
	}
	f.net.Inject(vp.If, probe)
	if got == nil || got.ICMP.Type != packet.ICMPEchoReply {
		t.Fatalf("no echo reply across the domain: %v", got)
	}
	// Path: a, (b|c), d -> host; reply host(64) - 3 router hops = 61.
	if got.IP.TTL != 61 {
		t.Errorf("reply TTL = %d, want 61", got.IP.TTL)
	}
}

func TestLoopbackReachable(t *testing.T) {
	f := buildDiamond(t)
	_, rt, ok := f.a.LookupRoute(f.d.Loopback().Addr)
	if !ok || rt.Origin != router.OriginIGP {
		t.Fatalf("a's route to d.lo: %+v ok=%v", rt, ok)
	}
}

func TestCustomMetricShiftsPath(t *testing.T) {
	f := buildDiamond(t)
	// Make the a-b link expensive: all traffic a->d must go via c.
	abLink := f.a.Ifaces()[0].Link
	dom := &Domain{
		Routers: []*router.Router{f.a, f.b, f.c, f.d},
		Metric: func(l *netsim.Link) int {
			if l == abLink {
				return 10
			}
			return 1
		},
	}
	res, err := dom.Compute()
	if err != nil {
		t.Fatal(err)
	}
	hops := res.NextHops[f.a][f.d.Loopback().Prefix]
	if len(hops) != 1 || hops[0].Via != f.c {
		t.Fatalf("hops = %+v, want single path via c", hops)
	}
}

func TestNonPositiveMetricRejected(t *testing.T) {
	f := buildDiamond(t)
	dom := &Domain{
		Routers: []*router.Router{f.a, f.b, f.c, f.d},
		Metric:  func(*netsim.Link) int { return 0 },
	}
	if _, err := dom.Compute(); err == nil {
		t.Error("zero metric accepted")
	}
}

func TestDisconnectedRouterHasNoRoute(t *testing.T) {
	net := netsim.New()
	r1 := router.New("r1", router.Cisco, router.Config{})
	r2 := router.New("r2", router.Cisco, router.Config{})
	net.AddNode(r1)
	net.AddNode(r2)
	r1.SetLoopback(netaddr.MustParseAddr("192.168.5.1"))
	r2.SetLoopback(netaddr.MustParseAddr("192.168.5.2"))
	dom := &Domain{Routers: []*router.Router{r1, r2}}
	res, err := dom.Compute()
	if err != nil {
		t.Fatal(err)
	}
	if hops := res.NextHops[r1][r2.Loopback().Prefix]; len(hops) != 0 {
		t.Errorf("unexpected hops across disconnected routers: %+v", hops)
	}
	if _, _, ok := r1.LookupRoute(r2.Loopback().Addr); ok {
		t.Error("route installed toward unreachable router")
	}
}
