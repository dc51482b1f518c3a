package bgp

import (
	"testing"
	"time"

	"wormhole/internal/igp"
	"wormhole/internal/netaddr"
	"wormhole/internal/netsim"
	"wormhole/internal/router"
)

// miniNet builds single-router ASes and eBGP sessions between them.
type miniNet struct {
	net  *netsim.Network
	ases map[string]*AS
	rs   map[string]*router.Router
	topo *Topology
	sub  int
}

func newMiniNet(t *testing.T) *miniNet {
	t.Helper()
	return &miniNet{
		net:  netsim.New(5),
		ases: map[string]*AS{},
		rs:   map[string]*router.Router{},
		topo: &Topology{},
	}
}

func (m *miniNet) addAS(t *testing.T, name string, num uint32) {
	t.Helper()
	r := router.New(name, router.Cisco, router.Config{TTLPropagate: true})
	r.SetASN(num)
	lo := netaddr.AddrFrom4(192, 168, byte(num), byte(1+len(m.rs)))
	r.SetLoopback(lo)
	m.net.AddNode(r)
	if err := m.net.RegisterIface(r.Loopback()); err != nil {
		t.Fatal(err)
	}
	m.rs[name] = r
	as := &AS{
		Num:      num,
		Routers:  []*router.Router{r},
		Prefixes: []netaddr.Prefix{netaddr.HostPrefix(lo)},
	}
	m.ases[name] = as
	m.topo.ASes = append(m.topo.ASes, as)
}

func (m *miniNet) link(t *testing.T, a, b string, rel Relationship) {
	t.Helper()
	p, err := netaddr.PrefixFrom(netaddr.AddrFrom4(10, 99, byte(m.sub), 0), 30)
	if err != nil {
		t.Fatal(err)
	}
	m.sub++
	ra, rb := m.rs[a], m.rs[b]
	ai := ra.AddIface("to-"+b, p.Nth(1), p)
	bi := rb.AddIface("to-"+a, p.Nth(2), p)
	m.net.Connect(ai, bi, time.Millisecond)
	for _, ifc := range []*netsim.Iface{ai, bi} {
		if err := m.net.RegisterIface(ifc); err != nil {
			t.Fatal(err)
		}
	}
	m.topo.Sessions = append(m.topo.Sessions, &Session{A: ra, B: rb, AIf: ai, BIf: bi, Rel: rel})
}

func (m *miniNet) compute(t *testing.T) {
	t.Helper()
	for _, as := range m.topo.ASes {
		dom := &igp.Domain{Routers: as.Routers}
		spf, err := dom.Compute()
		if err != nil {
			t.Fatal(err)
		}
		as.SPF = spf
	}
	if err := Compute(m.topo); err != nil {
		t.Fatal(err)
	}
}

// route returns the next-hop gateway of r's route toward the named AS's
// loopback prefix.
func (m *miniNet) route(t *testing.T, from, toAS string) (*router.Route, bool) {
	t.Helper()
	lo := m.rs[toAS].Loopback().Addr
	_, rt, ok := m.rs[from].LookupRoute(lo)
	return rt, ok
}

func TestCustomerRouteViaProvider(t *testing.T) {
	m := newMiniNet(t)
	m.addAS(t, "a", 1)
	m.addAS(t, "b", 2)
	m.addAS(t, "c", 3)
	m.link(t, "a", "b", ACustomerOfB) // a buys from b
	m.link(t, "c", "b", ACustomerOfB) // c buys from b
	m.compute(t)

	if rt, ok := m.route(t, "a", "c"); !ok || rt.Origin != router.OriginBGP {
		t.Fatalf("a has no BGP route to c: %+v %v", rt, ok)
	}
	if rt, ok := m.route(t, "c", "a"); !ok || rt.Origin != router.OriginBGP {
		t.Fatalf("c has no BGP route to a: %+v %v", rt, ok)
	}
}

func TestValleyFreeBlocksPeerPeerPeer(t *testing.T) {
	// t1a -- t1b -- t1c all peers; customer a under t1a, customer c under
	// t1c. a can reach c only if a single peer link suffices: path
	// a->t1a->t1b->t1c->c uses two peer links and must be rejected.
	m := newMiniNet(t)
	for i, n := range []string{"t1a", "t1b", "t1c", "a", "c"} {
		m.addAS(t, n, uint32(i+1))
	}
	m.link(t, "t1a", "t1b", APeerOfB)
	m.link(t, "t1b", "t1c", APeerOfB)
	m.link(t, "a", "t1a", ACustomerOfB)
	m.link(t, "c", "t1c", ACustomerOfB)
	m.compute(t)

	if _, ok := m.route(t, "a", "c"); ok {
		t.Error("valley-free violation: a reached c across two peer links")
	}
	// Direct peering makes it reachable.
	m.link(t, "t1a", "t1c", APeerOfB)
	m.compute(t)
	if _, ok := m.route(t, "a", "c"); !ok {
		t.Error("a cannot reach c despite a valid customer-peer-customer path")
	}
}

func TestCustomerPreferredOverPeer(t *testing.T) {
	// dst is both a customer of x and a peer of x: x must use the
	// customer route even if equal length.
	m := newMiniNet(t)
	m.addAS(t, "x", 1)
	m.addAS(t, "dst", 2)
	m.link(t, "dst", "x", ACustomerOfB) // dst is customer of x
	m.link(t, "x", "dst", APeerOfB)     // and also a peer (dual relationship)
	m.compute(t)
	rt, ok := m.route(t, "x", "dst")
	if !ok {
		t.Fatal("no route")
	}
	// The customer session was declared first; with classCustomer
	// preferred the next hop must be the first (customer) link's address.
	gw := rt.NextHops[0].Gateway
	want := m.topo.Sessions[0].AIf.Addr // dst side of the customer session
	if gw != want {
		t.Errorf("next hop %s, want customer-link %s", gw, want)
	}
}

func TestProviderRouteAsLastResort(t *testing.T) {
	// a -- p (provider) -- dst(customer of p): a reaches dst via provider.
	m := newMiniNet(t)
	m.addAS(t, "a", 1)
	m.addAS(t, "p", 2)
	m.addAS(t, "dst", 3)
	m.link(t, "a", "p", ACustomerOfB)
	m.link(t, "dst", "p", ACustomerOfB)
	m.compute(t)
	if _, ok := m.route(t, "a", "dst"); !ok {
		t.Fatal("no provider route")
	}
}

func TestConnectedRouteNotShadowed(t *testing.T) {
	m := newMiniNet(t)
	m.addAS(t, "a", 1)
	m.addAS(t, "b", 2)
	m.link(t, "a", "b", ACustomerOfB)
	// b announces the shared link subnet itself.
	linkPrefix := m.rs["a"].Ifaces()[0].Prefix
	m.ases["b"].Prefixes = append(m.ases["b"].Prefixes, linkPrefix)
	m.compute(t)
	rt, ok := m.rs["a"].GetRoute(linkPrefix)
	if !ok || rt.Origin != router.OriginConnected {
		t.Errorf("connected route shadowed by BGP: %+v", rt)
	}
}

func TestDuplicateASNRejected(t *testing.T) {
	m := newMiniNet(t)
	m.addAS(t, "a", 1)
	m.addAS(t, "b", 1) // duplicate number
	m.link(t, "a", "b", APeerOfB)
	for _, as := range m.topo.ASes {
		dom := &igp.Domain{Routers: as.Routers}
		spf, err := dom.Compute()
		if err != nil {
			t.Fatal(err)
		}
		as.SPF = spf
	}
	if err := Compute(m.topo); err == nil {
		t.Error("duplicate ASN accepted")
	}
}

func TestIntraASSessionRejected(t *testing.T) {
	m := newMiniNet(t)
	m.addAS(t, "a", 1)
	r2 := router.New("a2", router.Cisco, router.Config{})
	r2.SetASN(1)
	m.ases["a"].Routers = append(m.ases["a"].Routers, r2)
	m.rs["a2"] = r2
	m.net.AddNode(r2)
	m.link(t, "a", "a2", APeerOfB)
	for _, as := range m.topo.ASes {
		dom := &igp.Domain{Routers: as.Routers}
		spf, err := dom.Compute()
		if err != nil {
			t.Fatal(err)
		}
		as.SPF = spf
	}
	if err := Compute(m.topo); err == nil {
		t.Error("intra-AS session accepted")
	}
}

func TestMissingSPFRejected(t *testing.T) {
	m := newMiniNet(t)
	m.addAS(t, "a", 1)
	if err := Compute(m.topo); err == nil {
		t.Error("AS without SPF accepted")
	}
}

func TestHotPotatoPicksNearestEgress(t *testing.T) {
	// AS x has two routers r1 (border to provider p1) and r2 (border to
	// provider p2); a destination reachable via both providers must exit
	// each router's nearest border: r1 via itself, r2 via itself.
	net := netsim.New(9)
	mkRouter := func(name string, asn uint32, lo netaddr.Addr) *router.Router {
		r := router.New(name, router.Cisco, router.Config{TTLPropagate: true})
		r.SetASN(asn)
		r.SetLoopback(lo)
		net.AddNode(r)
		if err := net.RegisterIface(r.Loopback()); err != nil {
			t.Fatal(err)
		}
		return r
	}
	r1 := mkRouter("r1", 1, netaddr.MustParseAddr("192.168.1.1"))
	r2 := mkRouter("r2", 1, netaddr.MustParseAddr("192.168.1.2"))
	p1 := mkRouter("p1", 2, netaddr.MustParseAddr("192.168.2.1"))
	p2 := mkRouter("p2", 3, netaddr.MustParseAddr("192.168.3.1"))
	dst := mkRouter("dst", 4, netaddr.MustParseAddr("192.168.4.1"))

	sub := 0
	wire := func(a, b *router.Router) (ai, bi *netsim.Iface) {
		p, err := netaddr.PrefixFrom(netaddr.AddrFrom4(10, 77, byte(sub), 0), 30)
		if err != nil {
			t.Fatal(err)
		}
		sub++
		ai = a.AddIface("to-"+b.Name(), p.Nth(1), p)
		bi = b.AddIface("to-"+a.Name(), p.Nth(2), p)
		net.Connect(ai, bi, time.Millisecond)
		for _, ifc := range []*netsim.Iface{ai, bi} {
			if err := net.RegisterIface(ifc); err != nil {
				t.Fatal(err)
			}
		}
		return ai, bi
	}
	wire(r1, r2) // intra-AS link
	a1, b1 := wire(r1, p1)
	a2, b2 := wire(r2, p2)
	a3, b3 := wire(dst, p1)
	a4, b4 := wire(dst, p2)

	mkAS := func(num uint32, routers ...*router.Router) *AS {
		dom := &igp.Domain{Routers: routers}
		spf, err := dom.Compute()
		if err != nil {
			t.Fatal(err)
		}
		return &AS{Num: num, Routers: routers, SPF: spf,
			Prefixes: []netaddr.Prefix{netaddr.HostPrefix(routers[0].Loopback().Addr)}}
	}
	asX := mkAS(1, r1, r2)
	asP1 := mkAS(2, p1)
	asP2 := mkAS(3, p2)
	asD := mkAS(4, dst)
	topo := &Topology{
		ASes: []*AS{asX, asP1, asP2, asD},
		Sessions: []*Session{
			{A: r1, B: p1, AIf: a1, BIf: b1, Rel: ACustomerOfB},
			{A: r2, B: p2, AIf: a2, BIf: b2, Rel: ACustomerOfB},
			{A: dst, B: p1, AIf: a3, BIf: b3, Rel: ACustomerOfB},
			{A: dst, B: p2, AIf: a4, BIf: b4, Rel: ACustomerOfB},
		},
	}
	if err := Compute(topo); err != nil {
		t.Fatal(err)
	}
	// r1 exits via p1 (itself a border), r2 via p2.
	_, rt1, ok := r1.LookupRoute(dst.Loopback().Addr)
	if !ok || rt1.NextHops[0].Gateway != b1.Addr {
		t.Errorf("r1 exit = %+v, want via p1 (%s)", rt1, b1.Addr)
	}
	_, rt2, ok := r2.LookupRoute(dst.Loopback().Addr)
	if !ok || rt2.NextHops[0].Gateway != b2.Addr {
		t.Errorf("r2 exit = %+v, want via p2 (%s)", rt2, b2.Addr)
	}
}

// TestTwoProviderStub has a stub buying from two providers that peer with
// each other, and a destination behind only the second. The stub holds
// two provider-class routes, [p2 dst] and [p1 p2 dst], and must take the
// shorter one whatever order the sessions were declared in. Both
// providers must carry a route to the stub, each over its own customer
// session rather than across the peering.
func TestTwoProviderStub(t *testing.T) {
	m := newMiniNet(t)
	for i, n := range []string{"s", "p1", "p2", "dst"} {
		m.addAS(t, n, uint32(i+1))
	}
	m.link(t, "s", "p1", ACustomerOfB)
	m.link(t, "s", "p2", ACustomerOfB)
	m.link(t, "p1", "p2", APeerOfB)
	m.link(t, "dst", "p2", ACustomerOfB)
	m.compute(t)

	rt, ok := m.route(t, "s", "dst")
	if !ok || rt.Origin != router.OriginBGP {
		t.Fatalf("s has no BGP route to dst: %+v %v", rt, ok)
	}
	if gw, want := rt.NextHops[0].Gateway, m.topo.Sessions[1].BIf.Addr; gw != want {
		t.Errorf("s exits via %s, want p2's side of the s-p2 link %s", gw, want)
	}
	for i, p := range []string{"p1", "p2"} {
		rt, ok := m.route(t, p, "s")
		if !ok {
			t.Errorf("%s has no route to its customer s", p)
			continue
		}
		if gw, want := rt.NextHops[0].Gateway, m.topo.Sessions[i].AIf.Addr; gw != want {
			t.Errorf("%s reaches s via %s, want its customer link %s", p, gw, want)
		}
	}
}

// TestBestPathOrdering pins the selection order: route class first, then
// AS-path length within the class. x hears dst over a direct peering
// (path length 1), through customer c2 and its customer m (length 3),
// and through customer c1 (length 2). The customer class beats the
// shorter peer route, and within it the shorter path via c1 wins. The
// sessions are declared losers first, so declaration order cannot pick
// the winner.
func TestBestPathOrdering(t *testing.T) {
	m := newMiniNet(t)
	for i, n := range []string{"x", "c1", "c2", "m", "dst"} {
		m.addAS(t, n, uint32(i+1))
	}
	m.link(t, "x", "dst", APeerOfB)
	m.link(t, "c2", "x", ACustomerOfB)
	m.link(t, "m", "c2", ACustomerOfB)
	m.link(t, "dst", "m", ACustomerOfB)
	m.link(t, "c1", "x", ACustomerOfB)
	m.link(t, "dst", "c1", ACustomerOfB)
	m.compute(t)

	rt, ok := m.route(t, "x", "dst")
	if !ok || rt.Origin != router.OriginBGP {
		t.Fatalf("x has no BGP route to dst: %+v %v", rt, ok)
	}
	if gw, want := rt.NextHops[0].Gateway, m.topo.Sessions[4].AIf.Addr; gw != want {
		t.Errorf("x exits via %s, want c1's side of the c1-x link %s", gw, want)
	}
}
