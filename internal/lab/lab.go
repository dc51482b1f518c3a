// Package lab builds two emulation testbeds, both chains of ASes wired by
// one builder. Build is the paper's GNS3 validation testbed (Fig. 2): a
// client AS1 (CE1, with the vantage point behind it), an MPLS transit AS2
// (PE1 - P1 - P2 - P3 - PE2 running LDP over an OSPF-like IGP), and a
// client AS3 (CE2). The four emulation scenarios of Sec. 3.3 are selected
// by Scenario; the expected traceroute outputs — including bracketed
// return TTLs — are the golden data of Fig. 4. BuildDouble puts two
// invisible MPLS transit ASes in sequence, the Sec. 7 case where a trace
// crosses several tunnels.
package lab

import (
	"fmt"
	"time"

	"wormhole/internal/bgp"
	"wormhole/internal/igp"
	"wormhole/internal/ldp"
	"wormhole/internal/netaddr"
	"wormhole/internal/netsim"
	"wormhole/internal/probe"
	"wormhole/internal/router"
)

// Scenario selects one of the paper's four MPLS configurations for AS2.
type Scenario int

const (
	// Default: PHP, ttl-propagate, LDP for all prefixes. Explicit tunnel.
	Default Scenario = iota
	// BackwardRecursive: Default minus ttl-propagate. Invisible tunnel
	// revealed hop-by-hop by BRPR.
	BackwardRecursive
	// ExplicitRoute: no ttl-propagate, LDP for loopbacks only (the
	// Juniper default). Internal targets follow pure IGP routes: DPR.
	ExplicitRoute
	// TotallyInvisible: no ttl-propagate plus UHP. Nothing to see.
	TotallyInvisible
)

func (s Scenario) String() string {
	switch s {
	case Default:
		return "default"
	case BackwardRecursive:
		return "backward-recursive"
	case ExplicitRoute:
		return "explicit-route"
	case TotallyInvisible:
		return "totally-invisible"
	default:
		return fmt.Sprintf("scenario-%d", int(s))
	}
}

// linkDelay is the one-way delay of every testbed link outside a
// TunnelDelay tunnel.
const linkDelay = time.Millisecond

// Options tunes the testbed build.
type Options struct {
	Scenario Scenario
	// AS2Personality is the OS of all AS2 routers (default Cisco).
	AS2Personality router.Personality
	// PE2Personality overrides the egress LER's OS (RTLA experiments use
	// Juniper here). Zero value means "same as AS2Personality".
	PE2Personality router.Personality
	// TunnelDelay, when non-zero, is used for the three links inside the
	// LSP (P1-P2, P2-P3, P3-PE2) instead of the 1 ms of every other link,
	// so delay-decomposition experiments (Fig. 6) see an interesting
	// profile.
	TunnelDelay time.Duration
}

// Lab is the built testbed.
type Lab struct {
	Net *netsim.Network
	VP  *netsim.Host

	CE1, PE1, P1, P2, P3, PE2, CE2 *router.Router

	// Named addresses from Fig. 2. "Left" is the side facing the VP.
	VPAddr  netaddr.Addr
	CE1Left netaddr.Addr
	PE1Left netaddr.Addr
	P1Left  netaddr.Addr
	P2Left  netaddr.Addr
	P3Left  netaddr.Addr
	PE2Left netaddr.Addr
	CE2Left netaddr.Addr
	CE2Lo   netaddr.Addr
	PE2Lo   netaddr.Addr

	Prober *probe.Prober
}

// Build constructs the testbed.
func Build(o Options) (*Lab, error) {
	if o.AS2Personality.Name == "" {
		o.AS2Personality = router.Cisco
	}
	if o.PE2Personality.Name == "" {
		o.PE2Personality = o.AS2Personality
	}
	if o.TunnelDelay == 0 {
		o.TunnelDelay = linkDelay
	}

	as2cfg := router.Config{MPLSEnabled: true}
	switch o.Scenario {
	case Default:
		as2cfg.TTLPropagate = true
		as2cfg.LDP = router.LDPAllPrefixes
	case BackwardRecursive:
		as2cfg.LDP = router.LDPAllPrefixes
	case ExplicitRoute:
		as2cfg.LDP = router.LDPHostRoutesOnly
	case TotallyInvisible:
		as2cfg.LDP = router.LDPAllPrefixes
		as2cfg.UHP = true
	default:
		return nil, fmt.Errorf("lab: unknown scenario %d", o.Scenario)
	}
	ipCfg := router.Config{TTLPropagate: true} // plain IP client routers
	as2 := o.AS2Personality

	c, err := buildChain([]chainAS{
		{1, []string{"10.1.0.0/30", "192.168.1.1/32"}, []chainRouter{{"CE1", router.Cisco, ipCfg, "192.168.1.1"}}},
		{2, []string{"10.2.0.0/16", "10.12.0.0/30", "10.23.0.0/30", "192.168.2.0/24"}, []chainRouter{
			{"PE1", as2, as2cfg, "192.168.2.1"},
			{"P1", as2, as2cfg, "192.168.2.2"},
			{"P2", as2, as2cfg, "192.168.2.3"},
			{"P3", as2, as2cfg, "192.168.2.4"},
			{"PE2", o.PE2Personality, as2cfg, "192.168.2.5"},
		}},
		{3, []string{"192.168.3.1/32"}, []chainRouter{{"CE2", router.Cisco, ipCfg, "192.168.3.1"}}},
	}, []chainLink{
		{"10.12.0.0/30", linkDelay},
		{"10.2.1.0/30", linkDelay},
		{"10.2.2.0/30", o.TunnelDelay},
		{"10.2.3.0/30", o.TunnelDelay},
		{"10.2.4.0/30", o.TunnelDelay},
		{"10.23.0.0/30", linkDelay},
	})
	if err != nil {
		return nil, err
	}
	r, left := c.routers, c.left
	return &Lab{
		Net: c.net, VP: c.vp, Prober: c.prober,
		CE1: r[0], PE1: r[1], P1: r[2], P2: r[3], P3: r[4], PE2: r[5], CE2: r[6],
		VPAddr:  c.vp.Addr(),
		CE1Left: left[0], PE1Left: left[1], P1Left: left[2], P2Left: left[3],
		P3Left: left[4], PE2Left: left[5], CE2Left: left[6],
		CE2Lo: r[6].Loopback().Addr,
		PE2Lo: r[5].Loopback().Addr,
	}, nil
}

// MustBuild is Build for tests and examples.
func MustBuild(o Options) *Lab {
	l, err := Build(o)
	if err != nil {
		panic(err)
	}
	return l
}

// chainAS is one AS of a chain testbed: its number, the prefixes it
// announces, and its routers in path order.
type chainAS struct {
	num      uint32
	prefixes []string
	routers  []chainRouter
}

// chainRouter is one router of a chainAS.
type chainRouter struct {
	name string
	os   router.Personality
	cfg  router.Config
	lo   string
}

// chainLink is the /30 and one-way delay of the link joining two routers
// adjacent on the path.
type chainLink struct {
	prefix string
	delay  time.Duration
}

// chain is a built chain testbed.
type chain struct {
	net     *netsim.Network
	vp      *netsim.Host
	prober  *probe.Prober
	routers []*router.Router // in path order
	left    []netaddr.Addr   // each router's address facing the VP
}

// buildChain builds a testbed whose ASes, given in path order, form one
// chain away from the vantage point. links[i] joins the i-th and
// (i+1)-th routers of the path, numbered .1 on the left router's "right"
// interface and .2 on the right router's "left" one; the VP hangs off
// the first router on 10.1.0.0/30. Each AS converges its IGP, plus LDP
// when it runs MPLS. In BGP the two end ASes are customers of their
// neighbours, and interior neighbours peer.
func buildChain(ases []chainAS, links []chainLink) (*chain, error) {
	net := netsim.New()
	c := &chain{net: net}
	for _, as := range ases {
		for _, cr := range as.routers {
			r := router.New(cr.name, cr.os, cr.cfg)
			r.SetLoopback(netaddr.MustParseAddr(cr.lo))
			net.AddNode(r)
			c.routers = append(c.routers, r)
		}
	}
	leftIf := make([]*netsim.Iface, len(c.routers))
	rightIf := make([]*netsim.Iface, len(c.routers))
	for i, ln := range links {
		p := netaddr.MustParsePrefix(ln.prefix)
		rightIf[i] = c.routers[i].AddIface("right", p.Nth(1), p)
		leftIf[i+1] = c.routers[i+1].AddIface("left", p.Nth(2), p)
		net.Connect(rightIf[i], leftIf[i+1], ln.delay)
	}
	vpP := netaddr.MustParsePrefix("10.1.0.0/30")
	c.vp = netsim.NewHost("VP", vpP.Nth(1), vpP)
	net.AddNode(c.vp)
	leftIf[0] = c.routers[0].AddIface("left", vpP.Nth(2), vpP)
	net.Connect(c.vp.If, leftIf[0], linkDelay)
	for _, ifc := range leftIf {
		c.left = append(c.left, ifc.Addr)
	}
	if err := checkAddrs(c.routers, c.vp); err != nil {
		return nil, err
	}

	topo := &bgp.Topology{}
	first := 0 // path index of the AS's first router
	for i, as := range ases {
		end := first + len(as.routers)
		routers := c.routers[first:end:end]
		spf, err := (&igp.Domain{Routers: routers}).Compute()
		if err != nil {
			return nil, err
		}
		if routers[0].Config().MPLSEnabled {
			ldp.Build(routers, spf)
		}
		var ps []netaddr.Prefix
		for _, s := range as.prefixes {
			ps = append(ps, netaddr.MustParsePrefix(s))
		}
		topo.ASes = append(topo.ASes, &bgp.AS{Num: as.num, Routers: routers, Prefixes: ps, SPF: spf})
		if i > 0 {
			// The session over the link joining this AS to the previous one.
			a, b := first-1, first
			s := &bgp.Session{A: c.routers[a], B: c.routers[b], AIf: rightIf[a], BIf: leftIf[b], Rel: bgp.APeerOfB}
			switch i {
			case 1:
				s.Rel = bgp.ACustomerOfB
			case len(ases) - 1:
				s = &bgp.Session{A: c.routers[b], B: c.routers[a], AIf: leftIf[b], BIf: rightIf[a], Rel: bgp.ACustomerOfB}
			}
			topo.Sessions = append(topo.Sessions, s)
		}
		first = end
	}
	if err := bgp.Compute(topo); err != nil {
		return nil, err
	}
	c.prober = probe.New(net, c.vp)
	return c, nil
}

// checkAddrs rejects a testbed that binds one address twice: the
// routers' interfaces and loopbacks and the vantage point's interface
// must all differ.
func checkAddrs(routers []*router.Router, vp *netsim.Host) error {
	owner := map[netaddr.Addr]*netsim.Iface{vp.If.Addr: vp.If}
	for _, r := range routers {
		ifs := r.Ifaces()
		if lo := r.Loopback(); lo != nil {
			ifs = append(ifs[:len(ifs):len(ifs)], lo)
		}
		for _, ifc := range ifs {
			if prev, dup := owner[ifc.Addr]; dup {
				return fmt.Errorf("lab: address %s bound to %s and %s", ifc.Addr, prev, ifc)
			}
			owner[ifc.Addr] = ifc
		}
	}
	return nil
}
