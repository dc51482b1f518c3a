// Package lab builds the paper's GNS3 validation testbed (Fig. 2): a
// client AS1 (CE1, with the vantage point behind it), an MPLS transit AS2
// (PE1 - P1 - P2 - P3 - PE2 running LDP over an OSPF-like IGP), and a
// client AS3 (CE2). The four emulation scenarios of Sec. 3.3 are selected
// by Scenario; the expected traceroute outputs — including bracketed
// return TTLs — are the golden data of Fig. 4.
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

// Options tunes the testbed build.
type Options struct {
	Scenario Scenario
	// AS2Personality is the OS of all AS2 routers (default Cisco).
	AS2Personality router.Personality
	// PE2Personality overrides the egress LER's OS (RTLA experiments use
	// Juniper here). Zero value means "same as AS2Personality".
	PE2Personality router.Personality
	// LinkDelay is the one-way delay of every link (default 1ms).
	LinkDelay time.Duration
	// TunnelDelay, when non-zero, is used for the three links inside the
	// LSP (P1-P2, P2-P3, P3-PE2) instead of LinkDelay, so
	// delay-decomposition experiments (Fig. 6) see an interesting profile.
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
	PE1Lo   netaddr.Addr

	Prober *probe.Prober
	SPF2   *igp.Result
}

// Build constructs the testbed.
func Build(o Options) (*Lab, error) {
	if o.AS2Personality.Name == "" {
		o.AS2Personality = router.Cisco
	}
	if o.PE2Personality.Name == "" {
		o.PE2Personality = o.AS2Personality
	}
	if o.LinkDelay == 0 {
		o.LinkDelay = time.Millisecond
	}
	if o.TunnelDelay == 0 {
		o.TunnelDelay = o.LinkDelay
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

	net := netsim.New()
	l := &Lab{Net: net}

	l.CE1 = router.New("CE1", router.Cisco, ipCfg)
	l.PE1 = router.New("PE1", o.AS2Personality, as2cfg)
	l.P1 = router.New("P1", o.AS2Personality, as2cfg)
	l.P2 = router.New("P2", o.AS2Personality, as2cfg)
	l.P3 = router.New("P3", o.AS2Personality, as2cfg)
	l.PE2 = router.New("PE2", o.PE2Personality, as2cfg)
	l.CE2 = router.New("CE2", router.Cisco, ipCfg)
	routers := []*router.Router{l.CE1, l.PE1, l.P1, l.P2, l.P3, l.PE2, l.CE2}
	for _, r := range routers {
		net.AddNode(r)
	}

	// Loopbacks.
	l.CE1.SetLoopback(netaddr.MustParseAddr("192.168.1.1"))
	l.PE1.SetLoopback(netaddr.MustParseAddr("192.168.2.1"))
	l.P1.SetLoopback(netaddr.MustParseAddr("192.168.2.2"))
	l.P2.SetLoopback(netaddr.MustParseAddr("192.168.2.3"))
	l.P3.SetLoopback(netaddr.MustParseAddr("192.168.2.4"))
	l.PE2.SetLoopback(netaddr.MustParseAddr("192.168.2.5"))
	l.CE2.SetLoopback(netaddr.MustParseAddr("192.168.3.1"))
	l.PE1Lo = l.PE1.Loopback().Addr
	l.PE2Lo = l.PE2.Loopback().Addr
	l.CE2Lo = l.CE2.Loopback().Addr

	type wire struct {
		a, b         *router.Router
		aName, bName string
		prefix       string
		delay        time.Duration
	}
	wires := []wire{
		{l.CE1, l.PE1, "right", "left", "10.12.0.0/30", o.LinkDelay},
		{l.PE1, l.P1, "right", "left", "10.2.1.0/30", o.LinkDelay},
		{l.P1, l.P2, "right", "left", "10.2.2.0/30", o.TunnelDelay},
		{l.P2, l.P3, "right", "left", "10.2.3.0/30", o.TunnelDelay},
		{l.P3, l.PE2, "right", "left", "10.2.4.0/30", o.TunnelDelay},
		{l.PE2, l.CE2, "right", "left", "10.23.0.0/30", o.LinkDelay},
	}
	ifaces := map[string]*netsim.Iface{}
	for _, w := range wires {
		p := netaddr.MustParsePrefix(w.prefix)
		ai := w.a.AddIface(w.aName, p.Nth(1), p)
		bi := w.b.AddIface(w.bName, p.Nth(2), p)
		net.Connect(ai, bi, w.delay)
		ifaces[w.a.Name()+"."+w.aName] = ai
		ifaces[w.b.Name()+"."+w.bName] = bi
	}

	// The vantage point hangs off CE1's left side.
	vpPrefix := netaddr.MustParsePrefix("10.1.0.0/30")
	l.VP = netsim.NewHost("VP", vpPrefix.Nth(1), vpPrefix)
	net.AddNode(l.VP)
	ce1Left := l.CE1.AddIface("left", vpPrefix.Nth(2), vpPrefix)
	net.Connect(l.VP.If, ce1Left, o.LinkDelay)
	ifaces["CE1.left"] = ce1Left

	l.VPAddr = l.VP.Addr()
	l.CE1Left = ce1Left.Addr
	l.PE1Left = ifaces["PE1.left"].Addr
	l.P1Left = ifaces["P1.left"].Addr
	l.P2Left = ifaces["P2.left"].Addr
	l.P3Left = ifaces["P3.left"].Addr
	l.PE2Left = ifaces["PE2.left"].Addr
	l.CE2Left = ifaces["CE2.left"].Addr

	if err := checkAddrs(routers, l.VP); err != nil {
		return nil, err
	}

	// IGPs.
	dom1 := &igp.Domain{Routers: []*router.Router{l.CE1}}
	spf1, err := dom1.Compute()
	if err != nil {
		return nil, err
	}
	dom2 := &igp.Domain{Routers: []*router.Router{l.PE1, l.P1, l.P2, l.P3, l.PE2}}
	spf2, err := dom2.Compute()
	if err != nil {
		return nil, err
	}
	l.SPF2 = spf2
	dom3 := &igp.Domain{Routers: []*router.Router{l.CE2}}
	spf3, err := dom3.Compute()
	if err != nil {
		return nil, err
	}

	// LDP inside AS2.
	ldp.Build(dom2.Routers, spf2)

	// BGP.
	as1 := &bgp.AS{Num: 1, Routers: dom1.Routers, SPF: spf1,
		Prefixes: []netaddr.Prefix{
			netaddr.MustParsePrefix("10.1.0.0/30"),
			netaddr.MustParsePrefix("192.168.1.1/32"),
		}}
	as2 := &bgp.AS{Num: 2, Routers: dom2.Routers, SPF: spf2,
		Prefixes: []netaddr.Prefix{
			netaddr.MustParsePrefix("10.2.0.0/16"),
			netaddr.MustParsePrefix("10.12.0.0/30"),
			netaddr.MustParsePrefix("10.23.0.0/30"),
			netaddr.MustParsePrefix("192.168.2.0/24"),
		}}
	as3 := &bgp.AS{Num: 3, Routers: dom3.Routers, SPF: spf3,
		Prefixes: []netaddr.Prefix{netaddr.MustParsePrefix("192.168.3.1/32")}}
	topo := &bgp.Topology{
		ASes: []*bgp.AS{as1, as2, as3},
		Sessions: []*bgp.Session{
			{A: l.CE1, B: l.PE1, AIf: ifaces["CE1.right"], BIf: ifaces["PE1.left"], Rel: bgp.ACustomerOfB},
			{A: l.CE2, B: l.PE2, AIf: ifaces["CE2.left"], BIf: ifaces["PE2.right"], Rel: bgp.ACustomerOfB},
		},
	}
	if err := bgp.Compute(topo); err != nil {
		return nil, err
	}

	l.Prober = probe.New(net, l.VP)
	return l, nil
}

// MustBuild is Build for tests and examples.
func MustBuild(o Options) *Lab {
	l, err := Build(o)
	if err != nil {
		panic(err)
	}
	return l
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
