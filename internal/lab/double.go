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

// DoubleLab is a testbed with two MPLS transit ASes in sequence:
//
//	VP - CE1 | PE1a - P1a - P2a - PE2a | PE1b - P1b - P2b - PE2b | CE2
//	   AS1   |          AS2 (MPLS)     |          AS3 (MPLS)     | AS4
//
// A trace to CE2 crosses two invisible tunnels. The paper's Sec. 4
// campaign heuristic (last three hops X, Y, D) only reveals the final
// one — the limitation it acknowledges in Sec. 7 when discussing path
// length underestimation — while the TNT-style augmented traceroute
// triggers on every hop pair and recovers both.
type DoubleLab struct {
	Net *netsim.Network
	VP  *netsim.Host

	// A-side (first transit AS) and B-side (second) routers.
	CE1, PE1a, P1a, P2a, PE2a *router.Router
	PE1b, P1b, P2b, PE2b      *router.Router
	CE2                       *router.Router

	CE1Left  netaddr.Addr
	PE1aLeft netaddr.Addr
	P1aLeft  netaddr.Addr
	P2aLeft  netaddr.Addr
	PE2aLeft netaddr.Addr
	PE1bLeft netaddr.Addr
	P1bLeft  netaddr.Addr
	P2bLeft  netaddr.Addr
	PE2bLeft netaddr.Addr
	CE2Left  netaddr.Addr

	Prober *probe.Prober
}

// BuildDouble constructs the two-tunnel testbed; both transit ASes run
// invisible LDP tunnels (all-prefix, no ttl-propagate, PHP).
func BuildDouble() (*DoubleLab, error) {
	net := netsim.New()
	l := &DoubleLab{Net: net}

	mplsCfg := router.Config{MPLSEnabled: true, LDP: router.LDPAllPrefixes}
	ipCfg := router.Config{TTLPropagate: true}

	mk := func(name string, cfg router.Config, lo string) *router.Router {
		r := router.New(name, router.Cisco, cfg)
		r.SetLoopback(netaddr.MustParseAddr(lo))
		net.AddNode(r)
		return r
	}
	l.CE1 = mk("CE1", ipCfg, "192.168.1.1")
	l.PE1a = mk("PE1a", mplsCfg, "192.168.2.1")
	l.P1a = mk("P1a", mplsCfg, "192.168.2.2")
	l.P2a = mk("P2a", mplsCfg, "192.168.2.3")
	l.PE2a = mk("PE2a", mplsCfg, "192.168.2.4")
	l.PE1b = mk("PE1b", mplsCfg, "192.168.3.1")
	l.P1b = mk("P1b", mplsCfg, "192.168.3.2")
	l.P2b = mk("P2b", mplsCfg, "192.168.3.3")
	l.PE2b = mk("PE2b", mplsCfg, "192.168.3.4")
	l.CE2 = mk("CE2", ipCfg, "192.168.4.1")

	type wire struct {
		a, b   *router.Router
		prefix string
	}
	wires := []wire{
		{l.CE1, l.PE1a, "10.12.0.0/30"},
		{l.PE1a, l.P1a, "10.2.1.0/30"},
		{l.P1a, l.P2a, "10.2.2.0/30"},
		{l.P2a, l.PE2a, "10.2.3.0/30"},
		{l.PE2a, l.PE1b, "10.23.0.0/30"},
		{l.PE1b, l.P1b, "10.3.1.0/30"},
		{l.P1b, l.P2b, "10.3.2.0/30"},
		{l.P2b, l.PE2b, "10.3.3.0/30"},
		{l.PE2b, l.CE2, "10.34.0.0/30"},
	}
	left := map[*router.Router]netaddr.Addr{}
	ifaces := map[[2]*router.Router]*netsim.Iface{}
	for _, w := range wires {
		p := netaddr.MustParsePrefix(w.prefix)
		ai := w.a.AddIface("to-"+w.b.Name(), p.Nth(1), p)
		bi := w.b.AddIface("to-"+w.a.Name(), p.Nth(2), p)
		net.Connect(ai, bi, time.Millisecond)
		ifaces[[2]*router.Router{w.a, w.b}] = ai
		ifaces[[2]*router.Router{w.b, w.a}] = bi
		left[w.b] = bi.Addr // the side facing the VP
	}

	vpP := netaddr.MustParsePrefix("10.1.0.0/30")
	l.VP = netsim.NewHost("VP", vpP.Nth(1), vpP)
	net.AddNode(l.VP)
	ce1Left := l.CE1.AddIface("left", vpP.Nth(2), vpP)
	net.Connect(l.VP.If, ce1Left, time.Millisecond)

	l.CE1Left = ce1Left.Addr
	l.PE1aLeft = left[l.PE1a]
	l.P1aLeft = left[l.P1a]
	l.P2aLeft = left[l.P2a]
	l.PE2aLeft = left[l.PE2a]
	l.PE1bLeft = left[l.PE1b]
	l.P1bLeft = left[l.P1b]
	l.P2bLeft = left[l.P2b]
	l.PE2bLeft = left[l.PE2b]
	l.CE2Left = left[l.CE2]

	all := []*router.Router{l.CE1, l.PE1a, l.P1a, l.P2a, l.PE2a, l.PE1b, l.P1b, l.P2b, l.PE2b, l.CE2}
	if err := checkAddrs(all, l.VP); err != nil {
		return nil, err
	}

	// IGPs + LDP per AS.
	mkAS := func(num uint32, prefixes []string, routers ...*router.Router) (*bgp.AS, error) {
		dom := &igp.Domain{Routers: routers}
		spf, err := dom.Compute()
		if err != nil {
			return nil, err
		}
		if routers[0].Config().MPLSEnabled {
			ldp.Build(routers, spf)
		}
		var ps []netaddr.Prefix
		for _, s := range prefixes {
			ps = append(ps, netaddr.MustParsePrefix(s))
		}
		return &bgp.AS{Num: num, Routers: routers, Prefixes: ps, SPF: spf}, nil
	}
	as1, err := mkAS(1, []string{"10.1.0.0/30", "192.168.1.1/32"}, l.CE1)
	if err != nil {
		return nil, err
	}
	as2, err := mkAS(2, []string{"10.2.0.0/16", "10.12.0.0/30", "192.168.2.0/24"}, l.PE1a, l.P1a, l.P2a, l.PE2a)
	if err != nil {
		return nil, err
	}
	as3, err := mkAS(3, []string{"10.3.0.0/16", "10.23.0.0/30", "10.34.0.0/30", "192.168.3.0/24"}, l.PE1b, l.P1b, l.P2b, l.PE2b)
	if err != nil {
		return nil, err
	}
	as4, err := mkAS(4, []string{"192.168.4.1/32"}, l.CE2)
	if err != nil {
		return nil, err
	}

	topo := &bgp.Topology{
		ASes: []*bgp.AS{as1, as2, as3, as4},
		Sessions: []*bgp.Session{
			{A: l.CE1, B: l.PE1a, AIf: ifaces[[2]*router.Router{l.CE1, l.PE1a}], BIf: ifaces[[2]*router.Router{l.PE1a, l.CE1}], Rel: bgp.ACustomerOfB},
			{A: l.PE2a, B: l.PE1b, AIf: ifaces[[2]*router.Router{l.PE2a, l.PE1b}], BIf: ifaces[[2]*router.Router{l.PE1b, l.PE2a}], Rel: bgp.APeerOfB},
			{A: l.CE2, B: l.PE2b, AIf: ifaces[[2]*router.Router{l.CE2, l.PE2b}], BIf: ifaces[[2]*router.Router{l.PE2b, l.CE2}], Rel: bgp.ACustomerOfB},
		},
	}
	if err := bgp.Compute(topo); err != nil {
		return nil, err
	}
	l.Prober = probe.New(net, l.VP)
	return l, nil
}

// MustBuildDouble is BuildDouble for tests and examples.
func MustBuildDouble() *DoubleLab {
	l, err := BuildDouble()
	if err != nil {
		panic(fmt.Sprintf("lab: %v", err))
	}
	return l
}
