package lab

import (
	"fmt"

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
	mpls := router.Config{MPLSEnabled: true, LDP: router.LDPAllPrefixes}
	ip := router.Config{TTLPropagate: true}
	cisco := func(name string, cfg router.Config, lo string) chainRouter {
		return chainRouter{name, router.Cisco, cfg, lo}
	}
	c, err := buildChain([]chainAS{
		{1, []string{"10.1.0.0/30", "192.168.1.1/32"}, []chainRouter{cisco("CE1", ip, "192.168.1.1")}},
		{2, []string{"10.2.0.0/16", "10.12.0.0/30", "192.168.2.0/24"}, []chainRouter{
			cisco("PE1a", mpls, "192.168.2.1"),
			cisco("P1a", mpls, "192.168.2.2"),
			cisco("P2a", mpls, "192.168.2.3"),
			cisco("PE2a", mpls, "192.168.2.4"),
		}},
		{3, []string{"10.3.0.0/16", "10.23.0.0/30", "10.34.0.0/30", "192.168.3.0/24"}, []chainRouter{
			cisco("PE1b", mpls, "192.168.3.1"),
			cisco("P1b", mpls, "192.168.3.2"),
			cisco("P2b", mpls, "192.168.3.3"),
			cisco("PE2b", mpls, "192.168.3.4"),
		}},
		{4, []string{"192.168.4.1/32"}, []chainRouter{cisco("CE2", ip, "192.168.4.1")}},
	}, []chainLink{
		{"10.12.0.0/30", linkDelay},
		{"10.2.1.0/30", linkDelay},
		{"10.2.2.0/30", linkDelay},
		{"10.2.3.0/30", linkDelay},
		{"10.23.0.0/30", linkDelay},
		{"10.3.1.0/30", linkDelay},
		{"10.3.2.0/30", linkDelay},
		{"10.3.3.0/30", linkDelay},
		{"10.34.0.0/30", linkDelay},
	})
	if err != nil {
		return nil, err
	}
	r, left := c.routers, c.left
	return &DoubleLab{
		Net: c.net, VP: c.vp, Prober: c.prober,
		CE1: r[0], PE1a: r[1], P1a: r[2], P2a: r[3], PE2a: r[4],
		PE1b: r[5], P1b: r[6], P2b: r[7], PE2b: r[8], CE2: r[9],
		CE1Left: left[0], PE1aLeft: left[1], P1aLeft: left[2], P2aLeft: left[3], PE2aLeft: left[4],
		PE1bLeft: left[5], P1bLeft: left[6], P2bLeft: left[7], PE2bLeft: left[8], CE2Left: left[9],
	}, nil
}

// MustBuildDouble is BuildDouble for tests and examples.
func MustBuildDouble() *DoubleLab {
	l, err := BuildDouble()
	if err != nil {
		panic(fmt.Sprintf("lab: %v", err))
	}
	return l
}
