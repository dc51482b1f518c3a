// Package alias implements Mercator-style alias resolution, the building
// block under ITDK-like router-level graphs: a UDP probe to an unused
// port on one interface of a router elicits a port-unreachable whose
// source address is a *different* interface (the one facing the prober)
// on OSes that source unreachables from the outgoing interface. Each such
// mismatch is an alias pair; union-find merges pairs into router alias
// sets.
//
// This replaces the ground-truth resolver in campaigns that want the
// realistic, incomplete view: routers that source replies from the probed
// address stay unresolved, exactly like the fraction of ITDK nodes with
// singleton alias sets.
package alias

import (
	"wormhole/internal/netaddr"
	"wormhole/internal/packet"
	"wormhole/internal/probe"
)

// Sets holds resolved alias sets over a universe of addresses.
type Sets struct {
	parent map[netaddr.Addr]netaddr.Addr
	rank   map[netaddr.Addr]int
	// Pairs counts the raw alias observations.
	Pairs int
	// Probed counts the addresses probed.
	Probed int
}

// NewSets creates an empty alias structure.
func NewSets() *Sets {
	return &Sets{
		parent: make(map[netaddr.Addr]netaddr.Addr),
		rank:   make(map[netaddr.Addr]int),
	}
}

// find is union-find with path halving.
func (s *Sets) find(a netaddr.Addr) netaddr.Addr {
	if _, ok := s.parent[a]; !ok {
		s.parent[a] = a
	}
	for s.parent[a] != a {
		s.parent[a] = s.parent[s.parent[a]]
		a = s.parent[a]
	}
	return a
}

// Union merges the sets of two addresses (an observed alias pair).
func (s *Sets) Union(a, b netaddr.Addr) {
	ra, rb := s.find(a), s.find(b)
	if ra == rb {
		return
	}
	if s.rank[ra] < s.rank[rb] {
		ra, rb = rb, ra
	}
	s.parent[rb] = ra
	if s.rank[ra] == s.rank[rb] {
		s.rank[ra]++
	}
}

// Resolve runs the Mercator probe against every address: one UDP probe to
// a high port; a reply sourced from a different address is an alias pair.
func Resolve(p *probe.Prober, addrs []netaddr.Addr) *Sets {
	s := NewSets()
	for _, a := range addrs {
		s.find(a) // ensure membership even if unresponsive
		s.Probed++
		from, ok := mercatorProbe(p, a)
		if !ok {
			continue
		}
		if from != a {
			s.Union(a, from)
			s.Pairs++
		}
	}
	return s
}

// mercatorProbe sends one UDP probe and returns the reply source.
func mercatorProbe(p *probe.Prober, dst netaddr.Addr) (netaddr.Addr, bool) {
	savedMethod := p.Method
	savedFirst := p.FirstTTL
	savedMax := p.MaxTTL
	p.Method = probe.UDPParis
	p.FirstTTL = 64
	p.MaxTTL = 64
	defer func() {
		p.Method = savedMethod
		p.FirstTTL = savedFirst
		p.MaxTTL = savedMax
	}()
	tr := p.Traceroute(dst)
	if !tr.Reached {
		return 0, false
	}
	last, ok := tr.Last()
	if !ok || last.ICMPType != packet.ICMPDestUnreach {
		return 0, false
	}
	return last.Addr, true
}

// Resolver adapts the alias sets into a topo.Resolver-compatible function:
// every alias set becomes one router named after its canonical address.
// AS numbers are not known to alias resolution; asOf (may be nil) supplies
// them.
func (s *Sets) Resolver(asOf func(netaddr.Addr) uint32) func(netaddr.Addr) (string, uint32, bool) {
	return func(a netaddr.Addr) (string, uint32, bool) {
		if _, known := s.parent[a]; !known {
			return "", 0, false
		}
		var asn uint32
		if asOf != nil {
			asn = asOf(a)
		}
		return "router-" + s.find(a).String(), asn, true
	}
}
