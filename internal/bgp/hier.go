package bgp

import "wormhole/internal/netaddr"

// Hierarchical (streamed) stub attachment. The generator's large-world
// builder converges the core (Tier-1s and transits) with the full Compute
// pass, then attaches stubs one at a time: a stub's aggregate is carved
// out of its primary provider's block, so the only BGP state a stub costs
// is a customer route inside its direct providers plus a default route in
// its own routers. Nothing propagates beyond that — distant traffic rides
// the provider's covering aggregate — which is what keeps per-router
// table size flat as the stub count grows.

// StubLink pairs one stub↔provider session with the provider's BGP AS
// record from the converged core. The session's A side must be the stub
// (the generator wires customer sessions that way).
type StubLink struct {
	S        *Session
	Provider *AS
}

// AttachStub installs all BGP state for one stub:
//
//   - the stub's aggregate into each direct provider as a customer route
//     (hot-potato across that provider's sessions to the stub), NOT
//     exported further — the provider's own aggregate covers it upstream;
//   - a default route into every stub router, hot-potato across its
//     provider sessions — the hierarchical replacement for a full table;
//   - the stub-side cross-link subnets into the stub's iBGP. The provider
//     side is deliberately not redistributed: cross-links are numbered
//     out of the stub's aggregate, so the provider's fresh customer route
//     already covers both ends.
//
// stub.SPF must be the stub's converged IGP state; it may be dropped
// afterwards.
func AttachStub(stub *AS, links []StubLink) {
	sb := make(map[[2]uint32][]*Session, len(links))
	var provs []*AS
	for _, l := range links {
		k := [2]uint32{stub.Num, l.Provider.Num}
		sb[k] = append(sb[k], l.S)
		seen := false
		for _, p := range provs {
			if p == l.Provider {
				seen = true
				break
			}
		}
		if !seen {
			provs = append(provs, l.Provider)
		}
	}
	for _, prov := range provs {
		installAS(prov, stub, classCustomer, []*AS{stub}, sb)
	}
	origin := &AS{Prefixes: []netaddr.Prefix{netaddr.MustPrefixFrom(0, 0)}}
	installAS(stub, origin, classProvider, provs, sb)
	for _, l := range links {
		redistributeConnected(stub, l.S.A, l.S.AIf)
	}
}
