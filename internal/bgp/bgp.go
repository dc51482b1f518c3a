// Package bgp implements simplified inter-domain routing: Gao-Rexford
// valley-free route selection at the AS level (customer routes preferred
// over peer routes over provider routes, then shortest AS path) and
// hot-potato egress selection at the router level (each router exits via
// the qualifying border router closest in the IGP).
//
// This is the substrate that produces the forward/return path asymmetry
// FRPLA must cope with (Sec. 3.4): the two directions of a flow generally
// choose different border routers, so return paths differ from forward
// paths by a few hops even without MPLS in play.
//
// iBGP is modeled as a full mesh: every router of an AS carries every
// external route, with the egress border's loopback as BGP next hop — the
// next hop whose label binding turns external transit traffic into LSP
// traffic (Sec. 3.2).
package bgp

import (
	"fmt"
	"math"
	"sort"

	"wormhole/internal/igp"
	"wormhole/internal/netaddr"
	"wormhole/internal/netsim"
	"wormhole/internal/router"
)

// Relationship describes a session from A's point of view.
type Relationship uint8

const (
	// ACustomerOfB: A pays B for transit.
	ACustomerOfB Relationship = iota
	// APeerOfB: settlement-free peering.
	APeerOfB
	// AProviderOfB: A sells transit to B.
	AProviderOfB
)

// AS is one autonomous system participating in BGP.
type AS struct {
	Num     uint32
	Routers []*router.Router
	// Prefixes are the aggregates the AS originates.
	Prefixes []netaddr.Prefix
	// SPF is the AS's computed IGP state (hot-potato needs distances).
	SPF *igp.Result
}

// Session is one eBGP adjacency over a cross-AS link.
type Session struct {
	A, B     *router.Router
	AIf, BIf *netsim.Iface
	Rel      Relationship
}

// Topology is the AS-level graph.
type Topology struct {
	ASes     []*AS
	Sessions []*Session
}

// routeClass orders route preference: higher wins.
type routeClass uint8

const (
	classNone routeClass = iota
	classProvider
	classPeer
	classCustomer
)

// Compute runs route selection for every announced prefix and installs BGP
// routes into all routers outside the origin AS.
func Compute(t *Topology) error {
	byNum := make(map[uint32]*AS, len(t.ASes))
	for _, as := range t.ASes {
		if prev, dup := byNum[as.Num]; dup && prev != as {
			return fmt.Errorf("bgp: duplicate AS number %d", as.Num)
		}
		byNum[as.Num] = as
		if as.SPF == nil {
			return fmt.Errorf("bgp: AS%d has no SPF result", as.Num)
		}
	}
	asOf := make(map[*router.Router]*AS)
	for _, as := range t.ASes {
		for _, r := range as.Routers {
			asOf[r] = as
		}
	}

	// Neighbor maps at the AS level.
	customers := map[*AS][]*AS{} // customers[x] = ASes that are customers of x
	peers := map[*AS][]*AS{}
	providers := map[*AS][]*AS{} // providers[x] = ASes that provide transit to x
	sessionsBetween := map[[2]uint32][]*Session{}
	addNeighbor := func(m map[*AS][]*AS, k, v *AS) {
		for _, e := range m[k] {
			if e == v {
				return
			}
		}
		m[k] = append(m[k], v)
	}
	for _, s := range t.Sessions {
		asA, asB := asOf[s.A], asOf[s.B]
		if asA == nil || asB == nil {
			return fmt.Errorf("bgp: session endpoint not in any AS (%s-%s)", s.A.Name(), s.B.Name())
		}
		if asA == asB {
			return fmt.Errorf("bgp: intra-AS session %s-%s", s.A.Name(), s.B.Name())
		}
		switch s.Rel {
		case ACustomerOfB:
			addNeighbor(customers, asB, asA)
			addNeighbor(providers, asA, asB)
		case AProviderOfB:
			addNeighbor(customers, asA, asB)
			addNeighbor(providers, asB, asA)
		case APeerOfB:
			addNeighbor(peers, asA, asB)
			addNeighbor(peers, asB, asA)
		}
		sessionsBetween[[2]uint32{asA.Num, asB.Num}] = append(sessionsBetween[[2]uint32{asA.Num, asB.Num}], s)
	}

	for _, origin := range t.ASes {
		if len(origin.Prefixes) == 0 {
			continue
		}
		cls, dist, nextASes := selectRoutes(t.ASes, origin, customers, peers, providers)
		for _, as := range t.ASes {
			if as == origin || cls[as] == classNone {
				continue
			}
			installAS(as, origin, cls[as], nextASes[as], sessionsBetween)
		}
		_ = dist
	}

	// Redistribute cross-AS link subnets into each side's iBGP: every
	// router of the border's AS learns the subnet with the border's
	// loopback as next hop. This is what makes a neighbor AS's side of a
	// peering link ("CE2.left") a *BGP* destination inside the transit AS,
	// i.e. label-switched toward the border's loopback rather than routed
	// by the IGP.
	for _, s := range t.Sessions {
		redistributeConnected(asOf[s.A], s.A, s.AIf)
		redistributeConnected(asOf[s.B], s.B, s.BIf)
	}
	return nil
}

// redistributeConnected installs border's connected cross-link subnet into
// the other routers of its AS as an iBGP route.
func redistributeConnected(as *AS, border *router.Router, ifc *netsim.Iface) {
	lo := border.Loopback()
	if lo == nil {
		return
	}
	for _, r := range as.Routers {
		if r == border {
			continue
		}
		if rt, ok := r.GetRoute(ifc.Prefix); ok && rt.Origin == router.OriginConnected {
			continue
		}
		hops := as.SPF.NextHops[r][lo.Prefix]
		if len(hops) == 0 {
			continue
		}
		nhs := make([]router.NextHop, len(hops))
		for i, h := range hops {
			nhs[i] = router.NextHop{Out: h.Out, Gateway: h.Gateway}
		}
		r.InstallRoute(ifc.Prefix, &router.Route{
			Origin:     router.OriginBGP,
			NextHops:   nhs,
			BGPNextHop: lo.Addr,
		})
	}
}

// selectRoutes runs the three-phase valley-free computation from origin.
func selectRoutes(all []*AS, origin *AS, customers, peers, providers map[*AS][]*AS) (map[*AS]routeClass, map[*AS]int, map[*AS][]*AS) {
	const inf = math.MaxInt32
	custDist := map[*AS]int{origin: 0}

	// Phase 1: customer routes climb provider links (B exports to its
	// providers routes learned from B's own customers). BFS over
	// "provider of" edges.
	frontier := []*AS{origin}
	for len(frontier) > 0 {
		var next []*AS
		for _, b := range frontier {
			for _, a := range providers[b] { // a is a provider of b: hears b's route
				if _, seen := custDist[a]; !seen {
					custDist[a] = custDist[b] + 1
					next = append(next, a)
				}
			}
		}
		frontier = next
	}

	// Phase 2: peers exchange customer routes.
	peerDist := map[*AS]int{}
	for _, a := range all {
		best := inf
		for _, b := range peers[a] {
			if d, ok := custDist[b]; ok && d+1 < best {
				best = d + 1
			}
		}
		if best < inf {
			peerDist[a] = best
		}
	}

	// Phase 3: provider routes descend customer links; a provider exports
	// everything to customers, so the source value at each AS is its best
	// of any class. Dijkstra-like BFS over "customer of" edges.
	downDist := map[*AS]int{}
	type qe struct {
		as *AS
		d  int
	}
	var queue []qe
	for _, b := range all {
		base := inf
		if d, ok := custDist[b]; ok {
			base = d
		}
		if d, ok := peerDist[b]; ok && d < base {
			base = d
		}
		if base < inf {
			queue = append(queue, qe{b, base})
		}
	}
	// Uniform edge weight 1: process by increasing seed distance.
	sort.SliceStable(queue, func(i, j int) bool { return queue[i].d < queue[j].d })
	seed := map[*AS]int{}
	for _, e := range queue {
		if old, ok := seed[e.as]; !ok || e.d < old {
			seed[e.as] = e.d
		}
	}
	// BFS rounds (distances bounded by AS count).
	for changed := true; changed; {
		changed = false
		for _, b := range all {
			sb, ok := seed[b]
			if dd, okd := downDist[b]; okd && dd < sb || !ok && okd {
				sb, ok = downDist[b], true
			}
			if !ok {
				continue
			}
			for _, a := range customers[b] { // a is customer of b: hears everything
				if old, seen := downDist[a]; !seen || sb+1 < old {
					downDist[a] = sb + 1
					changed = true
				}
			}
		}
	}

	cls := map[*AS]routeClass{origin: classCustomer}
	dist := map[*AS]int{origin: 0}
	nextASes := map[*AS][]*AS{}
	for _, a := range all {
		if a == origin {
			continue
		}
		var c routeClass
		var d int
		switch {
		case hasDist(custDist, a):
			c, d = classCustomer, custDist[a]
		case hasDist(peerDist, a):
			c, d = classPeer, peerDist[a]
		case hasDist(downDist, a):
			c, d = classProvider, downDist[a]
		default:
			continue
		}
		cls[a], dist[a] = c, d
		// Next-hop ASes: neighbors in the class's direction achieving d-1
		// with an exportable route.
		switch c {
		case classCustomer:
			for _, b := range customers[a] {
				if db, ok := custDist[b]; ok && db == d-1 {
					nextASes[a] = append(nextASes[a], b)
				}
			}
		case classPeer:
			for _, b := range peers[a] {
				if db, ok := custDist[b]; ok && db == d-1 {
					nextASes[a] = append(nextASes[a], b)
				}
			}
		case classProvider:
			for _, b := range providers[a] {
				best := math.MaxInt32
				if db, ok := custDist[b]; ok && db < best {
					best = db
				}
				if db, ok := peerDist[b]; ok && db < best {
					best = db
				}
				if db, ok := downDist[b]; ok && db < best {
					best = db
				}
				if best == d-1 {
					nextASes[a] = append(nextASes[a], b)
				}
			}
		}
	}
	return cls, dist, nextASes
}

func hasDist(m map[*AS]int, a *AS) bool { _, ok := m[a]; return ok }

// installAS installs routes for origin's prefixes into every router of as,
// choosing per-router hot-potato egresses among the sessions toward the
// selected next-hop ASes whose relationship matches the route class (a
// customer-learned route must use a session where the neighbor is the
// customer, and so on).
func installAS(as, origin *AS, class routeClass, nextASes []*AS, sessionsBetween map[[2]uint32][]*Session) {
	type egress struct {
		border *router.Router
		out    *netsim.Iface
		gw     netaddr.Addr
	}
	// relMatches reports whether a session whose A side is in `as` fits
	// the class (relAToB is the relationship of the A side to the B side).
	relMatches := func(relAToB Relationship) bool {
		switch class {
		case classCustomer:
			return relAToB == AProviderOfB
		case classPeer:
			return relAToB == APeerOfB
		default:
			return relAToB == ACustomerOfB
		}
	}
	invert := func(r Relationship) Relationship {
		switch r {
		case ACustomerOfB:
			return AProviderOfB
		case AProviderOfB:
			return ACustomerOfB
		default:
			return APeerOfB
		}
	}
	var egresses []egress
	for _, nb := range nextASes {
		for _, s := range sessionsBetween[[2]uint32{as.Num, nb.Num}] {
			if relMatches(s.Rel) {
				egresses = append(egresses, egress{border: s.A, out: s.AIf, gw: s.BIf.Addr})
			}
		}
		for _, s := range sessionsBetween[[2]uint32{nb.Num, as.Num}] {
			if relMatches(invert(s.Rel)) {
				egresses = append(egresses, egress{border: s.B, out: s.BIf, gw: s.AIf.Addr})
			}
		}
	}
	if len(egresses) == 0 {
		return
	}
	// Deterministic order for stable tie-breaks: among equally near
	// egresses the lowest border loopback wins, then the lowest gateway
	// address (the lowest-next-hop rule).
	sort.SliceStable(egresses, func(i, j int) bool {
		li, lj := egresses[i].border.Loopback(), egresses[j].border.Loopback()
		if li == nil || lj == nil {
			return egresses[i].border.Name() < egresses[j].border.Name()
		}
		if li.Addr != lj.Addr {
			return li.Addr < lj.Addr
		}
		return egresses[i].gw < egresses[j].gw
	})

	for _, r := range as.Routers {
		// Hot potato: nearest egress border by IGP distance.
		best := math.MaxInt32
		var chosen egress
		for _, e := range egresses {
			var d int
			if e.border == r {
				d = 0
			} else if dd, ok := as.SPF.Dist[r][e.border]; ok {
				d = dd
			} else {
				continue
			}
			if d < best {
				best, chosen = d, e
			}
		}
		if best == math.MaxInt32 {
			continue
		}
		for _, p := range origin.Prefixes {
			// Never shadow a directly connected subnet (e.g. the cross-AS
			// link itself, announced by the neighbor as part of an
			// aggregate).
			if rt, ok := r.GetRoute(p); ok && rt.Origin == router.OriginConnected {
				continue
			}
			if chosen.border == r {
				r.InstallRoute(p, &router.Route{
					Origin:   router.OriginBGP,
					NextHops: []router.NextHop{{Out: chosen.out, Gateway: chosen.gw}},
				})
				continue
			}
			lo := chosen.border.Loopback()
			if lo == nil {
				continue
			}
			hops := as.SPF.NextHops[r][lo.Prefix]
			if len(hops) == 0 {
				continue
			}
			nhs := make([]router.NextHop, len(hops))
			for i, h := range hops {
				nhs[i] = router.NextHop{Out: h.Out, Gateway: h.Gateway}
			}
			r.InstallRoute(p, &router.Route{
				Origin:     router.OriginBGP,
				NextHops:   nhs,
				BGPNextHop: lo.Addr,
			})
		}
	}
}
