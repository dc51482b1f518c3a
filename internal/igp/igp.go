// Package igp computes intra-domain routing for one AS: an OSPF-like
// link-state shortest-path-first over the AS's routers, with equal-cost
// multipath, and installs the resulting connected/IGP routes into every
// router's FIB. The SPF result is also the substrate LDP builds LSPs from
// (labels congruent with the IGP, as the paper assumes for LDP tunnels).
package igp

import (
	"container/heap"
	"fmt"
	"math"

	"wormhole/internal/netaddr"
	"wormhole/internal/netsim"
	"wormhole/internal/router"
)

// Domain is one IGP area: the routers of a single AS.
type Domain struct {
	Routers []*router.Router

	// Metric returns the cost of a link; nil means every link costs 1
	// (hop-count SPF, the common default in the studied networks).
	Metric func(l *netsim.Link) int

	// InstallOn, when non-nil, restricts route installation to the listed
	// routers: SPF still runs over the whole domain (the Result covers
	// every router), but only these FIBs change. Churn uses it to model
	// fast-reroute at a failed link's endpoints before the rest of the
	// domain reconverges — the window where micro-loops and transient
	// blackholes live.
	InstallOn []*router.Router
}

// Hop is one first-hop alternative toward a prefix.
type Hop struct {
	Out     *netsim.Iface
	Gateway netaddr.Addr   // remote interface address; zero for connected
	Via     *router.Router // next-hop router; nil for connected routes
}

// Result is the computed SPF state, consumed by the LDP builder and tests.
type Result struct {
	// Prefixes lists every internal prefix (connected subnets, loopbacks,
	// and border subnets facing other ASes or hosts).
	Prefixes []netaddr.Prefix
	// Owners maps a prefix to the in-domain routers directly attached to it.
	Owners map[netaddr.Prefix][]*router.Router
	// NextHops[r][p] holds r's equal-cost first hops toward p.
	NextHops map[*router.Router]map[netaddr.Prefix][]Hop
	// Dist[a][b] is the SPF distance between two routers (math.MaxInt32 if
	// disconnected).
	Dist map[*router.Router]map[*router.Router]int
}

// adjacency is one directed router-to-router edge.
type adjacency struct {
	to      *router.Router
	out     *netsim.Iface
	gateway netaddr.Addr
	cost    int
}

// Compute runs SPF from every router and installs connected and IGP routes
// into the FIBs. It returns the SPF result for further control-plane use.
func (d *Domain) Compute() (*Result, error) {
	metric := d.Metric
	if metric == nil {
		metric = func(*netsim.Link) int { return 1 }
	}
	member := make(map[*router.Router]bool, len(d.Routers))
	for _, r := range d.Routers {
		member[r] = true
	}

	// Discover adjacencies and the prefix ownership map.
	adj := make(map[*router.Router][]adjacency, len(d.Routers))
	res := &Result{
		Owners:   make(map[netaddr.Prefix][]*router.Router),
		NextHops: make(map[*router.Router]map[netaddr.Prefix][]Hop),
		Dist:     make(map[*router.Router]map[*router.Router]int),
	}
	seenPrefix := make(map[netaddr.Prefix]bool)
	own := func(p netaddr.Prefix, r *router.Router) {
		if !seenPrefix[p] {
			seenPrefix[p] = true
			res.Prefixes = append(res.Prefixes, p)
		}
		for _, o := range res.Owners[p] {
			if o == r {
				return
			}
		}
		res.Owners[p] = append(res.Owners[p], r)
	}

	externalIfaces := make(map[*router.Router][]*netsim.Iface)
	for _, r := range d.Routers {
		if lo := r.Loopback(); lo != nil {
			own(lo.Prefix, r)
		}
		for _, ifc := range r.Ifaces() {
			if ifc.Link != nil && !ifc.Link.Up {
				// Failed link: the subnet stays connected (the interface
				// exists) but contributes no adjacency, so SPF routes
				// around it — Compute after a failure IS the reconvergence.
				externalIfaces[r] = append(externalIfaces[r], ifc)
				continue
			}
			remote := ifc.Remote()
			if remote != nil {
				if nr, isRouter := remote.Owner.(*router.Router); isRouter && !member[nr] {
					// Cross-AS link: the subnet stays out of the IGP (it is
					// redistributed into BGP by the border router), but the
					// border itself still needs the connected route.
					externalIfaces[r] = append(externalIfaces[r], ifc)
					continue
				}
			}
			own(ifc.Prefix, r)
			if remote == nil {
				continue
			}
			nr, ok := remote.Owner.(*router.Router)
			if !ok {
				continue // host-facing subnet: in the IGP, no adjacency
			}
			cost := metric(ifc.Link)
			if cost <= 0 {
				return nil, fmt.Errorf("igp: non-positive metric on link %s-%s", ifc, remote)
			}
			adj[r] = append(adj[r], adjacency{to: nr, out: ifc, gateway: remote.Addr, cost: cost})
		}
	}

	// SPF from each router.
	for _, src := range d.Routers {
		dist, firstHops := dijkstra(src, adj)
		res.Dist[src] = dist
		nh := make(map[netaddr.Prefix][]Hop, len(res.Prefixes))
		res.NextHops[src] = nh

		for _, p := range res.Prefixes {
			owners := res.Owners[p]
			// Connected wins.
			if hops := connectedHops(src, p); hops != nil {
				nh[p] = hops
				continue
			}
			best := math.MaxInt32
			for _, o := range owners {
				if dd, ok := dist[o]; ok && dd < best {
					best = dd
				}
			}
			if best == math.MaxInt32 {
				continue // unreachable
			}
			var hops []Hop
			seen := make(map[Hop]bool)
			for _, o := range owners {
				if dist[o] != best {
					continue
				}
				for _, h := range firstHops[o] {
					if !seen[h] {
						seen[h] = true
						hops = append(hops, h)
					}
				}
			}
			nh[p] = hops
		}
	}

	d.install(res)
	only := d.installSet()
	for r, ifaces := range externalIfaces {
		if only != nil && !only[r] {
			continue
		}
		for _, ifc := range ifaces {
			r.InstallRoute(ifc.Prefix, &router.Route{
				Origin:   router.OriginConnected,
				NextHops: []router.NextHop{{Out: ifc}},
			})
		}
	}
	return res, nil
}

// installSet returns the InstallOn membership set, or nil for "all".
func (d *Domain) installSet() map[*router.Router]bool {
	if d.InstallOn == nil {
		return nil
	}
	only := make(map[*router.Router]bool, len(d.InstallOn))
	for _, r := range d.InstallOn {
		only[r] = true
	}
	return only
}

// connectedHops returns the connected-route hops for p at r, or nil.
func connectedHops(r *router.Router, p netaddr.Prefix) []Hop {
	if lo := r.Loopback(); lo != nil && lo.Prefix == p {
		return []Hop{} // local address: no forwarding entry needed
	}
	for _, ifc := range r.Ifaces() {
		if ifc.Prefix == p {
			return []Hop{{Out: ifc}}
		}
	}
	return nil
}

// dijkstra computes distances and the ECMP first-hop sets from src.
func dijkstra(src *router.Router, adj map[*router.Router][]adjacency) (map[*router.Router]int, map[*router.Router][]Hop) {
	dist := map[*router.Router]int{src: 0}
	firstHops := map[*router.Router][]Hop{}
	pq := &nodeQueue{{r: src, d: 0}}

	for pq.Len() > 0 {
		cur := heap.Pop(pq).(nodeDist)
		if cur.d > dist[cur.r] {
			continue
		}
		for _, a := range adj[cur.r] {
			nd := cur.d + a.cost
			old, seen := dist[a.to]
			switch {
			case !seen || nd < old:
				dist[a.to] = nd
				firstHops[a.to] = appendHops(nil, cur.r, src, a, firstHops[cur.r])
				heap.Push(pq, nodeDist{r: a.to, d: nd})
			case nd == old:
				firstHops[a.to] = appendHops(firstHops[a.to], cur.r, src, a, firstHops[cur.r])
			}
		}
	}
	return dist, firstHops
}

// appendHops extends the ECMP first-hop set for a newly relaxed node: if
// the relaxing node is the source itself the first hop is the edge, else
// the first hops are inherited from the relaxing node.
func appendHops(hops []Hop, cur, src *router.Router, a adjacency, inherited []Hop) []Hop {
	add := func(h Hop) {
		for _, e := range hops {
			if e == h {
				return
			}
		}
		hops = append(hops, h)
	}
	if cur == src {
		add(Hop{Out: a.out, Gateway: a.gateway, Via: a.to})
		return hops
	}
	for _, h := range inherited {
		add(h)
	}
	return hops
}

// install writes connected and IGP routes into every router's FIB (or
// only the InstallOn subset).
func (d *Domain) install(res *Result) {
	only := d.installSet()
	for _, r := range d.Routers {
		if only != nil && !only[r] {
			continue
		}
		for p, hops := range res.NextHops[r] {
			if len(hops) == 0 {
				continue // local loopback
			}
			origin := router.OriginIGP
			if hops[0].Via == nil {
				origin = router.OriginConnected
			}
			nhs := make([]router.NextHop, len(hops))
			for i, h := range hops {
				nhs[i] = router.NextHop{Out: h.Out, Gateway: h.Gateway}
			}
			r.InstallRoute(p, &router.Route{Origin: origin, NextHops: nhs})
		}
	}
}

type nodeDist struct {
	r *router.Router
	d int
}

type nodeQueue []nodeDist

func (q nodeQueue) Len() int            { return len(q) }
func (q nodeQueue) Less(i, j int) bool  { return q[i].d < q[j].d }
func (q nodeQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x interface{}) { *q = append(*q, x.(nodeDist)) }
func (q *nodeQueue) Pop() interface{} {
	old := *q
	n := len(old)
	v := old[n-1]
	*q = old[:n-1]
	return v
}
