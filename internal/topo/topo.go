// Package topo builds router-level topology graphs from traceroute data,
// the way CAIDA's ITDK builds its router-level maps: IP-level traces,
// alias resolution to router identifiers, and links between consecutive
// responding hops. It computes the graph properties the paper studies —
// node degree distribution, density, clustering — plus the High Degree
// Node (HDN) detection that seeds the measurement campaign, and the
// corrections applied once invisible tunnels are revealed.
//
// Storage is dense. Node IDs are 0, 1, 2, … in insertion order, so a
// node's ID is its index in Nodes(), and each node keeps its neighbors
// in a slice ascending by ID. Nodes() and Neighbors() return those
// slices themselves, without copying: callers must treat them as
// read-only.
package topo

import (
	"cmp"
	"fmt"
	"slices"

	"wormhole/internal/netaddr"
	"wormhole/internal/probe"
	"wormhole/internal/stats"
)

// NodeID identifies a router-level node: its index in Graph.Nodes().
type NodeID int

// Node is one router-level node: an alias set of interface addresses.
type Node struct {
	ID    NodeID
	Name  string // resolver-supplied router name, or synthetic for unmapped
	ASN   uint32
	Addrs []netaddr.Addr

	nbrs []*Node // ascending by ID
}

// Degree returns the node's degree.
func (n *Node) Degree() int { return len(n.nbrs) }

// Resolver maps an interface address to a router name and AS. Campaigns
// use the generator's ground truth (playing the role of the ITDK alias
// sets + AS mapping); ok=false assigns the address its own fresh node, as
// the paper does for the 3% it could not map.
type Resolver func(netaddr.Addr) (name string, asn uint32, ok bool)

// Graph is an undirected router-level graph.
type Graph struct {
	nodes  []*Node // indexed by NodeID
	byAddr map[netaddr.Addr]*Node
	byName map[string]*Node
	edges  int

	resolve Resolver
}

// New creates an empty graph using the given resolver (nil means every
// address is its own node).
func New(r Resolver) *Graph {
	if r == nil {
		r = func(netaddr.Addr) (string, uint32, bool) { return "", 0, false }
	}
	return &Graph{
		byAddr:  make(map[netaddr.Addr]*Node),
		byName:  make(map[string]*Node),
		resolve: r,
	}
}

// NodeFor returns (creating if needed) the node owning addr.
func (g *Graph) NodeFor(addr netaddr.Addr) *Node {
	if n, ok := g.byAddr[addr]; ok {
		return n
	}
	name, asn, ok := g.resolve(addr)
	if ok {
		if n, seen := g.byName[name]; seen {
			n.Addrs = append(n.Addrs, addr)
			g.byAddr[addr] = n
			return n
		}
	} else {
		name = fmt.Sprintf("unmapped-%s", addr)
	}
	n := &Node{ID: NodeID(len(g.nodes)), Name: name, ASN: asn, Addrs: []netaddr.Addr{addr}}
	g.nodes = append(g.nodes, n)
	g.byAddr[addr] = n
	g.byName[name] = n
	return n
}

// Lookup returns the node for an address without creating one.
func (g *Graph) Lookup(addr netaddr.Addr) (*Node, bool) {
	n, ok := g.byAddr[addr]
	return n, ok
}

// AddLink records an undirected router-level link between the owners of
// two addresses.
func (g *Graph) AddLink(a, b netaddr.Addr) {
	g.link(g.NodeFor(a), g.NodeFor(b))
}

// link records the undirected link a–b unless it exists or a is b,
// keeping both neighbor lists ascending by ID.
func (g *Graph) link(a, b *Node) {
	if a == b {
		return
	}
	i, found := slot(a.nbrs, b.ID)
	if found {
		return
	}
	a.nbrs = slices.Insert(a.nbrs, i, b)
	j, _ := slot(b.nbrs, a.ID)
	b.nbrs = slices.Insert(b.nbrs, j, a)
	g.edges++
}

// slot returns where id sits, or would be inserted, in the ascending
// neighbor list nbrs.
func slot(nbrs []*Node, id NodeID) (int, bool) {
	return slices.BinarySearchFunc(nbrs, id, func(n *Node, id NodeID) int { return cmp.Compare(n.ID, id) })
}

// AddTrace inserts the links of one trace: every pair of consecutive
// responding hops (anonymous hops break adjacency, as in ITDK). Each hop
// is resolved once, and only when it takes part in a link, so a hop that
// links to nothing adds no node.
func (g *Graph) AddTrace(tr *probe.Trace) {
	var prev *Node // the last link's far end
	w := linkWalk{hops: tr.Hops}
	for {
		a, b, chained, ok := w.next()
		if !ok {
			return
		}
		if !chained {
			prev = g.NodeFor(a)
		}
		cur := g.NodeFor(b)
		g.link(prev, cur)
		prev = cur
	}
}

// linkWalk is the one hop walk behind Graph.AddTrace and
// LinkMap.AddTrace: it steps through a trace's links, the pairs of
// consecutive responding hops with distinct addresses.
type linkWalk struct {
	hops    []probe.Hop  // not yet walked
	prev    netaddr.Addr // the last responding hop, while have
	have    bool
	chained bool // prev is the far end of the last link returned
}

// next returns the walk's next link a–b, and whether a is the far end of
// the link before it. A caller that resolves a only when it is not
// resolves each hop once, and only when it takes part in a link, so both
// callers resolve the same addresses in the same order.
func (w *linkWalk) next() (a, b netaddr.Addr, chained, ok bool) {
	for i, h := range w.hops {
		switch {
		case h.Anonymous():
			w.have = false
		case !w.have:
			w.prev, w.have, w.chained = h.Addr, true, false
		case h.Addr != w.prev:
			a, b, chained = w.prev, h.Addr, w.chained
			w.hops = w.hops[i+1:]
			w.prev, w.chained = h.Addr, true
			return a, b, chained, true
		}
	}
	w.hops = nil
	return 0, 0, false, false
}

// AddLinks inserts the links of a link map: it resolves the map's
// addresses in order, then links their pairs. Over the maps of
// consecutive runs of traces, taken in order, it builds exactly the graph
// AddTrace builds over the traces one by one: NodeFor acts only on an
// address's first call, a map keeps its addresses in the order the graph
// would first resolve them, and link does not depend on call order.
// Every link must index m.Addrs.
func (g *Graph) AddLinks(m *LinkMap) {
	nodes := make([]*Node, len(m.Addrs))
	for i, a := range m.Addrs {
		nodes[i] = g.NodeFor(a)
	}
	for _, l := range m.Links {
		g.link(nodes[l.A], nodes[l.B])
	}
}

// AddPath inserts links along an explicit address path (used when
// re-building the corrected graph with revealed tunnel hops spliced in).
func (g *Graph) AddPath(path []netaddr.Addr) {
	for i := 1; i < len(path); i++ {
		if path[i-1] != path[i] {
			g.AddLink(path[i-1], path[i])
		}
	}
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the undirected edge count.
func (g *Graph) NumEdges() int { return g.edges }

// Nodes returns all nodes in ID order. The slice is the graph's own:
// read-only.
func (g *Graph) Nodes() []*Node { return g.nodes }

// DegreeHistogram returns the node degree distribution (Fig. 1 / Fig. 10).
func (g *Graph) DegreeHistogram() *stats.Histogram {
	h := stats.NewHistogram()
	for _, n := range g.nodes {
		h.Add(n.Degree())
	}
	return h
}

// Density returns 2E / V(V-1), the metric of Table 4.
func (g *Graph) Density() float64 {
	v := len(g.nodes)
	if v < 2 {
		return 0
	}
	return 2 * float64(g.edges) / (float64(v) * float64(v-1))
}

// SubgraphOf returns the subgraph induced by the nodes satisfying keep,
// preserving names/ASNs (used for per-AS density in Table 4): every kept
// node, linked or not, and every link between two kept nodes.
func (g *Graph) SubgraphOf(keep func(*Node) bool) *Graph {
	sub := New(g.resolve)
	kept := make([]*Node, len(g.nodes)) // by NodeID: the node's copy in sub
	for _, n := range g.nodes {
		if keep(n) {
			kept[n.ID] = sub.NodeFor(n.Addrs[0])
		}
	}
	for _, n := range g.nodes {
		if kept[n.ID] == nil {
			continue
		}
		for _, nb := range n.nbrs {
			if nb.ID > n.ID && kept[nb.ID] != nil {
				sub.link(kept[n.ID], kept[nb.ID])
			}
		}
	}
	return sub
}

// HDNs returns the nodes with degree >= threshold (128 in the paper,
// scaled down for synthetic topologies), sorted by decreasing degree,
// ties by ID.
func (g *Graph) HDNs(threshold int) []*Node {
	var out []*Node
	for _, n := range g.nodes {
		if n.Degree() >= threshold {
			out = append(out, n)
		}
	}
	// Collected in ID order, so a stable sort keeps ties by ID.
	slices.SortStableFunc(out, func(a, b *Node) int { return cmp.Compare(b.Degree(), a.Degree()) })
	return out
}

// Neighbors returns a node's neighbors in ID order. The slice is the
// node's own: read-only.
func (g *Graph) Neighbors(n *Node) []*Node { return n.nbrs }

// PathLengthHistogram returns the trace length distribution (Fig. 11):
// the number of responding hops per completed trace, optionally extended
// by extra hops revealed inside invisible tunnels.
func PathLengthHistogram(traces []*probe.Trace, extra func(*probe.Trace) int) *stats.Histogram {
	h := stats.NewHistogram()
	for _, tr := range traces {
		if !tr.Reached {
			continue
		}
		n := 0
		for _, hop := range tr.Hops {
			if !hop.Anonymous() {
				n++
			}
		}
		if extra != nil {
			n += extra(tr)
		}
		h.Add(n)
	}
	return h
}
