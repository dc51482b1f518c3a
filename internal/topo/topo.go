// Package topo builds router-level topology graphs from traceroute data,
// the way CAIDA's ITDK builds its router-level maps: IP-level traces,
// alias resolution to router identifiers, and links between consecutive
// responding hops. It computes the graph properties the paper studies —
// node degree distribution, density, clustering — plus the High Degree
// Node (HDN) detection that seeds the measurement campaign, and the
// corrections applied once invisible tunnels are revealed.
package topo

import (
	"fmt"
	"sort"

	"wormhole/internal/netaddr"
	"wormhole/internal/probe"
	"wormhole/internal/stats"
)

// NodeID identifies a router-level node.
type NodeID int

// Node is one router-level node: an alias set of interface addresses.
type Node struct {
	ID    NodeID
	Name  string // resolver-supplied router name, or synthetic for unmapped
	ASN   uint32
	Addrs []netaddr.Addr

	neighbors map[NodeID]bool
}

// Degree returns the node's degree.
func (n *Node) Degree() int { return len(n.neighbors) }

// Resolver maps an interface address to a router name and AS. Campaigns
// use the generator's ground truth (playing the role of the ITDK alias
// sets + AS mapping); ok=false assigns the address its own fresh node, as
// the paper does for the 3% it could not map.
type Resolver func(netaddr.Addr) (name string, asn uint32, ok bool)

// Graph is an undirected router-level graph.
type Graph struct {
	nodes  map[NodeID]*Node
	byAddr map[netaddr.Addr]NodeID
	byName map[string]NodeID
	next   NodeID
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
		nodes:   make(map[NodeID]*Node),
		byAddr:  make(map[netaddr.Addr]NodeID),
		byName:  make(map[string]NodeID),
		resolve: r,
	}
}

// NodeFor returns (creating if needed) the node owning addr.
func (g *Graph) NodeFor(addr netaddr.Addr) *Node {
	if id, ok := g.byAddr[addr]; ok {
		return g.nodes[id]
	}
	name, asn, ok := g.resolve(addr)
	if ok {
		if id, seen := g.byName[name]; seen {
			n := g.nodes[id]
			n.Addrs = append(n.Addrs, addr)
			g.byAddr[addr] = id
			return n
		}
	} else {
		name = fmt.Sprintf("unmapped-%s", addr)
	}
	id := g.next
	g.next++
	n := &Node{ID: id, Name: name, ASN: asn, Addrs: []netaddr.Addr{addr}, neighbors: make(map[NodeID]bool)}
	g.nodes[id] = n
	g.byAddr[addr] = id
	g.byName[name] = id
	return n
}

// Lookup returns the node for an address without creating one.
func (g *Graph) Lookup(addr netaddr.Addr) (*Node, bool) {
	id, ok := g.byAddr[addr]
	if !ok {
		return nil, false
	}
	return g.nodes[id], true
}

// AddLink records an undirected router-level link between the owners of
// two addresses.
func (g *Graph) AddLink(a, b netaddr.Addr) {
	na, nb := g.NodeFor(a), g.NodeFor(b)
	if na.ID == nb.ID {
		return
	}
	if !na.neighbors[nb.ID] {
		na.neighbors[nb.ID] = true
		nb.neighbors[na.ID] = true
		g.edges++
	}
}

// AddTrace inserts the links of one trace: every pair of consecutive
// responding hops (anonymous hops break adjacency, as in ITDK).
func (g *Graph) AddTrace(tr *probe.Trace) {
	var prev netaddr.Addr
	havePrev := false
	for _, h := range tr.Hops {
		if h.Anonymous() {
			havePrev = false
			continue
		}
		if havePrev && prev != h.Addr {
			g.AddLink(prev, h.Addr)
		}
		prev, havePrev = h.Addr, true
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

// Nodes returns all nodes, ordered by ID for determinism.
func (g *Graph) Nodes() []*Node {
	out := make([]*Node, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

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

// SubgraphOf returns a new graph restricted to nodes satisfying keep,
// preserving names/ASNs (used for per-AS density in Table 4).
func (g *Graph) SubgraphOf(keep func(*Node) bool) *Graph {
	sub := New(g.resolve)
	for _, n := range g.Nodes() {
		if !keep(n) {
			continue
		}
		for nbID := range n.neighbors {
			nb := g.nodes[nbID]
			if !keep(nb) || nb.ID <= n.ID {
				continue
			}
			sub.AddLink(n.Addrs[0], nb.Addrs[0])
		}
	}
	return sub
}

// HDNs returns the nodes with degree >= threshold (128 in the paper,
// scaled down for synthetic topologies), sorted by decreasing degree.
func (g *Graph) HDNs(threshold int) []*Node {
	var out []*Node
	for _, n := range g.nodes {
		if n.Degree() >= threshold {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Degree() != out[j].Degree() {
			return out[i].Degree() > out[j].Degree()
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Neighbors returns a node's neighbor set.
func (g *Graph) Neighbors(n *Node) []*Node {
	out := make([]*Node, 0, len(n.neighbors))
	for id := range n.neighbors {
		out = append(out, g.nodes[id])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

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
