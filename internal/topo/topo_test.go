package topo

import (
	"fmt"
	"strings"
	"testing"

	"wormhole/internal/netaddr"
	"wormhole/internal/probe"
)

func addr(s string) netaddr.Addr { return netaddr.MustParseAddr(s) }

// aliasResolver maps 10.N.x.y to router "rN" in AS N.
func aliasResolver(a netaddr.Addr) (string, uint32, bool) {
	o1, o2, _, _ := a.Octets()
	if o1 != 10 {
		return "", 0, false
	}
	return "r" + string(rune('0'+o2)), uint32(o2), true
}

func TestAliasResolutionMergesAddresses(t *testing.T) {
	g := New(aliasResolver)
	n1 := g.NodeFor(addr("10.1.0.1"))
	n2 := g.NodeFor(addr("10.1.0.2"))
	if n1.ID != n2.ID {
		t.Error("same-router addresses not merged")
	}
	if len(n1.Addrs) != 2 {
		t.Errorf("alias set size %d", len(n1.Addrs))
	}
	n3 := g.NodeFor(addr("10.2.0.1"))
	if n3.ID == n1.ID {
		t.Error("distinct routers merged")
	}
	if n1.ASN != 1 || n3.ASN != 2 {
		t.Errorf("ASNs: %d %d", n1.ASN, n3.ASN)
	}
}

func TestUnmappedAddressesGetOwnNodes(t *testing.T) {
	g := New(aliasResolver)
	a := g.NodeFor(addr("203.0.113.1"))
	b := g.NodeFor(addr("203.0.113.2"))
	if a.ID == b.ID {
		t.Error("unmapped addresses merged")
	}
	again := g.NodeFor(addr("203.0.113.1"))
	if again.ID != a.ID {
		t.Error("repeat lookup created a new node")
	}
}

func TestAddLinkAndDegree(t *testing.T) {
	g := New(aliasResolver)
	g.AddLink(addr("10.1.0.1"), addr("10.2.0.1"))
	g.AddLink(addr("10.1.0.2"), addr("10.3.0.1")) // same router r1, alias
	g.AddLink(addr("10.1.0.1"), addr("10.2.0.9")) // duplicate link via alias
	n, _ := g.Lookup(addr("10.1.0.1"))
	if n.Degree() != 2 {
		t.Errorf("degree = %d, want 2", n.Degree())
	}
	if g.NumEdges() != 2 {
		t.Errorf("edges = %d, want 2", g.NumEdges())
	}
	// Self-links via aliases are ignored.
	g.AddLink(addr("10.1.0.1"), addr("10.1.0.5"))
	if g.NumEdges() != 2 {
		t.Error("self-link counted")
	}
}

func traceOf(addrs ...string) *probe.Trace {
	tr := &probe.Trace{Reached: true}
	for i, s := range addrs {
		h := probe.Hop{ProbeTTL: uint8(i + 1)}
		if s != "*" {
			h.Addr = addr(s)
		}
		tr.Hops = append(tr.Hops, h)
	}
	return tr
}

func TestAddTraceLinksConsecutiveHops(t *testing.T) {
	g := New(nil)
	g.AddTrace(traceOf("10.1.0.1", "10.2.0.1", "10.3.0.1"))
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Errorf("nodes/edges = %d/%d", g.NumNodes(), g.NumEdges())
	}
}

func TestAddTraceAnonymousBreaksAdjacency(t *testing.T) {
	g := New(nil)
	g.AddTrace(traceOf("10.1.0.1", "*", "10.3.0.1"))
	if g.NumEdges() != 0 {
		t.Error("link inferred across an anonymous hop")
	}
}

func TestDensity(t *testing.T) {
	g := New(nil)
	// Triangle: density 1.
	g.AddLink(addr("10.1.0.1"), addr("10.2.0.1"))
	g.AddLink(addr("10.2.0.1"), addr("10.3.0.1"))
	g.AddLink(addr("10.3.0.1"), addr("10.1.0.1"))
	if d := g.Density(); d != 1.0 {
		t.Errorf("triangle density = %f", d)
	}
}

func TestHDNsSortedByDegree(t *testing.T) {
	g := New(nil)
	center := addr("1.0.0.1")
	for i := 1; i <= 5; i++ {
		g.AddLink(center, netaddr.AddrFrom4(9, 0, 0, byte(i)))
	}
	hdns := g.HDNs(3)
	if len(hdns) != 1 || hdns[0].Addrs[0] != center {
		t.Errorf("HDNs = %+v", hdns)
	}
	if len(g.HDNs(6)) != 0 {
		t.Error("threshold not applied")
	}
}

func TestSubgraphOf(t *testing.T) {
	g := New(aliasResolver)
	g.AddLink(addr("10.1.0.1"), addr("10.2.0.1"))
	g.AddLink(addr("10.2.0.1"), addr("10.3.0.1"))
	g.AddLink(addr("10.1.0.1"), addr("203.0.113.1")) // outside
	sub := g.SubgraphOf(func(n *Node) bool { return n.ASN != 0 })
	if sub.NumNodes() != 3 || sub.NumEdges() != 2 {
		t.Errorf("subgraph = %d nodes / %d edges", sub.NumNodes(), sub.NumEdges())
	}
}

func TestSubgraphOfKeepsNodesWithoutKeptNeighbors(t *testing.T) {
	g := New(aliasResolver)
	g.AddLink(addr("10.1.0.1"), addr("10.2.0.1"))
	g.AddLink(addr("10.2.0.1"), addr("203.0.113.1"))
	g.AddLink(addr("203.0.113.1"), addr("10.3.0.1")) // r3's only link leaves the kept set
	sub := g.SubgraphOf(func(n *Node) bool { return n.ASN != 0 })
	if sub.NumNodes() != 3 || sub.NumEdges() != 1 {
		t.Fatalf("subgraph = %d nodes / %d edges, want 3 / 1", sub.NumNodes(), sub.NumEdges())
	}
	if d := sub.Density(); d != 1.0/3 {
		t.Errorf("density = %f, want 1/3", d)
	}
	r3, ok := sub.Lookup(addr("10.3.0.1"))
	if !ok || r3.Name != "r3" || r3.ASN != 3 || r3.Degree() != 0 {
		t.Errorf("isolated kept node: %+v, %v", r3, ok)
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := New(nil)
	g.AddLink(addr("1.0.0.1"), addr("1.0.0.2"))
	g.AddLink(addr("1.0.0.1"), addr("1.0.0.3"))
	h := g.DegreeHistogram()
	if h.N() != 3 || h.Count(2) != 1 || h.Count(1) != 2 {
		t.Errorf("degree histogram wrong: n=%d", h.N())
	}
}

func TestPathLengthHistogram(t *testing.T) {
	traces := []*probe.Trace{
		traceOf("10.1.0.1", "10.2.0.1", "10.3.0.1"),
		traceOf("10.1.0.1", "*", "10.3.0.1"),
		{Reached: false, Hops: []probe.Hop{{ProbeTTL: 1}}}, // incomplete: skipped
	}
	h := PathLengthHistogram(traces, nil)
	if h.N() != 2 {
		t.Fatalf("n = %d", h.N())
	}
	if h.Count(3) != 1 || h.Count(2) != 1 {
		t.Error("lengths wrong")
	}
	// With extra hops spliced in.
	h2 := PathLengthHistogram(traces, func(*probe.Trace) int { return 2 })
	if h2.Count(5) != 1 || h2.Count(4) != 1 {
		t.Error("extra hops not applied")
	}
}

func TestNodesDeterministicOrder(t *testing.T) {
	g := New(nil)
	for i := 5; i > 0; i-- {
		g.NodeFor(netaddr.AddrFrom4(9, 9, 9, byte(i)))
	}
	nodes := g.Nodes()
	for i := 1; i < len(nodes); i++ {
		if nodes[i].ID <= nodes[i-1].ID {
			t.Fatal("nodes not ordered by ID")
		}
	}
}

func TestAddPath(t *testing.T) {
	g := New(nil)
	g.AddPath([]netaddr.Addr{addr("1.0.0.1"), addr("1.0.0.2"), addr("1.0.0.2"), addr("1.0.0.3")})
	if g.NumEdges() != 2 {
		t.Errorf("edges = %d", g.NumEdges())
	}
}

func TestEmptyGraphMetrics(t *testing.T) {
	g := New(nil)
	if g.Density() != 0 || g.NumNodes() != 0 {
		t.Error("empty graph metrics nonzero")
	}
	if _, ok := g.Lookup(addr("1.2.3.4")); ok {
		t.Error("lookup on empty graph")
	}
}

func TestWriteDOT(t *testing.T) {
	g := New(nil)
	g.AddLink(addr("1.0.0.1"), addr("1.0.0.2"))
	g.AddLink(addr("1.0.0.2"), addr("1.0.0.3"))
	var sb strings.Builder
	err := g.WriteDOT(&sb, "test", func(n *Node) bool { return n.Degree() >= 2 })
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`graph "test"`, "n0 -- n1", "n1 -- n2", "fillcolor"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
	// Exactly one highlighted node (the middle one).
	if strings.Count(out, "fillcolor") != 1 {
		t.Errorf("highlight count wrong:\n%s", out)
	}
}

func TestAddTraceOneResponsiveHopAddsNoNode(t *testing.T) {
	g := New(nil)
	g.AddTrace(traceOf("*", "10.1.0.1", "*"))
	g.AddTrace(traceOf("10.2.0.1", "10.2.0.1"))
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Errorf("nodes/edges = %d/%d, want 0/0", g.NumNodes(), g.NumEdges())
	}
	if _, ok := g.Lookup(addr("10.1.0.1")); ok {
		t.Error("a hop that links to nothing got a node")
	}
}

func TestAddTraceAnonymousHopSplitsTrace(t *testing.T) {
	g := New(nil)
	g.AddTrace(traceOf("10.1.0.1", "*", "10.3.0.1", "10.4.0.1"))
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("nodes/edges = %d/%d, want 2/1", g.NumNodes(), g.NumEdges())
	}
	n, _ := g.Lookup(addr("10.3.0.1"))
	if nb := g.Neighbors(n); len(nb) != 1 || nb[0].Addrs[0] != addr("10.4.0.1") {
		t.Errorf("neighbors of 10.3.0.1 = %v", nb)
	}
}

func TestAddTraceEqualConsecutiveHopsAddNoLink(t *testing.T) {
	g := New(nil)
	g.AddTrace(traceOf("10.1.0.1", "10.1.0.1", "10.2.0.1", "10.2.0.1"))
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Errorf("nodes/edges = %d/%d, want 2/1", g.NumNodes(), g.NumEdges())
	}
	for _, n := range g.Nodes() {
		if n.Degree() != 1 {
			t.Errorf("%s: degree %d, want 1", n.Name, n.Degree())
		}
	}
}

func TestAliasesLinkingOneNeighborAddOneEdge(t *testing.T) {
	g := New(aliasResolver)
	g.AddTrace(traceOf("10.1.0.1", "10.2.0.1"))
	g.AddTrace(traceOf("10.1.0.2", "10.2.0.1"))
	g.AddTrace(traceOf("10.2.0.2", "10.1.0.3"))
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("nodes/edges = %d/%d, want 2/1", g.NumNodes(), g.NumEdges())
	}
	r1, _ := g.Lookup(addr("10.1.0.3"))
	if len(r1.Addrs) != 3 || r1.Degree() != 1 {
		t.Errorf("r1: %d addrs, degree %d; want 3, 1", len(r1.Addrs), r1.Degree())
	}
}

func TestNeighborsAscendAfterOutOfOrderLinks(t *testing.T) {
	g := New(nil)
	var leaves []*Node
	for i := 1; i <= 5; i++ {
		leaves = append(leaves, g.NodeFor(netaddr.AddrFrom4(9, 0, 0, byte(i))))
	}
	center := addr("1.0.0.1")
	for _, i := range []int{3, 0, 4, 1, 3, 2} {
		g.AddLink(center, leaves[i].Addrs[0])
	}
	c, _ := g.Lookup(center)
	nb := g.Neighbors(c)
	if len(nb) != 5 {
		t.Fatalf("degree %d, want 5", len(nb))
	}
	for i, n := range nb {
		if n != leaves[i] {
			t.Errorf("neighbor %d is node %d, want %d", i, n.ID, leaves[i].ID)
		}
		if back := g.Neighbors(n); len(back) != 1 || back[0] != c {
			t.Errorf("node %d: neighbors %v, want the center", n.ID, back)
		}
	}
}

func TestHDNsBreakDegreeTiesByID(t *testing.T) {
	g := New(nil)
	// Three hubs of degree 2, 3 and 2 (IDs ascending in that order).
	g.AddPath([]netaddr.Addr{addr("2.0.0.1"), addr("1.0.0.1"), addr("2.0.0.2")})
	g.AddPath([]netaddr.Addr{addr("2.0.0.3"), addr("1.0.0.2"), addr("2.0.0.4")})
	g.AddLink(addr("1.0.0.2"), addr("2.0.0.5"))
	g.AddPath([]netaddr.Addr{addr("2.0.0.6"), addr("1.0.0.3"), addr("2.0.0.7")})
	var got []string
	for _, n := range g.HDNs(2) {
		got = append(got, fmt.Sprintf("%s/%d", n.Addrs[0], n.Degree()))
	}
	want := "[1.0.0.2/3 1.0.0.1/2 1.0.0.3/2]"
	if fmt.Sprint(got) != want {
		t.Errorf("HDNs = %v, want %s", got, want)
	}
}

func TestReadsAndReplaysAllocateNothing(t *testing.T) {
	g := New(aliasResolver)
	tr := traceOf("10.1.0.1", "10.2.0.1", "*", "10.3.0.1", "10.4.0.1", "10.4.0.1", "10.5.0.1")
	g.AddTrace(tr)
	n, _ := g.Lookup(addr("10.4.0.1"))
	for name, fn := range map[string]func(){
		"Nodes":     func() { _ = g.Nodes() },
		"Neighbors": func() { _ = g.Neighbors(n) },
		"AddTrace":  func() { g.AddTrace(tr) },
	} {
		if a := testing.AllocsPerRun(100, fn); a != 0 {
			t.Errorf("%s: %.1f allocs per call, want 0", name, a)
		}
	}
	if g.NumNodes() != 5 || g.NumEdges() != 3 {
		t.Errorf("replays changed the graph: nodes/edges = %d/%d", g.NumNodes(), g.NumEdges())
	}
}
