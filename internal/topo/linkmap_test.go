package topo

import (
	"fmt"
	"slices"
	"testing"

	"wormhole/internal/netaddr"
	"wormhole/internal/probe"
)

// graphDiff describes the first difference between two graphs in node
// IDs, names, ASNs, address order, neighbors or edge count, or returns
// "" when there is none.
func graphDiff(want, got *Graph) string {
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		return fmt.Sprintf("nodes/edges = %d/%d, want %d/%d", got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	ids := func(ns []*Node) []NodeID {
		out := make([]NodeID, len(ns))
		for i, n := range ns {
			out[i] = n.ID
		}
		return out
	}
	for i, w := range want.Nodes() {
		g := got.Nodes()[i]
		if g.ID != w.ID || g.Name != w.Name || g.ASN != w.ASN || !slices.Equal(g.Addrs, w.Addrs) ||
			!slices.Equal(ids(got.Neighbors(g)), ids(want.Neighbors(w))) {
			return fmt.Sprintf("node %d: got %d %s AS%d %v nb=%v, want %d %s AS%d %v nb=%v", i,
				g.ID, g.Name, g.ASN, g.Addrs, ids(got.Neighbors(g)), w.ID, w.Name, w.ASN, w.Addrs, ids(want.Neighbors(w)))
		}
	}
	return ""
}

func TestLinkMapKeepsResolutionOrderAndDistinctLinks(t *testing.T) {
	m := NewLinkMap(1, 1) // sized below what it holds
	m.AddTrace(traceOf("10.1.0.1", "10.2.0.1", "*", "10.4.0.1", "10.3.0.1", "10.3.0.1", "10.2.0.2"))
	m.AddTrace(traceOf("10.3.0.1", "10.4.0.1", "10.9.0.1")) // 10.3.0.1–10.4.0.1 walked backwards
	m.AddTrace(traceOf("10.8.0.1", "*", "10.7.0.1"))        // links nothing
	want := []netaddr.Addr{addr("10.1.0.1"), addr("10.2.0.1"), addr("10.4.0.1"), addr("10.3.0.1"), addr("10.2.0.2"), addr("10.9.0.1")}
	if !slices.Equal(m.Addrs, want) {
		t.Errorf("Addrs = %v, want %v", m.Addrs, want)
	}
	if links := []Link{{0, 1}, {2, 3}, {3, 4}, {2, 5}}; !slices.Equal(m.Links, links) {
		t.Errorf("Links = %v, want %v", m.Links, links)
	}
}

// fuzzResolver names the fuzz test's addresses 10.0.0.1–10.0.0.40: every
// seventh is unresolved, and the others resolve to router r(N mod 13)
// in AS (N mod 13) mod 3 + 1, so several addresses name one router.
func fuzzResolver(a netaddr.Addr) (string, uint32, bool) {
	_, _, _, n := a.Octets()
	if n%7 == 0 {
		return "", 0, false
	}
	return fmt.Sprintf("r%d", n%13), uint32(n%13%3 + 1), true
}

// fuzzParts decodes data into up to four consecutive runs of traces:
// byte 0xfe ends a trace, 0xff ends a trace and its run (after the
// fourth run, only the trace), 0 is an anonymous hop, and any other byte
// b is a hop from 10.0.0.(b mod 40 + 1).
func fuzzParts(data []byte) [][]*probe.Trace {
	parts := [][]*probe.Trace{nil}
	tr := &probe.Trace{}
	for _, b := range data {
		switch {
		case b >= 0xfe:
			parts[len(parts)-1] = append(parts[len(parts)-1], tr)
			tr = &probe.Trace{}
			if b == 0xff && len(parts) < 4 {
				parts = append(parts, nil)
			}
		case b == 0:
			tr.Hops = append(tr.Hops, probe.Hop{})
		default:
			tr.Hops = append(tr.Hops, probe.Hop{Addr: netaddr.AddrFrom4(10, 0, 0, b%40+1)})
		}
	}
	parts[len(parts)-1] = append(parts[len(parts)-1], tr)
	return parts
}

// FuzzLinkMapReplay pins AddLinks to AddTrace: hop sequences with
// anonymous hops, repeated consecutive hops, aliases and unresolved
// addresses, cut into one to four consecutive runs, each folded into a
// link map, must build the graph sequential AddTrace builds, node IDs,
// names, ASNs, address order, neighbors and edge count included.
func FuzzLinkMapReplay(f *testing.F) {
	// One run of three traces: an anonymous hop, a repeated hop, two
	// addresses of r3 (10.0.0.3 and .16) and the unresolved .7 and .14.
	f.Add([]byte{1, 2, 0, 3, 3, 13, 0xfe, 3, 2, 26, 0xfe, 6, 15, 6, 12, 13})
	// Four runs that revisit each other's addresses in another order.
	f.Add([]byte{1, 2, 3, 4, 0xff, 4, 3, 27, 0xfe, 5, 0, 5, 6, 0xff, 16, 2, 1, 0xff, 39, 6, 15, 0xff, 1, 39})
	// Runs that link nothing, an unresolved address to a resolved one,
	// and only addresses of one router (.3, .16 and .29 name r3).
	f.Add([]byte{8, 0, 9, 0xff, 13, 26, 0xff, 0, 0, 0xff, 2, 15, 28})
	f.Fuzz(func(t *testing.T, data []byte) {
		want, got := New(fuzzResolver), New(fuzzResolver)
		for _, part := range fuzzParts(data) {
			var m LinkMap
			for _, tr := range part {
				want.AddTrace(tr)
				m.AddTrace(tr)
			}
			got.AddLinks(&m)
		}
		if d := graphDiff(want, got); d != "" {
			t.Fatal(d)
		}
	})
}
