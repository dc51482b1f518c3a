package topo

import (
	"wormhole/internal/netaddr"
	"wormhole/internal/probe"
)

// LinkMap is the address-level image of a run of traces: the links
// Graph.AddTrace would add for them, before any address is resolved to a
// router. Addrs holds every address the graph would resolve, in the order
// it would first resolve it, and Links every distinct link once, as
// indices into Addrs. Graph.AddLinks turns a map into the graph its
// traces build, so traces can be reduced where they are probed and named
// where the resolver lives. The zero value is an empty map, as is
// NewLinkMap's, which is sized ahead.
type LinkMap struct {
	Addrs []netaddr.Addr
	Links []Link

	index map[netaddr.Addr]uint32 // by address: its index in Addrs
	seen  map[Link]struct{}
}

// NewLinkMap returns an empty map with room for about addrs addresses
// and links links.
func NewLinkMap(addrs, links int) *LinkMap {
	return &LinkMap{
		Addrs: make([]netaddr.Addr, 0, addrs),
		Links: make([]Link, 0, links),
		index: make(map[netaddr.Addr]uint32, addrs),
		seen:  make(map[Link]struct{}, links),
	}
}

// Link is an address-level link: two indices into LinkMap.Addrs, the
// lower first.
type Link struct{ A, B uint32 }

// AddTrace adds the links of one trace, walked as Graph.AddTrace walks
// them: an address is indexed where the graph would resolve it.
func (m *LinkMap) AddTrace(tr *probe.Trace) {
	if m.index == nil {
		m.index = make(map[netaddr.Addr]uint32)
		m.seen = make(map[Link]struct{})
	}
	var prev uint32 // the last link's far end
	w := linkWalk{hops: tr.Hops}
	for {
		a, b, chained, ok := w.next()
		if !ok {
			return
		}
		if !chained {
			prev = m.addr(a)
		}
		cur := m.addr(b)
		m.link(prev, cur)
		prev = cur
	}
}

// addr returns a's index in Addrs, appending a on its first call.
func (m *LinkMap) addr(a netaddr.Addr) uint32 {
	i, ok := m.index[a]
	if !ok {
		i = uint32(len(m.Addrs))
		m.index[a] = i
		m.Addrs = append(m.Addrs, a)
	}
	return i
}

// link records the link a–b once, whichever way it was walked.
func (m *LinkMap) link(a, b uint32) {
	l := Link{min(a, b), max(a, b)}
	if _, dup := m.seen[l]; !dup {
		m.seen[l] = struct{}{}
		m.Links = append(m.Links, l)
	}
}
