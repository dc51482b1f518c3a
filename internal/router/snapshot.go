package router

import (
	"wormhole/internal/netaddr"
	"wormhole/internal/netsim"
)

// CloneArena bump-allocates everything a router snapshot needs — the
// Router structs themselves, interface records, local-address lists,
// route/binding/LFIB tables, next-hop and label-hop slices, and the trie
// nodes behind the FIB and binding indexes — out of a few contiguous
// slabs sized by one linear counting pass. One arena serves every router
// of a fabric snapshot: replica routers are index ranges into fabric-wide
// arrays rather than per-router heap objects, so Snapshot() degenerates
// to a handful of slab memcpys plus interface-pointer remaps, and the GC
// scans a few large objects instead of hundreds of thousands of small
// ones.
//
// Appends stay within the pre-counted capacities, so sub-slices carved
// from the slabs are stable and may be retained by the cloned tables.
// Every carve is capacity-clipped: a replica that later grows a table
// (churn reconvergence installing a new prefix) reallocates privately
// instead of clobbering its arena neighbor.
//
// It also resolves source→replica interface pointers locally: a router's
// tables only ever reference its own handful of interfaces (the invariant
// that lets SnapshotInto clone tables before the rest of the fabric exists),
// so a linear scan of a small array — with a last-hit cache, since routes
// repeat the same egress — needs no fabric-wide map.
type CloneArena struct {
	routers []Router
	ifrecs  []netsim.Iface
	ifptrs  []*netsim.Iface
	locals  []netaddr.Addr
	routes  []Route
	binds   []Binding
	nhops   []NextHop
	lhops   []LabelHop
	lfib    []LFIBEntry
	tries   *netaddr.TrieArena[int32]

	oldIfs           []*netsim.Iface
	newIfs           []*netsim.Iface
	lastOld, lastNew *netsim.Iface
}

// takeIface carves one interface record from the slab. Records beyond the
// reserved capacity fall back to private allocations (the slab must not
// reallocate: earlier pointers are retained by the fabric).
func (ar *CloneArena) takeIface() *netsim.Iface {
	if len(ar.ifrecs) == cap(ar.ifrecs) {
		return &netsim.Iface{}
	}
	ar.ifrecs = append(ar.ifrecs, netsim.Iface{})
	return &ar.ifrecs[len(ar.ifrecs)-1]
}

// beginRouter loads the interface old→new pairs for the router being
// snapshot, reusing the backing arrays across routers.
func (ar *CloneArena) beginRouter(r, nr *Router) {
	ar.oldIfs = ar.oldIfs[:0]
	ar.newIfs = ar.newIfs[:0]
	for i, ifc := range r.ifaces {
		ar.oldIfs = append(ar.oldIfs, ifc)
		ar.newIfs = append(ar.newIfs, nr.ifaces[i])
	}
	if r.loopback != nil {
		ar.oldIfs = append(ar.oldIfs, r.loopback)
		ar.newIfs = append(ar.newIfs, nr.loopback)
	}
	ar.lastOld, ar.lastNew = nil, nil
}

func (ar *CloneArena) iface(ifc *netsim.Iface) *netsim.Iface {
	if ifc == nil {
		return nil
	}
	if ifc == ar.lastOld {
		return ar.lastNew
	}
	for i, o := range ar.oldIfs {
		if o == ifc {
			ar.lastOld, ar.lastNew = o, ar.newIfs[i]
			return ar.lastNew
		}
	}
	return nil
}

// SnapshotInto deep-copies the router, carving the replica and its table
// data out of ar (one arena, sized by NewDecodeArena from the WireStats of
// every router, serves a whole fabric snapshot). Everything the data
// plane reads is copied — personality, config, FIB, bindings, LFIB — with
// interface pointers remapped onto freshly carved replica interfaces (a
// router's tables only ever reference its own interfaces, so all mappings
// exist before the tables are cloned). The replica is not attached to any
// fabric: the caller adds it and connects its interfaces.
//
// The index tries clone as memcpy carves of the shared trie arena (they
// hold arena indices, not pointers); the route, binding, and dense LFIB
// arenas copy with one sequential sweep each, remapping egress interfaces
// as they go.
func (r *Router) SnapshotInto(ar *CloneArena) *Router {
	var nr *Router
	if len(ar.routers) < cap(ar.routers) {
		ar.routers = append(ar.routers, Router{})
		nr = &ar.routers[len(ar.routers)-1]
	} else {
		nr = &Router{}
	}
	nr.name = r.name
	nr.os = r.os
	nr.cfg = r.cfg
	nr.nextLabel = r.nextLabel
	nr.lastICMP = r.lastICMP
	nr.icmpSent = r.icmpSent

	lstart := len(ar.locals)
	ar.locals = append(ar.locals, r.locals...)
	nr.locals = ar.locals[lstart:len(ar.locals):len(ar.locals)]

	if r.loopback != nil {
		lo := ar.takeIface()
		lo.Owner, lo.Name, lo.Addr, lo.Prefix = nr, r.loopback.Name, r.loopback.Addr, r.loopback.Prefix
		nr.loopback = lo
	}
	pstart := len(ar.ifptrs)
	for _, ifc := range r.ifaces {
		ni := ar.takeIface()
		ni.Owner, ni.Name, ni.Addr, ni.Prefix = nr, ifc.Name, ifc.Addr, ifc.Prefix
		ar.ifptrs = append(ar.ifptrs, ni)
	}
	nr.ifaces = ar.ifptrs[pstart:len(ar.ifptrs):len(ar.ifptrs)]

	ar.beginRouter(r, nr)
	nr.fib = r.fib.CloneInto(ar.tries, nil)
	rstart := len(ar.routes)
	for i := range r.routes {
		rt := &r.routes[i]
		start := len(ar.nhops)
		for _, nh := range rt.NextHops {
			ar.nhops = append(ar.nhops, NextHop{Out: ar.iface(nh.Out), Gateway: nh.Gateway})
		}
		ar.routes = append(ar.routes, Route{
			Origin:     rt.Origin,
			BGPNextHop: rt.BGPNextHop,
			NextHops:   ar.nhops[start:len(ar.nhops):len(ar.nhops)],
		})
	}
	nr.routes = ar.routes[rstart:len(ar.routes):len(ar.routes)]

	nr.bindings = r.bindings.CloneInto(ar.tries, nil)
	bstart := len(ar.binds)
	for i := range r.binds {
		b := &r.binds[i]
		ar.binds = append(ar.binds, Binding{FEC: b.FEC, NextHops: ar.remapLabelHops(b.NextHops)})
	}
	nr.binds = ar.binds[bstart:len(ar.binds):len(ar.binds)]

	fstart := len(ar.lfib)
	ar.lfib = append(ar.lfib, r.lfib...)
	nr.lfib = ar.lfib[fstart:len(ar.lfib):len(ar.lfib)]
	for i := range nr.lfib {
		if hops := nr.lfib[i].NextHops; len(hops) > 0 {
			nr.lfib[i].NextHops = ar.remapLabelHops(hops)
		}
	}
	return nr
}

func (ar *CloneArena) remapLabelHops(hops []LabelHop) []LabelHop {
	start := len(ar.lhops)
	for _, h := range hops {
		ar.lhops = append(ar.lhops, LabelHop{Out: ar.iface(h.Out), Label: h.Label})
	}
	return ar.lhops[start:len(ar.lhops):len(ar.lhops)]
}
