package router

// The router half of the snapshot wire codec (see internal/gen/wire.go
// for the fabric-level framing). A router's encoded form mirrors what
// SnapshotInto copies: identity and config scalars, the local-address
// list, the interface records, and the FIB/binding/LFIB table arenas with
// egress interfaces reduced to local indices — a router's tables only
// ever reference its own interfaces (the same invariant SnapshotInto
// leans on), so the index space is tiny and needs no fabric-wide table.
//
// Index convention: -1 is a nil interface, 0..n-1 the router's n data
// interfaces in order, and n the loopback. DecodeRouter carves the
// replica out of the same CloneArena snapshots use, sized up front by a
// WireStats prelude, so a fabric decode costs a handful of slab
// allocations just like a structural snapshot.

import (
	"errors"
	"time"

	"wormhole/internal/netaddr"
	"wormhole/internal/netsim"
	"wormhole/internal/wirefmt"
)

var errBadWire = errors.New("router: corrupt router encoding")

// WireStats counts, across a set of routers, every slab a CloneArena must
// pre-size; NewCloneArena counts through it too. It travels as the
// prelude of the wire nodes section so the decoder allocates once.
type WireStats struct {
	Routers   int
	Ifaces    int // interface records, loopbacks included
	IfPtrs    int // interface pointer slots (data interfaces only)
	Locals    int
	Routes    int
	NHops     int
	Binds     int
	LHops     int
	Unders    int
	LFIB      int
	TrieNodes int
}

// Count accumulates r's slab footprint into s.
func (s *WireStats) Count(r *Router) {
	s.Routers++
	s.IfPtrs += len(r.ifaces)
	s.Ifaces += len(r.ifaces)
	if r.loopback != nil {
		s.Ifaces++
	}
	s.Locals += len(r.locals)
	s.Routes += len(r.routes)
	s.Binds += len(r.binds)
	for i := range r.routes {
		s.NHops += len(r.routes[i].NextHops)
	}
	countLH := func(hops []LabelHop) {
		s.LHops += len(hops)
		for _, h := range hops {
			s.Unders += len(h.Under)
		}
	}
	for i := range r.binds {
		countLH(r.binds[i].NextHops)
	}
	for i := range r.lfib {
		countLH(r.lfib[i].NextHops)
	}
	s.LFIB += len(r.lfib)
	s.TrieNodes += r.fib.NodeCount() + r.bindings.NodeCount()
}

// Append writes the stats prelude.
func (s WireStats) Append(w *wirefmt.Writer) {
	for _, v := range [...]int{s.Routers, s.Ifaces, s.IfPtrs, s.Locals, s.Routes,
		s.NHops, s.Binds, s.LHops, s.Unders, s.LFIB, s.TrieNodes} {
		w.U64(uint64(v))
	}
}

// DecodeWireStats reverses Append. Every counted element is decoded from
// at least one byte of the payload that follows, so a count larger than
// the rest of the payload is corruption: it fails the reader before
// NewDecodeArena can size a slab from it.
func DecodeWireStats(r *wirefmt.Reader) WireStats {
	var s WireStats
	for _, p := range [...]*int{&s.Routers, &s.Ifaces, &s.IfPtrs, &s.Locals, &s.Routes,
		&s.NHops, &s.Binds, &s.LHops, &s.Unders, &s.LFIB, &s.TrieNodes} {
		v := r.U64()
		if v > uint64(r.Len()) {
			r.Fail(errBadWire)
			return WireStats{}
		}
		*p = int(v)
	}
	return s
}

// NewDecodeArena sizes a CloneArena from slab counts: a wire prelude, or
// NewCloneArena's own pass. DecodeRouter carves replicas out of it
// exactly as SnapshotInto does.
func NewDecodeArena(s WireStats) *CloneArena {
	return &CloneArena{
		routers: make([]Router, 0, s.Routers),
		ifrecs:  make([]netsim.Iface, 0, s.Ifaces),
		ifptrs:  make([]*netsim.Iface, 0, s.IfPtrs),
		locals:  make([]netaddr.Addr, 0, s.Locals),
		routes:  make([]Route, 0, s.Routes),
		binds:   make([]Binding, 0, s.Binds),
		nhops:   make([]NextHop, 0, s.NHops),
		lhops:   make([]LabelHop, 0, s.LHops),
		unders:  make([]uint32, 0, s.Unders),
		lfib:    make([]LFIBEntry, 0, s.LFIB),
		tries:   netaddr.NewTrieArena[int32](s.TrieNodes),
	}
}

// wireEnc resolves an interface pointer to its local index with the same
// last-hit cache CloneArena.iface uses (routes repeat the same egress).
type wireEnc struct {
	r       *Router
	lastIf  *netsim.Iface
	lastIdx int32
}

func (e *wireEnc) ifIdx(ifc *netsim.Iface) int32 {
	if ifc == nil {
		return -1
	}
	if ifc == e.lastIf {
		return e.lastIdx
	}
	for i, o := range e.r.ifaces {
		if o == ifc {
			e.lastIf, e.lastIdx = ifc, int32(i)
			return e.lastIdx
		}
	}
	if ifc == e.r.loopback {
		e.lastIf, e.lastIdx = ifc, int32(len(e.r.ifaces))
		return e.lastIdx
	}
	// Unreachable by the tables-reference-own-interfaces invariant; encode
	// it as nil rather than corrupting the index space.
	return -1
}

func appendIfaceRec(w *wirefmt.Writer, ifc *netsim.Iface) {
	w.String(ifc.Name)
	netaddr.AppendAddr(w, ifc.Addr)
	netaddr.AppendPrefix(w, ifc.Prefix)
}

func (e *wireEnc) appendLabelHops(w *wirefmt.Writer, hops []LabelHop) {
	w.U32(uint32(len(hops)))
	for i := range hops {
		h := &hops[i]
		w.I32(e.ifIdx(h.Out))
		w.U32(h.Label)
		if h.Under == nil {
			w.Bool(false)
		} else {
			w.Bool(true)
			w.U32(uint32(len(h.Under)))
			for _, u := range h.Under {
				w.U32(u)
			}
		}
	}
}

// AppendWire encodes the router.
func (r *Router) AppendWire(w *wirefmt.Writer) {
	e := wireEnc{r: r}

	w.String(r.name)
	w.String(r.os.Name)
	w.U8(r.os.TimeExceededTTL)
	w.U8(r.os.EchoReplyTTL)
	w.Bool(r.os.RFC4950)
	w.Bool(r.os.MinOnPop)
	w.Bool(r.os.ReplyFromOutgoing)
	w.Bool(r.cfg.TTLPropagate)
	w.U8(uint8(r.cfg.LDP))
	w.Bool(r.cfg.UHP)
	w.Bool(r.cfg.MPLSEnabled)
	w.Bool(r.cfg.Silent)
	w.Bool(r.cfg.NoICMPTimeExceeded)
	w.I64(int64(r.cfg.ICMPInterval))
	w.U32(r.nextLabel)
	w.I64(int64(r.lastICMP))
	w.Bool(r.icmpSent)

	w.U32(uint32(len(r.locals)))
	for _, a := range r.locals {
		netaddr.AppendAddr(w, a)
	}

	if r.loopback != nil {
		w.Bool(true)
		appendIfaceRec(w, r.loopback)
	} else {
		w.Bool(false)
	}
	w.U32(uint32(len(r.ifaces)))
	for _, ifc := range r.ifaces {
		appendIfaceRec(w, ifc)
	}

	netaddr.AppendTrie(w, &r.fib, (*wirefmt.Writer).I32)
	w.U32(uint32(len(r.routes)))
	for i := range r.routes {
		rt := &r.routes[i]
		w.U8(uint8(rt.Origin))
		netaddr.AppendAddr(w, rt.BGPNextHop)
		w.U32(uint32(len(rt.NextHops)))
		for _, nh := range rt.NextHops {
			w.I32(e.ifIdx(nh.Out))
			netaddr.AppendAddr(w, nh.Gateway)
		}
	}

	netaddr.AppendTrie(w, &r.bindings, (*wirefmt.Writer).I32)
	w.U32(uint32(len(r.binds)))
	for i := range r.binds {
		b := &r.binds[i]
		netaddr.AppendPrefix(w, b.FEC)
		e.appendLabelHops(w, b.NextHops)
	}

	w.U32(uint32(len(r.lfib)))
	for i := range r.lfib {
		f := &r.lfib[i]
		w.U32(f.InLabel)
		w.Bool(f.PopLocal)
		e.appendLabelHops(w, f.NextHops)
	}
}

// wireDec resolves local interface indices on a partially decoded router.
func wireDecIface(rd *wirefmt.Reader, nr *Router, idx int32) *netsim.Iface {
	switch {
	case idx == -1:
		return nil
	case idx >= 0 && int(idx) < len(nr.ifaces):
		return nr.ifaces[idx]
	case int(idx) == len(nr.ifaces) && nr.loopback != nil:
		return nr.loopback
	default:
		rd.Fail(errBadWire)
		return nil
	}
}

// count reads a u32 element count and sanity-bounds it: each element
// costs at least min bytes on the wire, so a count the payload cannot
// hold is corruption, caught before any allocation can balloon.
func count(rd *wirefmt.Reader, min int) int {
	n := int(rd.U32())
	if n < 0 || n > rd.Len()/min {
		rd.Fail(errBadWire)
		return 0
	}
	return n
}

func decodeLabelHops(rd *wirefmt.Reader, nr *Router, ar *CloneArena) []LabelHop {
	n := count(rd, 9)
	start := len(ar.lhops)
	for i := 0; i < n; i++ {
		h := LabelHop{Out: wireDecIface(rd, nr, rd.I32()), Label: rd.U32()}
		if rd.Bool() {
			nu := count(rd, 4)
			u := len(ar.unders)
			for j := 0; j < nu; j++ {
				ar.unders = append(ar.unders, rd.U32())
			}
			h.Under = ar.unders[u:len(ar.unders):len(ar.unders)]
		}
		ar.lhops = append(ar.lhops, h)
	}
	return ar.lhops[start:len(ar.lhops):len(ar.lhops)]
}

// DecodeRouter reverses AppendWire, carving the router and its tables out
// of ar. The result is not yet attached to a fabric: the caller adds it
// as a node, connects links, and registers interfaces, exactly as the
// generator did for the original. Corrupt input surfaces through the
// reader's sticky error; the decoder never panics on hostile bytes.
func DecodeRouter(rd *wirefmt.Reader, ar *CloneArena) *Router {
	var nr *Router
	if len(ar.routers) < cap(ar.routers) {
		ar.routers = append(ar.routers, Router{})
		nr = &ar.routers[len(ar.routers)-1]
	} else {
		nr = &Router{}
	}
	nr.name = rd.String()
	nr.os.Name = rd.String()
	nr.os.TimeExceededTTL = rd.U8()
	nr.os.EchoReplyTTL = rd.U8()
	nr.os.RFC4950 = rd.Bool()
	nr.os.MinOnPop = rd.Bool()
	nr.os.ReplyFromOutgoing = rd.Bool()
	nr.cfg.TTLPropagate = rd.Bool()
	nr.cfg.LDP = LDPPolicy(rd.U8())
	nr.cfg.UHP = rd.Bool()
	nr.cfg.MPLSEnabled = rd.Bool()
	nr.cfg.Silent = rd.Bool()
	nr.cfg.NoICMPTimeExceeded = rd.Bool()
	nr.cfg.ICMPInterval = time.Duration(rd.I64())
	nr.nextLabel = rd.U32()
	nr.lastICMP = time.Duration(rd.I64())
	nr.icmpSent = rd.Bool()

	nLocal := count(rd, 4)
	lstart := len(ar.locals)
	for i := 0; i < nLocal; i++ {
		ar.locals = append(ar.locals, netaddr.DecodeAddr(rd))
	}
	nr.locals = ar.locals[lstart:len(ar.locals):len(ar.locals)]

	if rd.Bool() {
		lo := ar.takeIface()
		lo.Owner = nr
		lo.Name = rd.String()
		lo.Addr = netaddr.DecodeAddr(rd)
		lo.Prefix = netaddr.DecodePrefix(rd)
		nr.loopback = lo
	}
	nIf := count(rd, 13)
	pstart := len(ar.ifptrs)
	for i := 0; i < nIf; i++ {
		ni := ar.takeIface()
		ni.Owner = nr
		ni.Name = rd.String()
		ni.Addr = netaddr.DecodeAddr(rd)
		ni.Prefix = netaddr.DecodePrefix(rd)
		ar.ifptrs = append(ar.ifptrs, ni)
	}
	nr.ifaces = ar.ifptrs[pstart:len(ar.ifptrs):len(ar.ifptrs)]

	nr.fib = netaddr.DecodeTrieInto(rd, ar.tries, (*wirefmt.Reader).I32)
	nRoute := count(rd, 9)
	rstart := len(ar.routes)
	for i := 0; i < nRoute; i++ {
		rt := Route{Origin: Origin(rd.U8()), BGPNextHop: netaddr.DecodeAddr(rd)}
		nNH := count(rd, 8)
		start := len(ar.nhops)
		for j := 0; j < nNH; j++ {
			ar.nhops = append(ar.nhops, NextHop{
				Out:     wireDecIface(rd, nr, rd.I32()),
				Gateway: netaddr.DecodeAddr(rd),
			})
		}
		rt.NextHops = ar.nhops[start:len(ar.nhops):len(ar.nhops)]
		ar.routes = append(ar.routes, rt)
	}
	nr.routes = ar.routes[rstart:len(ar.routes):len(ar.routes)]

	nr.bindings = netaddr.DecodeTrieInto(rd, ar.tries, (*wirefmt.Reader).I32)
	nBind := count(rd, 9)
	bstart := len(ar.binds)
	for i := 0; i < nBind; i++ {
		b := Binding{FEC: netaddr.DecodePrefix(rd)}
		b.NextHops = decodeLabelHops(rd, nr, ar)
		ar.binds = append(ar.binds, b)
	}
	nr.binds = ar.binds[bstart:len(ar.binds):len(ar.binds)]

	nLFIB := count(rd, 9)
	fstart := len(ar.lfib)
	for i := 0; i < nLFIB; i++ {
		f := LFIBEntry{InLabel: rd.U32(), PopLocal: rd.Bool()}
		f.NextHops = decodeLabelHops(rd, nr, ar)
		ar.lfib = append(ar.lfib, f)
	}
	nr.lfib = ar.lfib[fstart:len(ar.lfib):len(ar.lfib)]

	return nr
}
