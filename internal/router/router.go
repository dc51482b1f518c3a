package router

import (
	"fmt"
	"time"

	"wormhole/internal/netaddr"
	"wormhole/internal/netsim"
	"wormhole/internal/packet"
)

// Router is an emulated Label Switching Router (or plain IP router when
// MPLS is disabled). It implements netsim.Node.
type Router struct {
	name string
	os   Personality
	cfg  Config

	loopback *netsim.Iface
	ifaces   []*netsim.Iface
	// locals lists every address the router answers for (loopback plus
	// interface addresses). A router has a handful, so a linear scan beats
	// a map on the hot path and the slice snapshots as a memcpy carve.
	locals []netaddr.Addr

	// The FIB and binding tables store their entries in per-router arenas
	// (routes, binds) with the tries mapping prefix → arena index. The
	// index tries are pointer-free, so a structural snapshot clones them
	// with a memcpy and copies the arenas with one sequential sweep.
	// Pointers returned by lookups point into the arenas and stay valid
	// until the next Install/Delete on the same table.
	//
	// The LFIB is a dense slice indexed by incoming label: labels are
	// allocated sequentially from firstLabel (reserved labels sit below),
	// so the table is nearly full and clones as one memcpy. A slot is
	// occupied iff it pops locally or has next hops — InstallLFIB never
	// stores an entry with neither.
	fib      netaddr.Trie[int32]
	routes   []Route
	bindings netaddr.Trie[int32]
	binds    []Binding
	lfib     []LFIBEntry

	nextLabel uint32
	lastICMP  time.Duration
	icmpSent  bool

	// net is the fabric this router has been delivering on, wired lazily
	// by Receive. Mutation hooks use it to flush the fabric-wide
	// flow-trajectory cache; a nil net (router never traversed) is fine —
	// a router no recorded flow has crossed cannot invalidate one.
	// Snapshot replicas start with it nil and re-wire on their own fabric.
	net *netsim.Network

	// routeCache is a small direct-mapped cache over forward()'s FIB
	// lookup and binding resolution, keyed on destination address.
	// Campaign probes hit the same handful of destinations (the probe dst
	// and each VP's reply dst) per drain, so even four entries absorb
	// nearly every lookup. Any FIB/binding/config mutation invalidates it.
	routeCache [routeCacheSize]routeCacheEntry
}

// firstLabel is the first non-reserved MPLS label (RFC 3032 reserves 0-15).
const firstLabel = 16

// routeCacheSize must stay a power of two (the index is a bit mask).
const (
	routeCacheSize = 4
	routeCacheMask = routeCacheSize - 1
)

type routeCacheEntry struct {
	valid   bool
	dst     netaddr.Addr
	prefix  netaddr.Prefix
	rt      *Route
	binding *Binding // resolved imposition entry; nil for plain IP forwarding
}

// invalidateRouteCache drops every cached forwarding decision. Called on
// any mutation that could change a lookup result.
func (r *Router) invalidateRouteCache() {
	r.routeCache = [routeCacheSize]routeCacheEntry{}
}

// mutated records a control-plane change: it flushes the local route
// cache and the fabric-wide flow-trajectory cache, which memoizes
// forwarding decisions this router contributed to.
func (r *Router) mutated() {
	r.invalidateRouteCache()
	if r.net != nil {
		// Scoped: inside a churn event batch this router joins the
		// event's mask; outside one this is the full flush.
		r.net.InvalidateFlowCacheScoped(r)
	}
}

// FlowCacheable implements netsim.FlowCacheable: the fabric's
// flow-trajectory cache may only memoize through routers whose reply
// behaviour is time-independent, which excludes ICMP rate limiting.
func (r *Router) FlowCacheable() bool { return r.cfg.ICMPInterval == 0 }

// New creates a router with the given OS personality and configuration.
func New(name string, os Personality, cfg Config) *Router {
	return &Router{
		name:      name,
		os:        os,
		cfg:       cfg,
		nextLabel: firstLabel,
	}
}

// Name implements netsim.Node.
func (r *Router) Name() string { return r.name }

// Personality returns the router's OS personality.
func (r *Router) Personality() Personality { return r.os }

// Config returns the router's configuration.
func (r *Router) Config() Config { return r.cfg }

// SetConfig replaces the configuration (emulation scenarios reconfigure
// routers between runs).
func (r *Router) SetConfig(cfg Config) {
	r.cfg = cfg
	r.mutated()
}

// AddIface attaches a new interface bearing addr within prefix. The
// interface must still be connected via netsim.Network.Connect.
func (r *Router) AddIface(name string, addr netaddr.Addr, prefix netaddr.Prefix) *netsim.Iface {
	ifc := &netsim.Iface{Owner: r, Name: name, Addr: addr, Prefix: prefix}
	r.ifaces = append(r.ifaces, ifc)
	r.locals = append(r.locals, addr)
	return ifc
}

// SetLoopback assigns the loopback /32; LDP host-routes policies advertise
// labels for exactly these.
func (r *Router) SetLoopback(addr netaddr.Addr) *netsim.Iface {
	r.loopback = &netsim.Iface{Owner: r, Name: "lo0", Addr: addr, Prefix: netaddr.HostPrefix(addr)}
	r.locals = append(r.locals, addr)
	return r.loopback
}

// Loopback returns the loopback interface (nil if unset).
func (r *Router) Loopback() *netsim.Iface { return r.loopback }

// Ifaces returns the physical interfaces (loopback excluded).
func (r *Router) Ifaces() []*netsim.Iface { return r.ifaces }

// IsLocal reports whether addr is one of the router's own addresses.
func (r *Router) IsLocal(addr netaddr.Addr) bool {
	for _, a := range r.locals {
		if a == addr {
			return true
		}
	}
	return false
}

// InstallRoute adds or replaces a FIB entry. The route is copied into the
// router's arena; the caller's struct is not retained.
func (r *Router) InstallRoute(p netaddr.Prefix, rt *Route) {
	if len(rt.NextHops) == 0 {
		panic(fmt.Sprintf("router %s: route for %s with no next hops", r.name, p))
	}
	r.mutated()
	if idx, ok := r.fib.Get(p); ok {
		r.routes[idx] = *rt
		return
	}
	r.routes = append(r.routes, *rt)
	r.fib.Insert(p, int32(len(r.routes)-1))
}

// LookupRoute resolves dst through the FIB (tests and control-plane
// builders use it). The returned pointer is valid until the next FIB
// mutation.
func (r *Router) LookupRoute(dst netaddr.Addr) (netaddr.Prefix, *Route, bool) {
	p, idx, ok := r.fib.LookupPrefix(dst)
	if !ok {
		return p, nil, false
	}
	return p, &r.routes[idx], true
}

// GetRoute returns the FIB entry for exactly p, without LPM semantics.
// The returned pointer is valid until the next FIB mutation.
func (r *Router) GetRoute(p netaddr.Prefix) (*Route, bool) {
	idx, ok := r.fib.Get(p)
	if !ok {
		return nil, false
	}
	return &r.routes[idx], true
}

// DeleteRoute removes the FIB entry for exactly p (BGP withdrawals). The
// arena slot goes dead; withdrawals are far too rare to compact for.
func (r *Router) DeleteRoute(p netaddr.Prefix) bool {
	r.mutated()
	return r.fib.Delete(p)
}

// WalkRoutes visits every FIB entry.
func (r *Router) WalkRoutes(fn func(netaddr.Prefix, *Route) bool) {
	r.fib.Walk(func(p netaddr.Prefix, idx int32) bool { return fn(p, &r.routes[idx]) })
}

// InstallBinding adds or replaces a label-imposition entry for a FEC. The
// binding is copied into the router's arena; the caller's struct is not
// retained.
func (r *Router) InstallBinding(b *Binding) {
	r.mutated()
	if idx, ok := r.bindings.Get(b.FEC); ok {
		r.binds[idx] = *b
		return
	}
	r.binds = append(r.binds, *b)
	r.bindings.Insert(b.FEC, int32(len(r.binds)-1))
}

// InstallLFIB adds an incoming-label entry. The entry is copied into the
// router's dense label table; the caller's struct is not retained. An
// entry must either pop locally or carry next hops — the zero shape marks
// empty slots.
func (r *Router) InstallLFIB(e *LFIBEntry) {
	if !e.PopLocal && len(e.NextHops) == 0 {
		panic(fmt.Sprintf("router %s: LFIB entry for label %d with no action", r.name, e.InLabel))
	}
	if n := int(e.InLabel) + 1; n > len(r.lfib) {
		if n > cap(r.lfib) {
			grown := make([]LFIBEntry, n)
			copy(grown, r.lfib)
			r.lfib = grown
		} else {
			r.lfib = r.lfib[:n]
		}
	}
	r.lfib[e.InLabel] = *e
	r.mutated()
}

// lfibEntry resolves an incoming label against the dense table, nil when
// the slot is out of range or empty.
func (r *Router) lfibEntry(label uint32) *LFIBEntry {
	if int(label) >= len(r.lfib) {
		return nil
	}
	e := &r.lfib[label]
	if !e.PopLocal && len(e.NextHops) == 0 {
		return nil
	}
	return e
}

// ClearMPLS removes all label state (scenario reconfiguration).
func (r *Router) ClearMPLS() {
	r.bindings = netaddr.Trie[int32]{}
	r.binds = nil
	clear(r.lfib) // stale slots must not resurface when the table regrows
	r.lfib = r.lfib[:0]
	r.nextLabel = firstLabel
	r.mutated()
}

// AllocLabel returns a fresh label from the router's platform-wide space.
func (r *Router) AllocLabel() uint32 {
	l := r.nextLabel
	r.nextLabel++
	return l
}

// Receive implements netsim.Node.
func (r *Router) Receive(net *netsim.Network, in *netsim.Iface, pkt *packet.Packet) {
	if r.net == nil {
		r.net = net
	}
	if pkt.Labeled() {
		if !r.cfg.MPLSEnabled {
			return
		}
		r.receiveMPLS(net, in, pkt)
		return
	}
	r.receiveIP(net, in, pkt)
}

// ---- Plain IP path ----

func (r *Router) receiveIP(net *netsim.Network, in *netsim.Iface, pkt *packet.Packet) {
	if r.IsLocal(pkt.IP.Dst) {
		r.deliverLocal(net, pkt)
		return
	}
	if pkt.IP.TTL <= 1 {
		r.sendTimeExceeded(net, in, pkt)
		return
	}
	fwd := net.PacketPool().Clone(pkt)
	fwd.IP.TTL--
	r.forward(net, fwd)
}

// Originate routes a locally-generated packet (no TTL decrement).
func (r *Router) Originate(net *netsim.Network, pkt *packet.Packet) {
	r.forward(net, pkt)
}

// forward performs the FIB lookup, label imposition when a binding covers
// the packet's FEC, and transmission. TTL adjustments have already been
// made by the caller. Lookup and binding resolution go through the
// per-destination route cache; both are pure functions of (FIB, bindings,
// config, dst), which is exactly what invalidateRouteCache guards.
func (r *Router) forward(net *netsim.Network, pkt *packet.Packet) {
	dst := pkt.IP.Dst
	e := &r.routeCache[uint32(dst)&routeCacheMask]
	if !e.valid || e.dst != dst {
		matched, idx, ok := r.fib.LookupPrefix(dst)
		if !ok {
			if net != nil { // Originate permits a nil fabric
				net.PacketPool().Release(pkt)
			}
			return
		}
		rt := &r.routes[idx]
		var b *Binding
		if r.cfg.MPLSEnabled {
			b = r.lookupBinding(matched, rt, dst)
		}
		*e = routeCacheEntry{valid: true, dst: dst, prefix: matched, rt: rt, binding: b}
	}
	if e.binding != nil {
		r.impose(net, pkt, e.binding)
		return
	}
	nh := ecmpNextHop(e.rt.NextHops, pkt)
	net.Transmit(nh.Out, pkt)
}

// lookupBinding resolves the FEC for a route per Sec. 3.2: BGP routes are
// switched toward the BGP next hop's FEC; IGP routes toward the matched
// prefix itself (only when LDP advertised exactly that FEC, keeping LSPs
// congruent with the IGP); connected routes are never labeled (the router
// is the egress).
func (r *Router) lookupBinding(matched netaddr.Prefix, rt *Route, dst netaddr.Addr) *Binding {
	switch rt.Origin {
	case OriginConnected:
		return nil
	case OriginBGP:
		if rt.BGPNextHop.IsUnspecified() {
			return nil
		}
		// The longest bound FEC covering the next hop: its loopback /32,
		// or a containing prefix that all-prefix LDP bound.
		if _, idx, ok := r.bindings.LookupPrefix(rt.BGPNextHop); ok {
			return &r.binds[idx]
		}
		return nil
	default:
		idx, ok := r.bindings.Get(matched)
		if !ok {
			return nil
		}
		return &r.binds[idx]
	}
}

// impose pushes the FEC's label (or forwards unlabeled for implicit null)
// and transmits.
func (r *Router) impose(net *netsim.Network, pkt *packet.Packet, b *Binding) {
	hop := ecmpLabelHop(b.NextHops, pkt)
	lseTTL := uint8(255)
	lseProp := false // lineage of the imposed TTL: 255 is a constant seed
	if r.cfg.TTLPropagate {
		lseTTL = pkt.IP.TTL
		lseProp = pkt.LineageIP()
	}
	// Deeper labels first (segment lists), then the top label. The pushes
	// mutate in place: the packet is exclusively ours here (a pooled clone
	// or a locally originated reply). Growing through the pool keeps the
	// common impose-on-unlabeled-clone case allocation-free.
	if need := len(pkt.MPLS) + len(hop.Under) + 1; net != nil && cap(pkt.MPLS) < need {
		pkt.MPLS = net.PacketPool().GrowStack(pkt.MPLS, need)
	}
	for i := len(hop.Under) - 1; i >= 0; i-- {
		pkt.MPLS.PushInPlace(packet.LSE{Label: hop.Under[i], TTL: lseTTL})
		if pkt.Mark != 0 {
			pkt.PushLineage(lseProp)
		}
	}
	switch hop.Label {
	case OutLabelImplicitNull:
		// PHP pre-applied: nothing more on the wire for the top segment.
		net.Transmit(hop.Out, pkt)
	default:
		pkt.MPLS.PushInPlace(packet.LSE{Label: hop.Label, TTL: lseTTL})
		if pkt.Mark != 0 {
			pkt.PushLineage(lseProp)
		}
		net.Transmit(hop.Out, pkt)
	}
}

// ---- MPLS path ----

func (r *Router) receiveMPLS(net *netsim.Network, in *netsim.Iface, pkt *packet.Packet) {
	r.switchMPLS(net, in, pkt, true)
}

// switchMPLS performs one label operation. decrement is false when the
// packet is being re-processed at the same router after an inner label
// surfaced (a router charges the TTL once per hop, not once per label).
func (r *Router) switchMPLS(net *netsim.Network, in *netsim.Iface, pkt *packet.Packet, decrement bool) {
	top, _ := pkt.MPLS.Top()
	entry := r.lfibEntry(top.Label)
	if entry == nil {
		return
	}
	newTTL := top.TTL
	if decrement {
		if top.TTL <= 1 {
			r.mplsExpired(net, in, pkt, entry)
			return
		}
		newTTL = top.TTL - 1
	} else if top.TTL == 0 {
		r.mplsExpired(net, in, pkt, entry)
		return
	}

	if entry.PopLocal {
		r.disposeUHP(net, in, pkt, newTTL)
		return
	}

	hop := ecmpLabelHop(entry.NextHops, pkt)
	fwd := net.PacketPool().Clone(pkt)
	switch hop.Label {
	case OutLabelImplicitNull:
		// Penultimate-hop pop. The min(IP, LSE) loop guard is applied
		// here, statelessly, whatever the ingress propagation setting —
		// this is the leak FRPLA and RTLA measure.
		topProp := false
		if fwd.Mark != 0 {
			topProp = fwd.PopLineage()
		}
		fwd.MPLS.PopInPlace()
		if fwd.MPLS.Empty() {
			if r.os.MinOnPop {
				if fwd.Mark != 0 {
					net.NoteTTLMin(newTTL, fwd.IP.TTL, topProp, fwd.LineageIP())
				}
				if newTTL < fwd.IP.TTL {
					fwd.IP.TTL = newTTL
					fwd.SetLineageIP(topProp)
				}
			}
		} else if r.os.MinOnPop {
			if fwd.Mark != 0 {
				net.NoteTTLMin(newTTL, fwd.MPLS[0].TTL, topProp, fwd.LineageTop())
			}
			if newTTL < fwd.MPLS[0].TTL {
				fwd.MPLS[0].TTL = newTTL
				fwd.SetLineageTop(topProp)
			}
		}
		// PHP forwards to the LFIB next hop directly; no IP lookup and no
		// IP TTL decrement happen at the popping LSR.
		net.Transmit(hop.Out, fwd)
	default:
		// Swap (possibly to explicit null for a UHP egress downstream).
		fwd.MPLS[0] = packet.LSE{Label: hop.Label, TTL: newTTL, Bottom: fwd.MPLS[0].Bottom}
		net.Transmit(hop.Out, fwd)
	}
}

// disposeUHP handles the egress's own pop of an explicit-null label.
// With ttl-propagate the egress behaves like an IP hop (min copy, expiry
// check). Without it — the invisible case — the IP TTL is decremented with
// no expiry check and no min copy: the TTL check already happened at the
// MPLS layer, so the tunnel *and the egress* stay invisible (Fig. 4d).
func (r *Router) disposeUHP(net *netsim.Network, in *netsim.Iface, pkt *packet.Packet, lseTTL uint8) {
	fwd := net.PacketPool().Clone(pkt)
	topProp := false
	if fwd.Mark != 0 {
		topProp = fwd.PopLineage()
	}
	fwd.MPLS.PopInPlace()
	if !fwd.MPLS.Empty() {
		// Nested tunnels: propagate the TTL downward and keep switching —
		// without a second decrement at this router.
		if r.os.MinOnPop {
			if fwd.Mark != 0 {
				net.NoteTTLMin(lseTTL, fwd.MPLS[0].TTL, topProp, fwd.LineageTop())
			}
			if lseTTL < fwd.MPLS[0].TTL {
				fwd.MPLS[0].TTL = lseTTL
				fwd.SetLineageTop(topProp)
			}
		}
		r.switchMPLS(net, in, fwd, false)
		// switchMPLS clones again before transmitting; this intermediate
		// copy is done.
		net.PacketPool().Release(fwd)
		return
	}
	if r.cfg.TTLPropagate {
		if fwd.Mark != 0 {
			net.NoteTTLMin(lseTTL, fwd.IP.TTL, topProp, fwd.LineageIP())
		}
		if lseTTL < fwd.IP.TTL {
			fwd.IP.TTL = lseTTL
			fwd.SetLineageIP(topProp)
		}
		if r.IsLocal(fwd.IP.Dst) {
			r.deliverLocal(net, fwd)
			net.PacketPool().Release(fwd)
			return
		}
		if fwd.IP.TTL == 0 {
			r.sendTimeExceeded(net, in, fwd)
			net.PacketPool().Release(fwd)
			return
		}
		r.forward(net, fwd)
		return
	}
	if r.IsLocal(fwd.IP.Dst) {
		r.deliverLocal(net, fwd)
		net.PacketPool().Release(fwd)
		return
	}
	if fwd.IP.TTL > 0 {
		fwd.IP.TTL--
	}
	r.forward(net, fwd)
}

// mplsExpired generates the time-exceeded for an LSE TTL expiry and
// forwards it the way real LSRs do: by applying the expired packet's own
// LFIB entry. A swap sends the reply down the remaining LSP to the tunnel
// tail before it can turn around (the +k return TTLs of Fig. 4a); a pop
// leaves a plain IP reply that is routed — and possibly re-tunneled —
// immediately.
func (r *Router) mplsExpired(net *netsim.Network, in *netsim.Iface, pkt *packet.Packet, entry *LFIBEntry) {
	if r.cfg.Silent || r.cfg.NoICMPTimeExceeded || !r.icmpAllowed(net) {
		return
	}
	pool := net.PacketPool()
	te := r.buildTimeExceeded(net, in, pkt)
	if r.os.RFC4950 {
		ext := pool.Extension()
		ext.LabelStack = pool.CloneStack(pkt.MPLS)
		te.ICMP.Ext = ext
	}

	if entry.PopLocal {
		r.Originate(net, te)
		return
	}
	hop := ecmpLabelHop(entry.NextHops, pkt)
	switch hop.Label {
	case OutLabelImplicitNull:
		if len(pkt.MPLS) > 1 {
			// Still labeled below the popped entry: ride the rest of the LSP.
			te.MPLS = pool.CloneStack(pkt.MPLS[1:])
			for i := range te.MPLS {
				te.MPLS[i].TTL = r.os.TimeExceededTTL
			}
			net.Transmit(hop.Out, te)
			return
		}
		// Pop exposes plain IP: route the reply from here.
		r.Originate(net, te)
	default:
		stack := pool.Stack(1)
		stack[0] = packet.LSE{Label: hop.Label, TTL: r.os.TimeExceededTTL, Bottom: true}
		te.MPLS = stack
		net.Transmit(hop.Out, te)
	}
}

// ---- ICMP generation ----

func (r *Router) buildTimeExceeded(net *netsim.Network, in *netsim.Iface, pkt *packet.Packet) *packet.Packet {
	pool := net.PacketPool()
	te := pool.Packet()
	te.IP = packet.IPv4{
		TTL:      r.os.TimeExceededTTL,
		Protocol: packet.ProtoICMP,
		Src:      in.Addr,
		Dst:      pkt.IP.Src,
	}
	icmp := pool.ICMP()
	icmp.Type = packet.ICMPTimeExceeded
	icmp.Code = packet.CodeTTLExpired
	icmp.Quote = quoteOf(pool, pkt)
	te.ICMP = icmp
	return te
}

func (r *Router) sendTimeExceeded(net *netsim.Network, in *netsim.Iface, pkt *packet.Packet) {
	if r.cfg.Silent || r.cfg.NoICMPTimeExceeded || !r.icmpAllowed(net) {
		return
	}
	r.Originate(net, r.buildTimeExceeded(net, in, pkt))
}

// icmpAllowed applies the ICMPInterval rate limit against virtual time.
func (r *Router) icmpAllowed(net *netsim.Network) bool {
	if r.cfg.ICMPInterval == 0 || net == nil {
		return true
	}
	now := net.Now()
	if r.icmpSent && now-r.lastICMP < r.cfg.ICMPInterval {
		return false
	}
	r.lastICMP = now
	r.icmpSent = true
	return true
}

func (r *Router) deliverLocal(net *netsim.Network, pkt *packet.Packet) {
	if r.cfg.Silent {
		return
	}
	pool := net.PacketPool()
	switch {
	case pkt.IP.Protocol == packet.ProtoICMP && pkt.ICMP != nil && pkt.ICMP.Type == packet.ICMPEchoRequest:
		reply := pool.Packet()
		reply.IP = packet.IPv4{
			TTL:      r.os.EchoReplyTTL,
			Protocol: packet.ProtoICMP,
			Src:      pkt.IP.Dst, // reply from the targeted address
			Dst:      pkt.IP.Src,
		}
		icmp := pool.ICMP()
		icmp.Type, icmp.ID, icmp.Seq = packet.ICMPEchoReply, pkt.ICMP.ID, pkt.ICMP.Seq
		reply.ICMP = icmp
		reply.PayloadLen = pkt.PayloadLen
		r.Originate(net, reply)
	case pkt.IP.Protocol == packet.ProtoUDP && pkt.UDP != nil:
		src := pkt.IP.Dst
		if r.os.ReplyFromOutgoing {
			// Source the unreachable from the interface the reply leaves
			// through (Mercator's alias signal).
			if _, rt, ok := r.LookupRoute(pkt.IP.Src); ok {
				src = ecmpNextHop(rt.NextHops, pkt).Out.Addr
			}
		}
		reply := pool.Packet()
		reply.IP = packet.IPv4{
			TTL:      r.os.TimeExceededTTL,
			Protocol: packet.ProtoICMP,
			Src:      src,
			Dst:      pkt.IP.Src,
		}
		icmp := pool.ICMP()
		icmp.Type = packet.ICMPDestUnreach
		icmp.Code = packet.CodePortUnreach
		icmp.Quote = quoteOf(pool, pkt)
		reply.ICMP = icmp
		r.Originate(net, reply)
	default:
		// Anything else addressed to the router (ICMP errors and replies,
		// other protocols): consumed.
	}
}

func quoteOf(pool *packet.Pool, pkt *packet.Packet) *packet.Quote {
	q := pool.Quote()
	q.IP = pkt.IP
	switch {
	case pkt.ICMP != nil:
		q.ICMPType, q.ICMPCode = pkt.ICMP.Type, pkt.ICMP.Code
		q.ID, q.Seq = pkt.ICMP.ID, pkt.ICMP.Seq
	case pkt.UDP != nil:
		q.ID, q.Seq = pkt.UDP.SrcPort, pkt.UDP.DstPort
	}
	return q
}
