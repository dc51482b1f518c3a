package gen

// The snapshot wire codec: a versioned, zero-reflection binary format
// that carries a built Internet across a process boundary. EncodeWire
// serializes exactly the state a structural Snapshot() copies — router
// table arenas, interface records, links, hosts, AS metadata, the
// ground-truth address index, and the lazy-stub universe plan — as
// length-prefixed sections with per-section CRC-32C checksums (see
// internal/wirefmt). DecodeWire reconstructs a live fabric from the blob
// without replaying generation: the decoder sizes the same CloneArena a
// snapshot uses from a counting prelude, so a decode is a few slab
// allocations plus one linear parse, and the result is observationally
// identical to a Snapshot() replica of the encoded fabric.
//
// What never crosses the wire, mirroring Snapshot(): queued events
// (encode refuses a non-quiescent fabric), route caches, the
// flow-trajectory cache, prober state (probers are created fresh, then
// configured by the campaign), and SPF results — replicas recompute those
// from the decoded topology, which is observationally identical and keeps
// the blob proportional to the data plane. Recomputation is on demand,
// except for a lazy world's core: DecodeWire pins it before any churn can
// reach the fabric, because stub fault-ins read it.
//
// Section layout (every section is [u32 id][u64 len][payload][u32 crc]):
//
//	header   magic "WSN1" + u16 version
//	1 params    the exact Build() input
//	2 netbasis  virtual clock, event seq, fabric counters
//	3 nodes     counting prelude + per-node records, fabric order
//	4 links     endpoint interface ids + delay/up
//	5 regifaces registered interface ids, address-sorted
//	6 ases      AS metadata, router indices, TE history, lazy records
//	7 vps       host index, AS index, prober knobs
//	8 addrrecs  the sealed ground-truth address index
//	9 lazy      stub descriptors, span index, resident bitset
//
// Interface identity on the wire is positional: walking Nodes() in
// fabric order and, per router, its data interfaces then its loopback
// (per host, its single interface) yields the global interface id space
// used by sections 4 and 5. Node identity is the fabric node index, the
// same clone invariant the address index already relies on.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"wormhole/internal/netaddr"
	"wormhole/internal/netsim"
	"wormhole/internal/probe"
	"wormhole/internal/router"
	"wormhole/internal/rsvpte"
	"wormhole/internal/wirefmt"
)

const (
	wireMagic   = 0x314e5357 // "WSN1" little-endian
	wireVersion = 4

	secParams    = 1
	secNetBasis  = 2
	secNodes     = 3
	secLinks     = 4
	secRegIfaces = 5
	secASes      = 6
	secVPs       = 7
	secAddrRecs  = 8
	secLazy      = 9
)

var errBadWire = errors.New("gen: corrupt snapshot encoding")

// nodeKind discriminates node records in the nodes section.
const (
	nodeRouter = 0
	nodeHost   = 1
)

// EncodeWire serializes the fabric. It refuses a fabric with queued
// events.
func (in *Internet) EncodeWire() ([]byte, error) {
	if !in.Net.Quiescent() {
		return nil, errors.New("gen: cannot encode a fabric with queued events")
	}
	var stats router.WireStats
	nLinks := len(in.Net.Links())
	for _, n := range in.Net.Nodes() {
		if r, ok := n.(*router.Router); ok {
			stats.Count(r)
		}
	}

	// Pre-size the buffer from the counting pass: growth reallocation is
	// the one avoidable cost at Large (~50MB) scale. A trie node costs 9
	// bytes and 4 more when it holds a value, one per route or binding.
	est := 1<<16 +
		stats.Routers*64 + stats.Ifaces*28 + stats.Locals*4 +
		stats.Routes*9 + stats.NHops*8 + stats.Binds*10 + stats.LHops*10 +
		stats.Unders*4 + stats.LFIB*10 +
		stats.TrieNodes*9 + (stats.Routes+stats.Binds)*4 +
		nLinks*17 + len(in.addrRecs)*12 + len(in.ASes)*96
	if lz := in.lazy; lz != nil {
		est += len(lz.descs)*36 + len(lz.spans)*8 + len(lz.resident)*8
	}
	w := &wirefmt.Writer{Buf: make([]byte, 0, est)}
	w.U32(wireMagic)
	w.U16(wireVersion)

	// 1: params — every Build() input scalar, in struct order.
	mark := w.BeginSection(secParams)
	p := in.params
	w.I64(p.Seed)
	w.I64(int64(p.NumTier1))
	w.I64(int64(p.NumTransit))
	w.I64(int64(p.NumStub))
	for _, pair := range [...][2]int{p.Tier1Core, p.Tier1Edge, p.TransitCore, p.TransitEdge, p.StubRouters} {
		w.I64(int64(pair[0]))
		w.I64(int64(pair[1]))
	}
	for _, f := range [...]float64{p.MPLSFrac, p.NoPropagateFrac, p.UHPFrac, p.TEFrac,
		p.CiscoFrac, p.JuniperFrac, p.MixedFrac, p.TransitPeerProb} {
		w.U64(math.Float64bits(f))
	}
	w.I64(int64(p.NumVPs))
	w.I64(int64(p.MinDelay))
	w.I64(int64(p.MaxDelay))
	w.Bool(p.Regional)
	w.I64(int64(p.RegionDelay))
	w.Bool(p.Hierarchical)
	w.Bool(p.LazyStubs)
	w.EndSection(mark)

	// 2: netbasis.
	mark = w.BeginSection(secNetBasis)
	clock, seq, fstats := in.Net.WireBasis()
	w.I64(int64(clock))
	w.U64(seq)
	w.U64(fstats.Deliveries)
	w.U64(fstats.BudgetExhausted)
	w.U64(fstats.DroppedEvents)
	w.EndSection(mark)

	// 3: nodes. The global interface id space is defined by this walk.
	nodes := in.Net.Nodes()
	ifID := make(map[*netsim.Iface]int32, stats.Ifaces)
	mark = w.BeginSection(secNodes)
	w.U32(uint32(len(nodes)))
	stats.Append(w)
	for _, n := range nodes {
		switch v := n.(type) {
		case *router.Router:
			w.U8(nodeRouter)
			v.AppendWire(w)
			for _, ifc := range v.Ifaces() {
				ifID[ifc] = int32(len(ifID))
			}
			if lo := v.Loopback(); lo != nil {
				ifID[lo] = int32(len(ifID))
			}
		case *netsim.Host:
			w.U8(nodeHost)
			w.String(v.Name())
			w.U8(v.InitTTL)
			w.String(v.If.Name)
			netaddr.AppendAddr(w, v.If.Addr)
			netaddr.AppendPrefix(w, v.If.Prefix)
			ifID[v.If] = int32(len(ifID))
		default:
			return nil, fmt.Errorf("gen: cannot encode node %q of type %T", n.Name(), n)
		}
	}
	w.EndSection(mark)

	// 4: links, fabric order.
	mark = w.BeginSection(secLinks)
	w.U32(uint32(nLinks))
	for _, l := range in.Net.Links() {
		a, b := l.Endpoints()
		ia, okA := ifID[a]
		ib, okB := ifID[b]
		if !okA || !okB {
			return nil, fmt.Errorf("gen: link endpoint not owned by any node (%v-%v)", a.Addr, b.Addr)
		}
		w.I32(ia)
		w.I32(ib)
		w.I64(int64(l.Delay))
		w.Bool(l.Up)
	}
	w.EndSection(mark)

	// 5: registered interfaces, sorted by address so the blob is
	// deterministic (the registry is a map).
	mark = w.BeginSection(secRegIfaces)
	regs := in.Net.RegisteredIfaces()
	sort.Slice(regs, func(i, j int) bool { return regs[i].Addr < regs[j].Addr })
	w.U32(uint32(len(regs)))
	for _, ifc := range regs {
		id, ok := ifID[ifc]
		if !ok {
			return nil, fmt.Errorf("gen: registered interface %v not owned by any node", ifc.Addr)
		}
		w.I32(id)
	}
	w.EndSection(mark)

	// 6: ASes.
	mark = w.BeginSection(secASes)
	w.U32(uint32(len(in.ASes)))
	nodeIdx := func(r *router.Router) (int32, error) {
		i, ok := in.Net.IndexOf(r)
		if !ok {
			return 0, fmt.Errorf("gen: router %s not on the fabric", r.Name())
		}
		return i, nil
	}
	for _, as := range in.ASes {
		w.U32(as.Num)
		w.String(as.Name)
		w.U8(uint8(as.Profile.Tier))
		w.U8(uint8(as.Profile.Vendor))
		w.Bool(as.Profile.MPLS)
		w.Bool(as.Profile.Propagate)
		w.Bool(as.Profile.UHP)
		w.Bool(as.Profile.TE)
		w.U8(uint8(as.Profile.LDP))
		w.U64(math.Float64bits(as.X))
		w.U64(math.Float64bits(as.Y))
		netaddr.AppendPrefix(w, as.Aggregate)
		w.I32(as.index)
		w.U32(as.childFloor)
		w.U32(as.nextSubnet)
		w.U32(as.nextLo)
		for _, side := range [2][]*router.Router{as.Core, as.Edge} {
			w.U32(uint32(len(side)))
			for _, r := range side {
				i, err := nodeIdx(r)
				if err != nil {
					return nil, err
				}
				w.I32(i)
			}
		}
		// SPF state is never shipped: a replica recomputes from its own
		// routers on demand, which Compute() makes deterministic.
		w.Bool(as.spf != nil || as.spfMode != spfEager)
		w.U32(uint32(len(as.teTunnels)))
		for _, tn := range as.teTunnels {
			w.String(tn.Name)
			netaddr.AppendPrefix(w, tn.FEC)
			w.Bool(tn.UHP)
			w.U32(uint32(len(tn.Path)))
			for _, r := range tn.Path {
				i, err := nodeIdx(r)
				if err != nil {
					return nil, err
				}
				w.I32(i)
			}
		}
		w.U32(uint32(len(as.lazyRecs)))
		for _, rec := range as.lazyRecs {
			netaddr.AppendAddr(w, rec.addr)
			w.I32(rec.node)
			w.I32(rec.as)
		}
	}
	w.EndSection(mark)

	// 7: VPs.
	mark = w.BeginSection(secVPs)
	w.U32(uint32(len(in.VPs)))
	for _, vp := range in.VPs {
		hi, ok := in.Net.IndexOf(vp.Host)
		if !ok {
			return nil, fmt.Errorf("gen: VP host %q not on the fabric", vp.Host.Name())
		}
		w.I32(hi)
		w.I32(vp.AS.index)
		w.U8(uint8(vp.Prober.Method))
		w.U8(vp.Prober.FirstTTL)
		w.U8(vp.Prober.MaxTTL)
		w.I32(int32(vp.Prober.GapLimit))
		w.I32(int32(vp.Prober.Attempts))
		w.U16(vp.Prober.FlowID)
	}
	w.EndSection(mark)

	// 8: the ground-truth address index.
	mark = w.BeginSection(secAddrRecs)
	w.U32(uint32(len(in.addrRecs)))
	for _, rec := range in.addrRecs {
		netaddr.AppendAddr(w, rec.addr)
		w.I32(rec.node)
		w.I32(rec.as)
	}
	w.EndSection(mark)

	// 9: the lazy universe plan.
	mark = w.BeginSection(secLazy)
	if lz := in.lazy; lz != nil {
		w.Bool(true)
		w.Bool(lz.deferred)
		w.U32(uint32(len(lz.descs)))
		for _, d := range lz.descs {
			w.I64(d.seed)
			w.I32(d.asIndex)
			w.I32(d.prov[0])
			w.I32(d.prov[1])
			w.I32(d.nProv)
			w.I32(d.nCore)
			w.I32(d.vp)
		}
		w.U32(uint32(len(lz.spans)))
		for _, sp := range lz.spans {
			netaddr.AppendAddr(w, sp.start)
			w.I32(sp.si)
		}
		w.U32(uint32(len(lz.resident)))
		for _, word := range lz.resident {
			w.U64(word)
		}
		w.I64(int64(lz.residentStubs))
		w.I64(int64(lz.residentRouters))
		w.I64(int64(lz.coreRouters))
		w.I64(int64(lz.stubRouters))
	} else {
		w.Bool(false)
	}
	w.EndSection(mark)

	return w.Buf, nil
}

// wireCount reads a u32 count bounded by what the payload can hold (each
// element costs at least min bytes), so corrupt counts fail instead of
// driving a giant allocation.
func wireCount(rd *wirefmt.Reader, min int) int {
	n := int(rd.U32())
	if n < 0 || n > rd.Len()/min {
		rd.Fail(errBadWire)
		return 0
	}
	return n
}

// DecodeWire reconstructs a live fabric from an EncodeWire blob. Any
// corruption — truncation, a flipped bit, an out-of-range index —
// surfaces as an error (checksum failures as a *wirefmt.ChecksumError);
// the decoder never panics on hostile bytes.
func DecodeWire(buf []byte) (*Internet, error) {
	rd := wirefmt.NewReader(buf)
	if m := rd.U32(); m != wireMagic {
		if err := rd.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("gen: not a snapshot blob (magic %#x)", m)
	}
	if v := rd.U16(); v != wireVersion {
		if err := rd.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("gen: snapshot wire version %d not supported (want %d)", v, wireVersion)
	}

	// 1: params.
	sec := rd.Section(secParams)
	var p Params
	p.Seed = sec.I64()
	p.NumTier1 = int(sec.I64())
	p.NumTransit = int(sec.I64())
	p.NumStub = int(sec.I64())
	for _, pair := range [...]*[2]int{&p.Tier1Core, &p.Tier1Edge, &p.TransitCore, &p.TransitEdge, &p.StubRouters} {
		pair[0] = int(sec.I64())
		pair[1] = int(sec.I64())
	}
	for _, f := range [...]*float64{&p.MPLSFrac, &p.NoPropagateFrac, &p.UHPFrac, &p.TEFrac,
		&p.CiscoFrac, &p.JuniperFrac, &p.MixedFrac, &p.TransitPeerProb} {
		*f = math.Float64frombits(sec.U64())
	}
	p.NumVPs = int(sec.I64())
	p.MinDelay = time.Duration(sec.I64())
	p.MaxDelay = time.Duration(sec.I64())
	p.Regional = sec.Bool()
	p.RegionDelay = time.Duration(sec.I64())
	p.Hierarchical = sec.Bool()
	p.LazyStubs = sec.Bool()
	if err := sec.Err(); err != nil {
		return nil, err
	}

	// 2: netbasis.
	sec = rd.Section(secNetBasis)
	clock := time.Duration(sec.I64())
	seq := sec.U64()
	var fstats netsim.FabricStats
	fstats.Deliveries = sec.U64()
	fstats.BudgetExhausted = sec.U64()
	fstats.DroppedEvents = sec.U64()
	if err := sec.Err(); err != nil {
		return nil, err
	}
	net := netsim.New()
	net.SetWireBasis(clock, seq, fstats)

	out := &Internet{
		Net:    net,
		params: p,
		rng:    rand.New(rand.NewSource(p.Seed)),
	}

	// 3: nodes.
	sec = rd.Section(secNodes)
	nNodes := wireCount(sec, 1)
	stats := router.DecodeWireStats(sec)
	if err := sec.Err(); err != nil {
		return nil, err
	}
	arena := router.NewDecodeArena(stats)
	ifs := make([]*netsim.Iface, 0, stats.Ifaces)
	for i := 0; i < nNodes; i++ {
		switch kind := sec.U8(); kind {
		case nodeRouter:
			r := router.DecodeRouter(sec, arena)
			if err := sec.Err(); err != nil {
				return nil, err
			}
			net.AddNode(r)
			ifs = append(ifs, r.Ifaces()...)
			if lo := r.Loopback(); lo != nil {
				ifs = append(ifs, lo)
			}
		case nodeHost:
			name := sec.String()
			initTTL := sec.U8()
			ifName := sec.String()
			addr := netaddr.DecodeAddr(sec)
			prefix := netaddr.DecodePrefix(sec)
			if err := sec.Err(); err != nil {
				return nil, err
			}
			h := netsim.NewHost(name, addr, prefix)
			h.InitTTL = initTTL
			h.If.Name = ifName
			net.AddNode(h)
			ifs = append(ifs, h.If)
		default:
			return nil, fmt.Errorf("gen: unknown node kind %d in snapshot blob", kind)
		}
	}
	if err := sec.Err(); err != nil {
		return nil, err
	}

	ifByID := func(rd *wirefmt.Reader, id int32) *netsim.Iface {
		if id < 0 || int(id) >= len(ifs) {
			rd.Fail(errBadWire)
			return nil
		}
		return ifs[id]
	}

	// 4: links.
	sec = rd.Section(secLinks)
	nLinks := wireCount(sec, 17)
	net.ReserveLinks(nLinks)
	for i := 0; i < nLinks; i++ {
		a := ifByID(sec, sec.I32())
		b := ifByID(sec, sec.I32())
		delay := time.Duration(sec.I64())
		up := sec.Bool()
		if sec.Err() != nil {
			break
		}
		net.Connect(a, b, delay).Up = up
	}
	if err := sec.Err(); err != nil {
		return nil, err
	}

	// 5: registered interfaces.
	sec = rd.Section(secRegIfaces)
	nReg := wireCount(sec, 4)
	for i := 0; i < nReg; i++ {
		ifc := ifByID(sec, sec.I32())
		if sec.Err() != nil {
			break
		}
		if err := net.RegisterIface(ifc); err != nil {
			return nil, err
		}
	}
	if err := sec.Err(); err != nil {
		return nil, err
	}

	routerAt := func(rd *wirefmt.Reader, idx int32) *router.Router {
		if idx < 0 || int(idx) >= len(net.Nodes()) {
			rd.Fail(errBadWire)
			return nil
		}
		r, ok := net.Nodes()[idx].(*router.Router)
		if !ok {
			rd.Fail(errBadWire)
			return nil
		}
		return r
	}

	// 6: ASes.
	sec = rd.Section(secASes)
	nAS := wireCount(sec, 40)
	asSlab := make([]ASInfo, nAS)
	out.ASes = make([]*ASInfo, 0, nAS)
	out.asByNum = make(map[uint32]*ASInfo, nAS)
	for i := 0; i < nAS; i++ {
		as := &asSlab[i]
		as.Num = sec.U32()
		as.Name = sec.String()
		as.Profile.Tier = Tier(sec.U8())
		as.Profile.Vendor = Vendor(sec.U8())
		as.Profile.MPLS = sec.Bool()
		as.Profile.Propagate = sec.Bool()
		as.Profile.UHP = sec.Bool()
		as.Profile.TE = sec.Bool()
		as.Profile.LDP = router.LDPPolicy(sec.U8())
		as.X = math.Float64frombits(sec.U64())
		as.Y = math.Float64frombits(sec.U64())
		as.Aggregate = netaddr.DecodePrefix(sec)
		as.index = sec.I32()
		as.childFloor = sec.U32()
		as.nextSubnet = sec.U32()
		as.nextLo = sec.U32()
		for _, side := range [2]*[]*router.Router{&as.Core, &as.Edge} {
			n := wireCount(sec, 4)
			if n > 0 {
				*side = make([]*router.Router, 0, n)
				for j := 0; j < n; j++ {
					r := routerAt(sec, sec.I32())
					if r == nil {
						break
					}
					*side = append(*side, r)
				}
			}
		}
		if sec.Bool() {
			as.spfMode = spfRecompute
		}
		nTE := wireCount(sec, 10)
		for j := 0; j < nTE; j++ {
			tn := &rsvpte.Tunnel{}
			tn.Name = sec.String()
			tn.FEC = netaddr.DecodePrefix(sec)
			tn.UHP = sec.Bool()
			nPath := wireCount(sec, 4)
			tn.Path = make([]*router.Router, 0, nPath)
			for k := 0; k < nPath; k++ {
				r := routerAt(sec, sec.I32())
				if r == nil {
					break
				}
				tn.Path = append(tn.Path, r)
			}
			as.teTunnels = append(as.teTunnels, tn)
		}
		nRec := wireCount(sec, 12)
		for j := 0; j < nRec; j++ {
			as.lazyRecs = append(as.lazyRecs, addrRec{
				addr: netaddr.DecodeAddr(sec),
				node: sec.I32(),
				as:   sec.I32(),
			})
		}
		out.ASes = append(out.ASes, as)
		out.asByNum[as.Num] = as
	}
	if err := sec.Err(); err != nil {
		return nil, err
	}

	// 7: VPs.
	sec = rd.Section(secVPs)
	nVP := wireCount(sec, 14)
	for i := 0; i < nVP; i++ {
		hi := sec.I32()
		asIdx := sec.I32()
		method := probe.Method(sec.U8())
		firstTTL := sec.U8()
		maxTTL := sec.U8()
		gapLimit := int(sec.I32())
		attempts := int(sec.I32())
		flowID := sec.U16()
		if sec.Err() != nil {
			break
		}
		if hi < 0 || int(hi) >= len(net.Nodes()) || asIdx < 0 || int(asIdx) >= len(out.ASes) {
			return nil, errBadWire
		}
		host, ok := net.Nodes()[hi].(*netsim.Host)
		if !ok {
			return nil, errBadWire
		}
		pr := probe.New(net, host)
		pr.Method = method
		pr.FirstTTL = firstTTL
		pr.MaxTTL = maxTTL
		pr.GapLimit = gapLimit
		pr.Attempts = attempts
		pr.FlowID = flowID
		out.VPs = append(out.VPs, &VP{Host: host, Prober: pr, AS: out.ASes[asIdx]})
	}
	if err := sec.Err(); err != nil {
		return nil, err
	}

	// 8: address index.
	sec = rd.Section(secAddrRecs)
	nRec := wireCount(sec, 12)
	out.addrRecs = make([]addrRec, 0, nRec)
	for i := 0; i < nRec; i++ {
		out.addrRecs = append(out.addrRecs, addrRec{
			addr: netaddr.DecodeAddr(sec),
			node: sec.I32(),
			as:   sec.I32(),
		})
	}
	if err := sec.Err(); err != nil {
		return nil, err
	}

	// 9: lazy plan.
	sec = rd.Section(secLazy)
	if sec.Bool() {
		lz := &lazyState{sealed: true}
		lz.deferred = sec.Bool()
		nDesc := wireCount(sec, 32)
		lz.descs = make([]stubDesc, 0, nDesc)
		for i := 0; i < nDesc; i++ {
			lz.descs = append(lz.descs, stubDesc{
				seed:    sec.I64(),
				asIndex: sec.I32(),
				prov:    [2]int32{sec.I32(), sec.I32()},
				nProv:   sec.I32(),
				nCore:   sec.I32(),
				vp:      sec.I32(),
			})
		}
		nSpan := wireCount(sec, 8)
		lz.spans = make([]stubSpan, 0, nSpan)
		for i := 0; i < nSpan; i++ {
			lz.spans = append(lz.spans, stubSpan{start: netaddr.DecodeAddr(sec), si: sec.I32()})
		}
		nWord := wireCount(sec, 8)
		lz.resident = make(bitset, 0, nWord)
		for i := 0; i < nWord; i++ {
			lz.resident = append(lz.resident, sec.U64())
		}
		lz.residentStubs = int(sec.I64())
		lz.residentRouters = int(sec.I64())
		lz.coreRouters = int(sec.I64())
		lz.stubRouters = int(sec.I64())
		out.lazy = lz
		if lz.deferred {
			net.SetFaultInHook(out.faultInAddr)
		}
	}
	if err := sec.Err(); err != nil {
		return nil, err
	}
	if err := rd.Err(); err != nil {
		return nil, err
	}
	// A fault-in attaches the stub through its providers' SPF
	// (materializeStub). Pin every core SPF now, on the decoded built
	// topology, as the source's eager SPF and a snapshot's remap are:
	// computed on demand it would route around whatever link churn has
	// down at the first fault-in, and no repair undoes that attachment.
	if lz := out.lazy; lz != nil && lz.deferred {
		for _, as := range out.ASes {
			if as.Profile.Tier != Stub && as.spfMode == spfRecompute {
				if err := as.recomputeSPF(); err != nil {
					return nil, fmt.Errorf("gen: AS%d SPF: %w", as.Num, err)
				}
			}
		}
	}
	return out, nil
}
