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
// flow-trajectory cache, prober counters (probers are created fresh with
// the encoded settings, the only ones a distributed worker receives),
// and SPF results — a replica recomputes those from its own topology,
// decoded or snapshot alike, which is observationally identical and
// keeps the blob proportional to the data plane. Recomputation is on
// demand, except for a lazy world's core, pinned as the replica is made
// (pinCoreSPF) because stub fault-ins read it.
//
// Section layout (every section is [u32 id][u64 len][payload][u32 crc]):
//
//	header   magic "WSN1" + u16 version
//	1 params    the exact Build() input
//	2 netbasis  virtual clock, event seq, fabric counters
//	3 nodes     counting prelude + per-node records, fabric order
//	4 links     endpoint interface ids + delay/up
//	6 ases      AS metadata, router indices, TE history, lazy records
//	7 vps       host index, AS index, prober knobs
//	8 addrrecs  the sealed ground-truth address index
//	9 lazy      stub descriptors, span index, resident bitset
//
// Id 5 stays unused: version 4 blobs carried the fabric's address
// registry there, and the sealed ground-truth index (8) is the one
// address index.
//
// Interface identity on the wire is positional: walkIfaces over Nodes()
// in fabric order yields the global interface id space used by section
// 4. Node identity is the fabric node index, the same clone invariant the
// address index already relies on. Snapshot assembles its replica by the
// same two identities, so both replica paths build a fabric one way.

import (
	"errors"
	"fmt"
	"math"
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
	wireVersion = 6

	secParams   = 1
	secNetBasis = 2
	secNodes    = 3
	secLinks    = 4
	secASes     = 6
	secVPs      = 7
	secAddrRecs = 8
	secLazy     = 9
)

var errBadWire = errors.New("gen: corrupt snapshot encoding")

// nodeKind discriminates node records in the nodes section.
const (
	nodeRouter = 0
	nodeHost   = 1
)

// walkIfaces appends n's interfaces to dst in wire order: a router's data
// interfaces, then its loopback; a host's one interface. Over a fabric's
// nodes in order, an interface's position in the walk is its id: links
// name interfaces by it, on the wire and between a source and its
// snapshot.
func walkIfaces(dst []*netsim.Iface, n netsim.Node) []*netsim.Iface {
	switch v := n.(type) {
	case *router.Router:
		dst = append(dst, v.Ifaces()...)
		if lo := v.Loopback(); lo != nil {
			dst = append(dst, lo)
		}
	case *netsim.Host:
		dst = append(dst, v.If)
	}
	return dst
}

// sourceIndex is what EncodeWire and Snapshot read off a source fabric
// before they write its replica: the slab counts of its routers (the
// wire prelude, and the size of a snapshot's arena) and each interface's
// id.
type sourceIndex struct {
	stats router.WireStats
	ifIDs map[*netsim.Iface]int32
}

func indexSource(net *netsim.Network) sourceIndex {
	var x sourceIndex
	nodes := net.Nodes()
	for _, n := range nodes {
		if r, ok := n.(*router.Router); ok {
			x.stats.Count(r)
		}
	}
	x.ifIDs = make(map[*netsim.Iface]int32, x.stats.Ifaces+len(nodes)-x.stats.Routers)
	var buf []*netsim.Iface
	for _, n := range nodes {
		buf = walkIfaces(buf[:0], n)
		for _, ifc := range buf {
			x.ifIDs[ifc] = int32(len(x.ifIDs))
		}
	}
	return x
}

// ifaceID returns ifc's id; an interface that no node owns has none.
func (x sourceIndex) ifaceID(ifc *netsim.Iface) (int32, error) {
	id, ok := x.ifIDs[ifc]
	if !ok {
		return 0, fmt.Errorf("gen: interface %v not owned by any node", ifc.Addr)
	}
	return id, nil
}

// linkEnds returns the ids of l's endpoints.
func (x sourceIndex) linkEnds(l *netsim.Link) (int32, int32, error) {
	a, b := l.Endpoints()
	ia, err := x.ifaceID(a)
	if err != nil {
		return 0, 0, err
	}
	ib, err := x.ifaceID(b)
	return ia, ib, err
}

// nodeIndex returns n's fabric index: the id by which the wire names AS
// routers, TE paths and VP hosts, and by which Snapshot finds their
// replicas.
func nodeIndex(net *netsim.Network, n netsim.Node) (int32, error) {
	i, ok := net.IndexOf(n)
	if !ok {
		return 0, fmt.Errorf("gen: node %s not on the fabric", n.Name())
	}
	return i, nil
}

// EncodeWire serializes the fabric. It refuses a fabric with queued
// events.
func (in *Internet) EncodeWire() ([]byte, error) {
	if !in.Net.Quiescent() {
		return nil, errors.New("gen: cannot encode a fabric with queued events")
	}
	index := indexSource(in.Net)
	stats := index.stats
	nLinks := len(in.Net.Links())

	// Pre-size the buffer from the counting pass: growth reallocation is
	// the one avoidable cost at Large (~50MB) scale. A trie node costs 9
	// bytes and 4 more when it holds a value, one per route or binding.
	est := 1<<16 +
		stats.Routers*64 + stats.Ifaces*24 + stats.Locals*4 +
		stats.Routes*9 + stats.NHops*8 + stats.Binds*10 + stats.LHops*8 +
		stats.LFIB*10 + stats.TrieNodes*9 + (stats.Routes+stats.Binds)*4 +
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

	// 3: nodes.
	nodes := in.Net.Nodes()
	mark = w.BeginSection(secNodes)
	w.U32(uint32(len(nodes)))
	stats.Append(w)
	for _, n := range nodes {
		switch v := n.(type) {
		case *router.Router:
			w.U8(nodeRouter)
			v.AppendWire(w)
		case *netsim.Host:
			w.U8(nodeHost)
			w.String(v.Name())
			w.U8(v.InitTTL)
			w.String(v.If.Name)
			netaddr.AppendAddr(w, v.If.Addr)
			netaddr.AppendPrefix(w, v.If.Prefix)
		default:
			return nil, fmt.Errorf("gen: cannot encode node %q of type %T", n.Name(), n)
		}
	}
	w.EndSection(mark)

	// 4: links, fabric order.
	mark = w.BeginSection(secLinks)
	w.U32(uint32(nLinks))
	for _, l := range in.Net.Links() {
		ia, ib, err := index.linkEnds(l)
		if err != nil {
			return nil, err
		}
		w.I32(ia)
		w.I32(ib)
		w.I64(int64(l.Delay))
		w.Bool(l.Up)
	}
	w.EndSection(mark)

	// 6: ASes.
	mark = w.BeginSection(secASes)
	w.U32(uint32(len(in.ASes)))
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
				i, err := nodeIndex(in.Net, r)
				if err != nil {
					return nil, err
				}
				w.I32(i)
			}
		}
		// SPF state is never shipped: a replica recomputes from its own
		// routers on demand, which Compute() makes deterministic.
		w.Bool(as.hasSPF())
		w.U32(uint32(len(as.teTunnels)))
		for _, tn := range as.teTunnels {
			w.String(tn.Name)
			netaddr.AppendPrefix(w, tn.FEC)
			w.Bool(tn.UHP)
			w.U32(uint32(len(tn.Path)))
			for _, r := range tn.Path {
				i, err := nodeIndex(in.Net, r)
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
		hi, err := nodeIndex(in.Net, vp.Host)
		if err != nil {
			return nil, err
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
	if err := p.validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", errBadWire, err)
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

	// 3-4: nodes and links. Their counts size the replica fabric before
	// the first node is added.
	sec = rd.Section(secNodes)
	linkSec := rd.Section(secLinks)
	nNodes := sec.Count(1)
	stats := router.DecodeWireStats(sec)
	nLinks := linkSec.Count(17)
	for _, s := range [...]*wirefmt.Reader{sec, linkSec} {
		if err := s.Err(); err != nil {
			return nil, err
		}
	}
	net := netsim.New()
	net.SetWireBasis(clock, seq, fstats)
	net.Presize(nNodes, nLinks)
	out := &Internet{Net: net, params: p}

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
			ifs = walkIfaces(ifs, r)
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
			ifs = walkIfaces(ifs, h)
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
	sec = linkSec
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
	// decodeRec reads one ground-truth address record, which must name a
	// router and one of nAS ASes.
	decodeRec := func(rd *wirefmt.Reader, nAS int) addrRec {
		rec := addrRec{addr: netaddr.DecodeAddr(rd), node: rd.I32(), as: rd.I32()}
		if routerAt(rd, rec.node) == nil || rec.as < 0 || int(rec.as) >= nAS {
			rd.Fail(errBadWire)
		}
		return rec
	}

	// 6: ASes.
	sec = rd.Section(secASes)
	nAS := sec.Count(40)
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
		if as.index = sec.I32(); as.index != int32(i) {
			sec.Fail(errBadWire)
		}
		as.childFloor = sec.U32()
		as.nextSubnet = sec.U32()
		as.nextLo = sec.U32()
		for _, side := range [2]*[]*router.Router{&as.Core, &as.Edge} {
			n := sec.Count(4)
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
		nTE := sec.Count(10)
		for j := 0; j < nTE; j++ {
			tn := &rsvpte.Tunnel{}
			tn.Name = sec.String()
			tn.FEC = netaddr.DecodePrefix(sec)
			tn.UHP = sec.Bool()
			nPath := sec.Count(4)
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
		nRec := sec.Count(12)
		for j := 0; j < nRec; j++ {
			as.lazyRecs = append(as.lazyRecs, decodeRec(sec, nAS))
		}
		out.ASes = append(out.ASes, as)
		out.asByNum[as.Num] = as
	}
	if err := sec.Err(); err != nil {
		return nil, err
	}

	// 7: VPs.
	sec = rd.Section(secVPs)
	nVP := sec.Count(14)
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
		if method > probe.UDPParis || attempts < 1 || attempts > probe.MaxAttempts {
			return nil, fmt.Errorf("%w: vantage point %d probes by method %d with %d attempts", errBadWire, i, method, attempts)
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

	// 8: address index. lookupAddr's binary search needs it strictly
	// increasing by address, which also rules out a duplicate address.
	sec = rd.Section(secAddrRecs)
	nRec := sec.Count(12)
	out.addrRecs = make([]addrRec, 0, nRec)
	for i := 0; i < nRec; i++ {
		rec := decodeRec(sec, nAS)
		if i > 0 && rec.addr <= out.addrRecs[i-1].addr {
			sec.Fail(errBadWire)
		}
		out.addrRecs = append(out.addrRecs, rec)
	}
	if err := sec.Err(); err != nil {
		return nil, err
	}

	// 9: lazy plan.
	sec = rd.Section(secLazy)
	if sec.Bool() {
		lz := &lazyState{sealed: true}
		lz.deferred = sec.Bool()
		nDesc := sec.Count(32)
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
		nSpan := sec.Count(8)
		lz.spans = make([]stubSpan, 0, nSpan)
		for i := 0; i < nSpan; i++ {
			lz.spans = append(lz.spans, stubSpan{start: netaddr.DecodeAddr(sec), si: sec.I32()})
		}
		nWord := sec.Count(8)
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
	if out.lazy != nil {
		if err := out.checkPlan(out.lazy); err != nil {
			return nil, err
		}
	}
	if err := rd.Err(); err != nil {
		return nil, err
	}
	if err := out.pinCoreSPF(); err != nil {
		return nil, err
	}
	return out, nil
}

// checkPlan rejects a decoded lazy plan that a fault-in could not replay:
// every index it holds must be in range, and every stub that is not yet
// resident must still be the empty shell its descriptor plans, as Build
// leaves it. It returns nil for a plan EncodeWire wrote.
func (in *Internet) checkPlan(lz *lazyState) error {
	p := in.params
	asAt := func(i int32, t Tier) *ASInfo {
		if i < 0 || int(i) >= len(in.ASes) || in.ASes[i].Profile.Tier != t {
			return nil
		}
		return in.ASes[i]
	}
	if len(lz.resident) != (len(lz.descs)+63)/64 {
		return fmt.Errorf("%w: %d resident words for %d stubs", errBadWire, len(lz.resident), len(lz.descs))
	}
	for si, d := range lz.descs {
		as := asAt(d.asIndex, Stub)
		bad := as == nil || si > 0 && d.asIndex <= lz.descs[si-1].asIndex ||
			d.nProv < 1 || d.nProv > 2 || d.vp < -1 || int(d.vp) >= p.NumVPs ||
			int(d.nCore) < p.StubRouters[0] || int(d.nCore) > min(p.StubRouters[1], maxLoopbacks)
		for k := int32(0); !bad && k < d.nProv; k++ {
			prov := asAt(d.prov[k], Transit)
			bad = prov == nil || len(prov.Core) == 0 || !prov.hasSPF()
		}
		if !bad && !lz.resident.get(si) {
			bad = d.vp >= 0 || len(as.Core)+len(as.Edge)+len(as.teTunnels)+len(as.lazyRecs) > 0 ||
				as.nextLo != 0 || as.nextSubnet != 0 ||
				as.Aggregate.Bits() != 20 || as.childFloor != stubBlockSize-256
		}
		if bad {
			return fmt.Errorf("%w: stub descriptor %d", errBadWire, si)
		}
	}
	for _, sp := range lz.spans {
		if sp.si < 0 || int(sp.si) >= len(lz.descs) {
			return fmt.Errorf("%w: span names stub %d of %d", errBadWire, sp.si, len(lz.descs))
		}
	}
	return nil
}
