package gen

import (
	"errors"
	"fmt"

	"wormhole/internal/netsim"
	"wormhole/internal/probe"
	"wormhole/internal/router"
	"wormhole/internal/rsvpte"
)

// Snapshot builds an independent replica of this Internet by structurally
// deep-copying the built state: every router (FIB, LFIB, bindings,
// personality, config, counters), link and host. The ground-truth address
// index is shared by reference (see addrRec). No control-plane
// computation is replayed, so a snapshot costs O(state) rather than
// O(convergence) — the fast path for parallel campaign workers. Like
// EncodeWire, it refuses a fabric with queued events.
//
// The replica is assembled the way DecodeWire assembles a decoded one:
// a presized fabric with the source's simulation basis, nodes added in
// source order with router tables carved from one arena, links connected
// by interface id (walkIfaces), and AS routers, TE paths and VP hosts
// found by node index. Replica ASInfo records and their Core/Edge
// pointer tables are carved from slabs sized in one pass, so a snapshot
// of a large fabric allocates a handful of arrays, not O(ASes) objects.
//
// The replica's probers are created fresh (counters zeroed) with the
// source's settings, as DecodeWire creates them from the blob's. SPF
// state is recomputed from the replica's own routers, as on a decoded
// replica: on demand, except for a lazy world's core, pinned here (see
// pinCoreSPF).
//
// Snapshot works on every built world. Rebuild, a generator replay,
// stays as its validation oracle.
func (in *Internet) Snapshot() (*Internet, error) {
	src := in.Net
	if !src.Quiescent() {
		return nil, errors.New("gen: cannot snapshot a fabric with queued events")
	}
	index := indexSource(src)
	net := netsim.New()
	net.SetWireBasis(src.WireBasis())
	net.Presize(len(src.Nodes()), len(src.Links()))

	arena := router.NewDecodeArena(index.stats)
	ifs := make([]*netsim.Iface, 0, len(index.ifIDs))
	for _, n := range src.Nodes() {
		var nn netsim.Node
		switch v := n.(type) {
		case *router.Router:
			nn = v.SnapshotInto(arena)
		case *netsim.Host:
			h := netsim.NewHost(v.Name(), v.If.Addr, v.If.Prefix)
			h.InitTTL = v.InitTTL
			h.If.Name = v.If.Name
			nn = h
		default:
			return nil, fmt.Errorf("gen: cannot snapshot node %q of type %T", n.Name(), n)
		}
		net.AddNode(nn)
		ifs = walkIfaces(ifs, nn)
	}
	for _, l := range src.Links() {
		a, b, err := index.linkEnds(l)
		if err != nil {
			return nil, err
		}
		net.Connect(ifs[a], ifs[b], l.Delay).Up = l.Up
	}
	// replicas appends the replica of each of rs to dst.
	replicas := func(dst, rs []*router.Router) ([]*router.Router, error) {
		for _, r := range rs {
			i, err := nodeIndex(src, r)
			if err != nil {
				return nil, err
			}
			dst = append(dst, net.Nodes()[i].(*router.Router))
		}
		return dst, nil
	}

	out := &Internet{
		Net:     net,
		asByNum: make(map[uint32]*ASInfo, len(in.ASes)),
		params:  in.params,
		// The ground-truth index holds node and AS indices, which are
		// clone invariants — shared by reference, never copied.
		addrRecs: in.addrRecs,
	}
	var nPtr int
	for _, as := range in.ASes {
		nPtr += len(as.Core) + len(as.Edge)
	}
	asSlab := make([]ASInfo, len(in.ASes))
	ptrSlab := make([]*router.Router, 0, nPtr)
	out.ASes = make([]*ASInfo, 0, len(in.ASes))
	for i, as := range in.ASes {
		na := &asSlab[i]
		na.Num = as.Num
		na.Name = as.Name
		na.Profile = as.Profile
		na.X, na.Y = as.X, as.Y
		na.Aggregate = as.Aggregate
		na.index = as.index
		na.childFloor = as.childFloor
		na.nextSubnet = as.nextSubnet
		na.nextLo = as.nextLo
		// Post-seal address records are per-stub and append-once at
		// materialization — shared by reference. (Node indices inside are
		// clone invariants, like addrRecs: the stub was resident at
		// snapshot time, so its nodes were cloned in order.)
		na.lazyRecs = as.lazyRecs

		var err error
		start := len(ptrSlab)
		if ptrSlab, err = replicas(ptrSlab, as.Core); err != nil {
			return nil, err
		}
		na.Core = ptrSlab[start:len(ptrSlab):len(ptrSlab)]
		start = len(ptrSlab)
		if ptrSlab, err = replicas(ptrSlab, as.Edge); err != nil {
			return nil, err
		}
		na.Edge = ptrSlab[start:len(ptrSlab):len(ptrSlab)]

		if as.hasSPF() {
			na.spfMode = spfRecompute
		}

		for _, tn := range as.teTunnels {
			// Remap the recorded TE signalling history so churn repair on
			// the replica replays the same label allocations.
			nt := &rsvpte.Tunnel{Name: tn.Name, FEC: tn.FEC, UHP: tn.UHP}
			if nt.Path, err = replicas(make([]*router.Router, 0, len(tn.Path)), tn.Path); err != nil {
				return nil, err
			}
			na.teTunnels = append(na.teTunnels, nt)
		}
		out.ASes = append(out.ASes, na)
		out.asByNum[na.Num] = na
	}
	for _, vp := range in.VPs {
		i, err := nodeIndex(src, vp.Host)
		if err != nil {
			return nil, err
		}
		host := net.Nodes()[i].(*netsim.Host)
		pr := probe.New(net, host)
		copyProber(pr, vp.Prober)
		out.VPs = append(out.VPs, &VP{Host: host, Prober: pr, AS: out.asByNum[vp.AS.Num]})
	}
	if lz := in.lazy; lz != nil {
		// Descriptors and the block index are immutable universe state —
		// shared. The resident set is copied: replicas fault stubs in
		// independently of the source and of each other.
		out.lazy = &lazyState{
			descs:           lz.descs,
			spans:           lz.spans,
			deferred:        lz.deferred,
			sealed:          true,
			resident:        append(bitset(nil), lz.resident...),
			residentStubs:   lz.residentStubs,
			residentRouters: lz.residentRouters,
			coreRouters:     lz.coreRouters,
			stubRouters:     lz.stubRouters,
		}
		if lz.deferred {
			out.Net.SetFaultInHook(out.faultInAddr)
		}
	}
	if err := out.pinCoreSPF(); err != nil {
		return nil, err
	}
	return out, nil
}

// copyProber sets dst's prober settings to src's.
func copyProber(dst, src *probe.Prober) {
	dst.Method, dst.FirstTTL, dst.MaxTTL = src.Method, src.FirstTTL, src.MaxTTL
	dst.GapLimit, dst.Attempts, dst.FlowID = src.GapLimit, src.Attempts, src.FlowID
}

// Rebuild builds an independent replica by replaying the generator with
// the original parameters — the validation oracle for Snapshot.
// Post-build mutations to the original are NOT carried over.
func (in *Internet) Rebuild() (*Internet, error) { return Build(in.params) }
