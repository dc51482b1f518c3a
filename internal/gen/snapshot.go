package gen

import (
	"fmt"
	"math/rand"

	"wormhole/internal/netsim"
	"wormhole/internal/probe"
	"wormhole/internal/router"
	"wormhole/internal/rsvpte"
)

// snapCtx carries the old→new pointer translation of one structural
// snapshot for ASes that defer their SPF remap. One context is shared by
// every deferred AS of the snapshot, so the per-AS cost is two pointer
// stores — no closures, no per-AS allocations.
type snapCtx struct {
	router func(*router.Router) *router.Router
	iface  func(*netsim.Iface) *netsim.Iface
}

// Snapshot builds an independent replica of this Internet by structurally
// deep-copying the built state: every router (FIB, LFIB, bindings,
// personality, config, counters), link, host, SPF result, and the
// ground-truth address index. No control-plane computation is replayed, so
// a snapshot costs O(state) rather than O(convergence) — the fast path for
// parallel campaign workers.
//
// Replica ASInfo records and their Core/Edge pointer tables are carved
// from slabs sized in one pass, mirroring router.CloneArena: a snapshot of
// a large fabric allocates a handful of arrays, not O(ASes) objects.
//
// Probers are created fresh on the replica (counters zeroed), matching what
// a generator replay would produce; campaign workers reconfigure them from
// the campaign config anyway.
//
// Snapshot works on every built world. Rebuild, a generator replay,
// stays as its validation oracle.
func (in *Internet) Snapshot() (*Internet, error) {
	c, err := in.Net.BeginSnapshot()
	if err != nil {
		return nil, err
	}
	srcRouters := make([]*router.Router, 0, len(in.Net.Nodes()))
	for _, n := range in.Net.Nodes() {
		if r, ok := n.(*router.Router); ok {
			srcRouters = append(srcRouters, r)
		}
	}
	// One arena serves every router: table data for the whole replica
	// lands in a handful of contiguous slabs.
	arena := router.NewCloneArena(srcRouters)
	routers := make(map[*router.Router]*router.Router, len(srcRouters))
	for _, n := range in.Net.Nodes() {
		switch v := n.(type) {
		case *router.Router:
			routers[v] = v.SnapshotInto(c, arena)
		case *netsim.Host:
			v.Snapshot(c)
		default:
			return nil, fmt.Errorf("gen: cannot snapshot node %q of type %T", n.Name(), n)
		}
	}
	if err := c.Finish(); err != nil {
		return nil, err
	}

	out := &Internet{
		Net:     c.Net(),
		asByNum: make(map[uint32]*ASInfo, len(in.ASes)),
		params:  in.params,
		rng:     rand.New(rand.NewSource(in.params.Seed)),
		// The ground-truth index holds node and AS indices, which are
		// clone invariants — shared by reference, never copied.
		addrRecs: in.addrRecs,
	}
	ctx := &snapCtx{
		router: func(r *router.Router) *router.Router { return routers[r] },
		iface:  c.Iface,
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

		start := len(ptrSlab)
		for _, r := range as.Core {
			ptrSlab = append(ptrSlab, routers[r])
		}
		na.Core = ptrSlab[start:len(ptrSlab):len(ptrSlab)]
		start = len(ptrSlab)
		for _, r := range as.Edge {
			ptrSlab = append(ptrSlab, routers[r])
		}
		na.Edge = ptrSlab[start:len(ptrSlab):len(ptrSlab)]

		// SPF state stays lazy on the replica: campaign workers never
		// read it, and an eager Remap costs as much as cloning the AS's
		// router tables. Materialized or remappable source results defer
		// to a remap through the shared context; streamed stubs that
		// dropped their build-time SPF recompute locally on demand.
		switch {
		case as.spf != nil || as.spfMode == spfRemap:
			na.spfMode = spfRemap
			na.snapSrc = as
			na.snapCtx = ctx
		case as.spfMode == spfRecompute:
			na.spfMode = spfRecompute
		}

		for _, tn := range as.teTunnels {
			// Remap the recorded TE signalling history so churn repair on
			// the replica replays the same label allocations.
			nt := &rsvpte.Tunnel{Name: tn.Name, FEC: tn.FEC, UHP: tn.UHP}
			nt.Path = make([]*router.Router, len(tn.Path))
			for i, r := range tn.Path {
				nt.Path[i] = routers[r]
			}
			na.teTunnels = append(na.teTunnels, nt)
		}
		out.ASes = append(out.ASes, na)
		out.asByNum[na.Num] = na
	}
	for _, vp := range in.VPs {
		host, ok := c.NodeOf(vp.Host).(*netsim.Host)
		if !ok {
			return nil, fmt.Errorf("gen: VP host %q missing from snapshot", vp.Host.Name())
		}
		pr := probe.New(out.Net, host)
		pr.Method = vp.Prober.Method
		pr.FirstTTL = vp.Prober.FirstTTL
		pr.MaxTTL = vp.Prober.MaxTTL
		pr.GapLimit = vp.Prober.GapLimit
		pr.Attempts = vp.Prober.Attempts
		pr.FlowID = vp.Prober.FlowID
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
	return out, nil
}

// Rebuild builds an independent replica by replaying the generator with
// the original parameters — the validation oracle for Snapshot.
// Post-build mutations to the original are NOT carried over.
func (in *Internet) Rebuild() (*Internet, error) { return Build(in.params) }
