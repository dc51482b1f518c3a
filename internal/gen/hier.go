package gen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"wormhole/internal/bgp"
	"wormhole/internal/igp"
	"wormhole/internal/ldp"
	"wormhole/internal/netaddr"
	"wormhole/internal/netsim"
)

// The streamed hierarchical builder. The flat builder converges every AS
// and runs one global BGP pass, which is O(ASes²) in both time and
// per-router table size — fine up to flatASLimit, hopeless at 10⁵
// routers. This path exploits the topology's own hierarchy instead:
//
//   - Tier-1s and transits (the core, a few hundred ASes) are built,
//     wired, and converged eagerly with the exact same machinery as the
//     flat path — IGP, LDP, RSVP-TE, full valley-free BGP.
//   - Stubs stream through one at a time: aggregate carved from the
//     primary provider's block (provider aggregation), IGP converged,
//     default route + provider-local customer route installed
//     (bgp.AttachStub), then the transient SPF result is dropped and
//     marked lazily recomputable. Peak transient state is one stub.
//
// Per-router BGP state is thus bounded by the core size plus the local
// customer count, not the AS count: the whole point of the paper-scale
// ladder's bytes/router budget.
//
// Addressing plan (disjoint from the flat builder's 10.0.0.0/8):
//
//	tier-1 i:  11.i.0.0/16
//	transit i: /11 blocks from 16.0.0.0 upward
//	stub:      a /20 carved top-down from its primary transit's /11
//	           (the top /20 of each /11 is reserved: transit loopbacks
//	           live in its top 256 addresses)
//
// Addresses inside an aggregate that were never assigned to an interface
// forward toward the aggregate's origin and die by TTL there — same
// behavior unallocated provider space has in the real Internet, and
// campaigns only probe registered addresses.

// stubRegionSize is how many consecutive stubs share one geographic
// region (a grid cell on the unit square) when regional delays are on.
const stubRegionSize = 256

// maxHierTransits bounds the transit count so the /11 blocks stay inside
// the 32-bit address space (16.0.0.0 + 1024·2²¹ < 2³²).
const maxHierTransits = 1024

func tier1Aggregate(i int) netaddr.Prefix {
	return netaddr.MustPrefixFrom(netaddr.AddrFrom4(11, byte(i), 0, 0), 16)
}

func transitAggregate(i int) netaddr.Prefix {
	base := netaddr.AddrFrom4(16, 0, 0, 0)
	return netaddr.MustPrefixFrom(base+netaddr.Addr(uint32(i)<<21), 11)
}

func buildHierarchical(p Params) (*Internet, error) {
	if p.NumTier1 > 256 || p.NumTransit < 1 || p.NumTransit > maxHierTransits {
		return nil, fmt.Errorf("gen: unsupported hierarchical AS counts (%d/%d/%d)", p.NumTier1, p.NumTransit, p.NumStub)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	in := &Internet{
		Net:     netsim.New(p.Seed ^ 0x5eed),
		asByNum: make(map[uint32]*ASInfo, p.NumTier1+p.NumTransit+p.NumStub),
		params:  p,
		rng:     rng,
	}
	in.ASes = make([]*ASInfo, 0, p.NumTier1+p.NumTransit+p.NumStub)

	// 1. Core ASes: stratified profiles and intra-AS topologies, exactly
	// like the flat path.
	profiles := stratifiedProfiles(p, p.NumTier1+p.NumTransit, rng)
	num := uint32(1)
	next := 0
	mkCore := func(tier Tier, agg netaddr.Prefix, floor uint32) *ASInfo {
		prof := profiles[next]
		next++
		prof.Tier = tier
		x := rng.Float64()
		y := rng.Float64()
		as := in.newAS(num, prof, agg, x, y)
		num++
		if floor != 0 {
			as.childFloor = floor
		}
		in.buildASTopology(rng, p, as, tier)
		return as
	}
	tier1s := make([]*ASInfo, 0, p.NumTier1)
	for i := 0; i < p.NumTier1; i++ {
		tier1s = append(tier1s, mkCore(Tier1, tier1Aggregate(i), 0))
	}
	transits := make([]*ASInfo, 0, p.NumTransit)
	for i := 0; i < p.NumTransit; i++ {
		agg := transitAggregate(i)
		// Reserve the top /20 (loopbacks sit in its top 256 addresses);
		// everything below it is carvable customer space.
		floor := uint32(agg.NumAddrs()) - (1 << 12)
		transits = append(transits, mkCore(Transit, agg, floor))
	}

	// 2. Core wiring: tier-1 full mesh, transits buying from 1-2 tier-1s,
	// probabilistic transit peering — the flat builder's shapes.
	var coreSessions []*bgp.Session
	link := func(a, b *ASInfo, rel bgp.Relationship) {
		coreSessions = append(coreSessions, in.connectASes(p, a, b, rel))
	}
	for i := 0; i < len(tier1s); i++ {
		for j := i + 1; j < len(tier1s); j++ {
			link(tier1s[i], tier1s[j], bgp.APeerOfB)
		}
	}
	for _, tr := range transits {
		providers := 1 + rng.Intn(2)
		perm := rng.Perm(len(tier1s))
		for k := 0; k < providers && k < len(perm); k++ {
			link(tr, tier1s[perm[k]], bgp.ACustomerOfB)
		}
	}
	for i := 0; i < len(transits); i++ {
		for j := i + 1; j < len(transits); j++ {
			if rng.Float64() < p.TransitPeerProb {
				link(transits[i], transits[j], bgp.APeerOfB)
			}
		}
	}

	// 3. Core control planes: IGP, LDP, TE per AS, then one full
	// valley-free BGP pass over the core only.
	coreASes := make([]*ASInfo, 0, len(tier1s)+len(transits))
	coreASes = append(coreASes, tier1s...)
	coreASes = append(coreASes, transits...)
	bgpCore := make([]*bgp.AS, 0, len(coreASes))
	for _, as := range coreASes {
		dom := &igp.Domain{Routers: as.Routers()}
		spf, err := dom.Compute()
		if err != nil {
			return nil, fmt.Errorf("gen: AS%d SPF: %w", as.Num, err)
		}
		as.spf = spf
		if as.Profile.MPLS {
			ldp.Build(as.Routers(), spf)
			if as.Profile.TE {
				in.addTETunnels(as)
			}
		}
		bgpCore = append(bgpCore, &bgp.AS{
			Num:      as.Num,
			Routers:  as.Routers(),
			Prefixes: []netaddr.Prefix{as.Aggregate},
			SPF:      spf,
		})
	}
	if err := bgp.Compute(&bgp.Topology{ASes: bgpCore, Sessions: coreSessions}); err != nil {
		return nil, err
	}

	// 4. Vantage-point slots: distinct stubs chosen up front so streaming
	// can attach each VP the moment its stub exists.
	vpSlot := make(map[int]int, p.NumVPs)
	vpPerm := rng.Perm(p.NumStub)
	for i := 0; i < p.NumVPs && i < len(vpPerm); i++ {
		vpSlot[vpPerm[i]] = i
	}

	// 5. Plan every stub from the build rng: coordinates, providers,
	// profile, router count, a private construction seed, and the carved
	// /20 — everything the eager build would have decided globally, and
	// nothing that requires construction. Consecutive stubs share a
	// geographic grid cell (regional locality). Construction itself
	// (materializeStub) replays from the private seed, so it produces the
	// same routers whether it runs in the loop below or at first touch
	// months of probes later.
	lz := &lazyState{
		deferred: p.LazyStubs,
		descs:    make([]stubDesc, 0, p.NumStub),
	}
	for _, as := range coreASes {
		lz.coreRouters += len(as.Core) + len(as.Edge)
	}
	in.lazy = lz
	regions := (p.NumStub + stubRegionSize - 1) / stubRegionSize
	grid := int(math.Ceil(math.Sqrt(float64(regions))))
	if grid < 1 {
		grid = 1
	}
	for i := 0; i < p.NumStub; i++ {
		region := i / stubRegionSize
		cx := float64(region % grid)
		cy := float64(region / grid)
		x := (cx + rng.Float64()) / float64(grid)
		y := (cy + rng.Float64()) / float64(grid)

		nProv := 1
		if len(transits) > 1 && rng.Intn(2) == 1 {
			nProv = 2
		}
		p1 := rng.Intn(len(transits))
		provIdx := [2]int{p1, 0}
		if nProv == 2 {
			p2 := rng.Intn(len(transits))
			for p2 == p1 {
				p2 = rng.Intn(len(transits))
			}
			provIdx[1] = p2
		}

		prof := in.stubProfile(p)
		prof.Tier = Stub
		nCore := rngRange(rng, p.StubRouters)
		seed := rng.Int63()
		as := in.newAS(num, prof, transits[provIdx[0]].carveChild20(), x, y)
		num++
		// A lazy stub materializes after Build has returned, so its plan
		// is checked here. Loopbacks are the only pool a stub can run
		// out of: its /20 holds subnets for every link of a stub with
		// maxLoopbacks routers.
		if nCore > maxLoopbacks {
			return nil, &AddressPlanError{AS: as.Num, Pool: "loopbacks"}
		}

		d := stubDesc{
			seed:    seed,
			asIndex: as.index,
			nProv:   int32(nProv),
			nCore:   int32(nCore),
			vp:      -1,
		}
		d.prov[0] = transits[provIdx[0]].index
		d.prov[1] = transits[provIdx[1]].index
		if v, ok := vpSlot[i]; ok {
			d.vp = int32(v)
		}
		lz.descs = append(lz.descs, d)
		lz.stubRouters += nCore
	}
	lz.spans = make([]stubSpan, len(lz.descs))
	for si, d := range lz.descs {
		lz.spans[si] = stubSpan{start: in.ASes[d.asIndex].Aggregate.Addr(), si: int32(si)}
	}
	sort.Slice(lz.spans, func(i, j int) bool { return lz.spans[i].start < lz.spans[j].start })
	lz.resident = make(bitset, (len(lz.descs)+63)/64)
	lz.residentRouters = lz.coreRouters

	// 6. Materialize: everything for the eager build, only the VP stubs
	// for a lazy one — the rest faults in on first touch via the hook.
	for si := range lz.descs {
		if p.LazyStubs && lz.descs[si].vp < 0 {
			continue
		}
		in.materializeStub(int32(si))
		in.markResident(int32(si))
	}
	in.finishAddrIndex()
	lz.sealed = true
	if p.LazyStubs {
		in.Net.SetFaultInHook(in.faultInAddr)
	}
	return in, nil
}
