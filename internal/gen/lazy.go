package gen

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"wormhole/internal/bgp"
	"wormhole/internal/igp"
	"wormhole/internal/netaddr"
)

// The lazy stub fabric. At the Giga rung (~10⁶ routers, ~4·10⁵ stub
// ASes) even the streamed builder's per-stub cost — routers, tables,
// subnets, IGP convergence, BGP attachment — dominates build time and
// memory, while a sampled campaign only ever enters a few thousand of
// those stubs. With Params.LazyStubs the hierarchical builder records one
// compact descriptor per stub (its rng seed, provider attachment, and
// router count, all drawn from the build rng up front) and defers
// construction to first touch:
//
//   - a probe toward an address in the stub's /20 — the prober calls
//     netsim.FaultIn before a trace's first packet, which lands in
//     ensureStub via the hook installed on the fabric;
//   - a ground-truth resolution (Resolve/Owner) of such an address.
//
// Materialization replays the exact construction the eager build would
// have run, from a rand.Rand seeded with the descriptor's seed, so the
// resident part of a lazy world is byte-identical to the same region of
// the eager world — the fault-in equivalence goldens pin this.
//
// Descriptors and the block index are immutable after Build and shared by
// reference across snapshot replicas; only the resident bitset (and the
// stubs it marks) are copied, so Snapshot() stays proportional to the
// resident set, not the universe. Replicas fault stubs in independently:
// their node indices for lazy stubs diverge across fabrics, which is safe
// because churn scopes only ever name core nodes (BuildChurnPlan skips
// stubs), and the shared address index never contains lazy records.

// stubDesc is the compact build-time plan of one stub AS: everything the
// eager build would have decided from the main rng, captured so
// construction can replay later from the stub's private seed.
type stubDesc struct {
	// seed drives every construction-time draw (personalities, wiring
	// delays, border picks) via a transient rand.Rand.
	seed int64
	// asIndex is the stub's ASInfo shell in Internet.ASes (created at
	// plan time so AS numbering and indexing are construction-order
	// independent).
	asIndex int32
	// prov holds the AS indices of the stub's 1-2 provider transits.
	prov  [2]int32
	nProv int32
	// nCore is the stub's router count, drawn from the build rng at plan
	// time so the universe size is known without construction.
	nCore int32
	// vp is the vantage-point slot attached to this stub, or -1. VP stubs
	// are always materialized at Build.
	vp int32
}

// stubSpan maps a /20 block start to its stub, sorted by start for
// binary search. Blocks are disjoint and never contain core addresses
// (transit loopbacks live in the reserved top /20 of each /11).
type stubSpan struct {
	start netaddr.Addr
	si    int32
}

// stubBlockSize is the address span of a stub aggregate (a /20).
const stubBlockSize = 1 << 12

// lazyState is a hierarchical world's stub-universe bookkeeping. descs
// and spans are immutable after Build and shared across replicas; the
// rest is per-fabric.
type lazyState struct {
	descs []stubDesc
	spans []stubSpan
	// deferred is Params.LazyStubs: construction outlives Build. Eager
	// hierarchical worlds keep descs too (the streaming target scheduler
	// enumerates the universe from them) with every stub resident.
	deferred bool
	// sealed flips when Build finishes: from then on register() routes
	// new address records into the materializing stub's lazyRecs instead
	// of the shared sorted index.
	sealed bool
	// recSink, during a materialization, points at the stub's lazyRecs.
	recSink *[]addrRec

	resident        bitset
	residentStubs   int
	residentRouters int
	coreRouters     int
	stubRouters     int

	faultIns  int
	faultInNS int64
}

type bitset []uint64

func (b bitset) get(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }
func (b bitset) set(i int)      { b[i>>6] |= 1 << uint(i&63) }

// LazyStats reports a fabric's resident-set accounting. On eager worlds
// Resident == Total and FaultIns is zero.
type LazyStats struct {
	// Resident and Total count routers (constructed vs universe).
	Resident, Total int
	// ResidentStubs and TotalStubs count stub ASes.
	ResidentStubs, TotalStubs int
	// FaultIns counts post-build materializations on this fabric;
	// FaultInNS their cumulative wall-clock cost.
	FaultIns  int
	FaultInNS int64
}

// LazyStats returns the fabric's resident-set accounting.
func (in *Internet) LazyStats() LazyStats {
	if lz := in.lazy; lz != nil {
		return LazyStats{
			Resident:      lz.residentRouters,
			Total:         lz.coreRouters + lz.stubRouters,
			ResidentStubs: lz.residentStubs,
			TotalStubs:    len(lz.descs),
			FaultIns:      lz.faultIns,
			FaultInNS:     lz.faultInNS,
		}
	}
	n := in.TotalRouters()
	return LazyStats{Resident: n, Total: n}
}

// TotalRouters counts the whole universe — including stubs that have not
// been materialized yet.
func (in *Internet) TotalRouters() int {
	if lz := in.lazy; lz != nil {
		return lz.coreRouters + lz.stubRouters
	}
	n := 0
	for _, as := range in.ASes {
		n += len(as.Core) + len(as.Edge)
	}
	return n
}

// stubByAddr finds the lazy stub whose /20 contains a, if any.
func (in *Internet) stubByAddr(a netaddr.Addr) (int32, bool) {
	lz := in.lazy
	if lz == nil {
		return 0, false
	}
	sp := lz.spans
	i := sort.Search(len(sp), func(i int) bool { return sp[i].start > a }) - 1
	if i < 0 || a-sp[i].start >= stubBlockSize {
		return 0, false
	}
	return sp[i].si, true
}

// faultInAddr is the netsim fault-in hook target: materialize the stub
// owning addr, if it exists and is not resident yet.
func (in *Internet) faultInAddr(a netaddr.Addr) {
	if si, ok := in.stubByAddr(a); ok {
		in.ensureStub(si)
	}
}

// ensureStub materializes stub si if it is not resident, inside a netsim
// fault-in bracket so the provider-side route installs neither flush the
// flow caches nor bump TopoGen (see netsim.BeginFaultIn for why that is
// sound).
func (in *Internet) ensureStub(si int32) {
	lz := in.lazy
	if lz == nil || lz.resident.get(int(si)) {
		return
	}
	start := time.Now()
	in.Net.BeginFaultIn()
	in.materializeStub(si)
	in.Net.EndFaultIn()
	in.markResident(si)
	lz.faultIns++
	lz.faultInNS += time.Since(start).Nanoseconds()
}

func (in *Internet) markResident(si int32) {
	lz := in.lazy
	lz.resident.set(int(si))
	lz.residentStubs++
	lz.residentRouters += int(lz.descs[si].nCore)
}

// materializeStub replays one stub's construction from its descriptor:
// routers and intra-AS wiring, provider cross-links, the VP when the
// stub holds a slot, IGP convergence, and BGP attachment — the exact
// sequence (and rng draws) the eager build runs for the same stub.
func (in *Internet) materializeStub(si int32) {
	lz := in.lazy
	d := &lz.descs[si]
	as := in.ASes[d.asIndex]
	p := in.params
	rng := rand.New(rand.NewSource(d.seed))

	if lz.sealed {
		lz.recSink = &as.lazyRecs
		defer func() { lz.recSink = nil }()
	}

	in.buildASRouters(rng, p, as, int(d.nCore), 0, Stub)

	links := make([]bgp.StubLink, 0, d.nProv)
	for k := int32(0); k < d.nProv; k++ {
		prov := in.ASes[d.prov[k]]
		s := in.connectASesOwned(rng, p, as, prov, bgp.ACustomerOfB, as)
		links = append(links, bgp.StubLink{S: s, Provider: &bgp.AS{
			Num:      prov.Num,
			Routers:  prov.Routers(),
			Prefixes: []netaddr.Prefix{prov.Aggregate},
			SPF:      prov.SPF(),
		}})
	}
	if d.vp >= 0 {
		in.attachVP(rng, p, as, int(d.vp))
	}

	dom := &igp.Domain{Routers: as.Routers()}
	spf, err := dom.Compute()
	if err != nil {
		panic(fmt.Sprintf("gen: AS%d fault-in SPF: %v", as.Num, err))
	}
	bgp.AttachStub(&bgp.AS{
		Num:      as.Num,
		Routers:  as.Routers(),
		Prefixes: []netaddr.Prefix{as.Aggregate},
		SPF:      spf,
	}, links)
	as.spf = nil
	as.spfMode = spfRecompute
}

// materializeAll faults in every remaining stub (full-enumeration paths
// like RouterAddrs need the universe constructed).
func (in *Internet) materializeAll() {
	lz := in.lazy
	if lz == nil || lz.residentStubs == len(lz.descs) {
		return
	}
	for si := range lz.descs {
		if !lz.resident.get(si) {
			in.ensureStub(int32(si))
		}
	}
}

// FaultInSample materializes up to n not-yet-resident stubs in stub
// order through the regular fault-in path and returns how many it
// touched. The bench harness uses it to time materialization cost.
func (in *Internet) FaultInSample(n int) int {
	lz := in.lazy
	if lz == nil || !lz.deferred {
		return 0
	}
	c := 0
	for si := range lz.descs {
		if c >= n {
			break
		}
		if !lz.resident.get(si) {
			in.ensureStub(int32(si))
			c++
		}
	}
	return c
}

// anchorOf is the deterministic probe anchor of stub si: the first
// loopback its first router will hold (top-256 allocation, first draw) —
// enumerable without materializing anything.
func (in *Internet) anchorOf(si int32) netaddr.Addr {
	agg := in.ASes[in.lazy.descs[si].asIndex].Aggregate
	return agg.Addr() + netaddr.Addr(stubBlockSize-256+1)
}

// ProbeSpace enumerates the campaign-probeable universe without
// materializing it: every core-AS router loopback, then one anchor
// address per stub (its first router's first loopback). The enumeration
// is identical for the eager and lazy builds of the same Params — core
// ASes are always eager, and anchors derive from the address plan alone —
// so streaming campaigns on either world draw the same targets.
func (in *Internet) ProbeSpace() *TargetSpace {
	t := &TargetSpace{in: in}
	if lz := in.lazy; lz != nil {
		for _, as := range in.ASes {
			if as.Profile.Tier == Stub {
				continue
			}
			for _, r := range as.Routers() {
				if lo := r.Loopback(); lo != nil {
					t.addrs = append(t.addrs, lo.Addr)
					t.prefixes = append(t.prefixes, as.Aggregate)
				}
			}
		}
		t.stubs = len(lz.descs)
		return t
	}
	// Flat world: the full registered address set, AS aggregate as the
	// budget prefix.
	for _, as := range in.ASes {
		for _, r := range as.Routers() {
			if lo := r.Loopback(); lo != nil {
				t.addrs = append(t.addrs, lo.Addr)
				t.prefixes = append(t.prefixes, as.Aggregate)
			}
			for _, ifc := range r.Ifaces() {
				t.addrs = append(t.addrs, ifc.Addr)
				t.prefixes = append(t.prefixes, as.Aggregate)
			}
		}
	}
	return t
}

// TargetSpace is an indexable view of the probeable universe: |addrs|
// eager addresses followed by one anchor per stub descriptor. The
// campaign's streaming scheduler permutes indices over it.
type TargetSpace struct {
	in       *Internet
	addrs    []netaddr.Addr
	prefixes []netaddr.Prefix
	stubs    int
}

// Len is the universe size.
func (t *TargetSpace) Len() int { return len(t.addrs) + t.stubs }

// Addr returns the i-th target address.
func (t *TargetSpace) Addr(i int) netaddr.Addr {
	if i < len(t.addrs) {
		return t.addrs[i]
	}
	return t.in.anchorOf(int32(i - len(t.addrs)))
}

// Prefix returns the budget prefix of the i-th target (its AS
// aggregate).
func (t *TargetSpace) Prefix(i int) netaddr.Prefix {
	if i < len(t.prefixes) {
		return t.prefixes[i]
	}
	return t.in.ASes[t.in.lazy.descs[i-len(t.addrs)].asIndex].Aggregate
}
