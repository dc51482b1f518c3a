// Package gen generates synthetic Internets: a three-tier AS hierarchy
// (Tier-1 full-mesh peering, transit ASes buying from Tier-1s, stubs
// buying from transits), two-level intra-AS PoP topologies (core ring plus
// edge routers), addressing, and per-AS hardware and MPLS configuration
// drawn from the paper's operator survey (Sec. 1-2: 87% of operators
// deploy MPLS, 48% use no-ttl-propagate, 10% UHP; 58% Cisco, 28% Juniper,
// the rest mixed).
//
// The generated network plays the role of the real Internet in the
// reproduction: its traceroute-observed graph stands in for the CAIDA
// ITDK, its stub-attached hosts for PlanetLab vantage points, and its
// ground-truth address-to-router map for ITDK alias resolution.
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"wormhole/internal/bgp"
	"wormhole/internal/igp"
	"wormhole/internal/ldp"
	"wormhole/internal/netaddr"
	"wormhole/internal/netsim"
	"wormhole/internal/probe"
	"wormhole/internal/router"
	"wormhole/internal/rsvpte"
)

// Tier classifies an AS's role.
type Tier uint8

const (
	Tier1 Tier = iota
	Transit
	Stub
)

func (t Tier) String() string {
	switch t {
	case Tier1:
		return "tier1"
	case Transit:
		return "transit"
	default:
		return "stub"
	}
}

// Vendor is the hardware profile of an AS.
type Vendor uint8

const (
	VendorCisco Vendor = iota
	VendorJuniper
	VendorMixed
	VendorLegacy
)

func (v Vendor) String() string {
	switch v {
	case VendorCisco:
		return "cisco"
	case VendorJuniper:
		return "juniper"
	case VendorMixed:
		return "mixed"
	default:
		return "legacy"
	}
}

// Params tunes the generator. The zero value is unusable; use
// DefaultParams.
type Params struct {
	Seed int64

	NumTier1, NumTransit, NumStub int

	// Router counts per AS class: [core, edge] ranges.
	Tier1Core, Tier1Edge     [2]int
	TransitCore, TransitEdge [2]int
	StubRouters              [2]int

	// Survey-derived configuration distribution.
	MPLSFrac        float64 // share of transit/Tier-1 ASes running MPLS
	NoPropagateFrac float64 // share of MPLS ASes hiding tunnels
	UHPFrac         float64 // share of MPLS ASes using UHP
	TEFrac          float64 // share of MPLS ASes adding RSVP-TE detour tunnels
	CiscoFrac       float64
	JuniperFrac     float64
	MixedFrac       float64 // remainder after Cisco+Juniper+Mixed: legacy

	// TransitPeerProb links pairs of transit ASes as peers.
	TransitPeerProb float64

	// NumVPs vantage points sit on distinct stubs, so there may be no
	// more of them than NumStub.
	NumVPs int

	// Link delays are uniform in [MinDelay, MaxDelay].
	MinDelay, MaxDelay time.Duration
	// Regional places each AS at a random point on a unit square and
	// scales inter-AS link delays with the distance between the
	// endpoints' regions (up to RegionDelay for opposite corners),
	// modeling geography the way PlanetLab vantage points experience it.
	Regional    bool
	RegionDelay time.Duration

	// Hierarchical forces the streamed, provider-aggregated build path
	// (see hier.go): tier-1 and transit ASes converge eagerly, stubs are
	// emitted region by region with provider-carved address blocks,
	// default routes instead of full tables, and lazily recomputable SPF
	// state. It turns on automatically above the flat builder's AS limit;
	// setting it explicitly lets tests exercise the streamed path at
	// small scale.
	Hierarchical bool

	// LazyStubs defers stub construction past Build: the hierarchical
	// builder keeps only a per-stub descriptor (seed, provider attachment,
	// router count) and a stub's routers, tables, and routes materialize
	// on first touch — the first probe toward its /20, or a ground-truth
	// resolution inside it (see lazy.go). VP stubs are always built
	// eagerly. The materialized world is byte-identical to the eager build
	// of the same Params: construction replays from the stub's own seeded
	// rng either way. Implies Hierarchical.
	LazyStubs bool
}

// DefaultParams mirrors the survey shares at a simulable scale.
func DefaultParams(seed int64) Params {
	return Params{
		Seed:            seed,
		NumTier1:        4,
		NumTransit:      12,
		NumStub:         30,
		Tier1Core:       [2]int{6, 10},
		Tier1Edge:       [2]int{8, 12},
		TransitCore:     [2]int{4, 7},
		TransitEdge:     [2]int{5, 9},
		StubRouters:     [2]int{1, 3},
		MPLSFrac:        0.87,
		NoPropagateFrac: 0.48,
		UHPFrac:         0.10,
		TEFrac:          0.42,
		CiscoFrac:       0.58,
		JuniperFrac:     0.28,
		MixedFrac:       0.10,
		TransitPeerProb: 0.25,
		NumVPs:          10,
		MinDelay:        500 * time.Microsecond,
		MaxDelay:        5 * time.Millisecond,
		Regional:        true,
		RegionDelay:     60 * time.Millisecond,
	}
}

// Profile is the generated configuration of one AS.
type Profile struct {
	Tier      Tier
	Vendor    Vendor
	MPLS      bool
	Propagate bool // ttl-propagate
	UHP       bool
	TE        bool // RSVP-TE detour tunnels on top of LDP
	LDP       router.LDPPolicy
}

// Invisible reports whether the AS hides its tunnels from traceroute.
func (p Profile) Invisible() bool { return p.MPLS && !p.Propagate }

// ASInfo is one generated AS.
type ASInfo struct {
	Num     uint32
	Name    string
	Profile Profile
	// X, Y locate the AS on the unit square when regional delays are on.
	X, Y float64
	Core []*router.Router
	Edge []*router.Router
	// Aggregate is the announced address block.
	Aggregate netaddr.Prefix

	// spf is the AS's computed IGP state. A replica, and a streamed stub
	// that dropped its build-time result, recompute it from their own
	// routers when spfMode says so: campaign workers never read SPF
	// state, and computing it eagerly costs as much as cloning all the
	// router tables of the AS.
	spf     *igp.Result
	spfMode uint8

	// teTunnels records every RSVP-TE tunnel signalling *attempt* of the
	// build, in order — including attempts Signal rejected, because a
	// late rejection (ingress route check) has already allocated labels.
	// Replaying ClearMPLS + ldp.Build + these signals in order restores
	// the AS's label plane byte-for-byte; churn repair depends on that.
	teTunnels []*rsvpte.Tunnel

	// index is the AS's position in Internet.ASes, stable across
	// snapshots; the shared address index records it instead of pointers.
	index int32

	// lazyRecs holds the ground-truth address records a post-build
	// fault-in registered for this stub (its own interfaces plus both ends
	// of its provider cross-links — all inside the stub's /20). The sorted
	// global index is sealed at Build and shared across replicas by
	// reference, so late registrations live here instead; lookupAddr scans
	// this (≤ a dozen entries) after matching the block. Append-once at
	// materialization, immutable after.
	lazyRecs []addrRec

	// childFloor bounds subnet30 allocation from above, in addresses from
	// the aggregate base: everything at or past it is reserved (loopback
	// range, and in hierarchical transits the child /20 blocks carved
	// top-down by carveChild20).
	childFloor uint32

	nextSubnet uint32
	nextLo     uint32
}

// SPF materialization modes for replicas and streamed stubs.
const (
	spfEager     uint8 = iota // spf is whatever it is; no lazy work
	spfRecompute              // recompute from the AS's own routers on demand
)

// SPF returns the AS's computed IGP state (nil if the AS has none). On
// replicas — and on streamed stubs that dropped their transient
// build-time SPF — the first call materializes it.
func (as *ASInfo) SPF() *igp.Result {
	if as.spf == nil && as.spfMode == spfRecompute {
		if err := as.recomputeSPF(); err != nil {
			panic(fmt.Sprintf("gen: AS%d lazy SPF: %v", as.Num, err))
		}
	}
	return as.spf
}

// hasSPF reports whether the AS has SPF state, computed or recomputable.
func (as *ASInfo) hasSPF() bool { return as.spf != nil || as.spfMode == spfRecompute }

// recomputeSPF computes the AS's SPF from its own routers' current
// topology and pins it.
func (as *ASInfo) recomputeSPF() error {
	// InstallOn non-nil and empty: compute paths, install nothing —
	// materializing ground truth must not touch router tables (that would
	// bump TopoGen and poison the replica pool).
	dom := &igp.Domain{Routers: as.Routers(), InstallOn: []*router.Router{}}
	res, err := dom.Compute()
	if err != nil {
		return err
	}
	as.spf, as.spfMode = res, spfEager
	return nil
}

// Routers returns all routers of the AS.
func (a *ASInfo) Routers() []*router.Router {
	out := make([]*router.Router, 0, len(a.Core)+len(a.Edge))
	out = append(out, a.Core...)
	return append(out, a.Edge...)
}

// VP is one vantage point: a host plus its prober.
type VP struct {
	Host   *netsim.Host
	Prober *probe.Prober
	AS     *ASInfo
}

// addrRec is one row of the ground-truth address index: interface address
// to (fabric node index, AS index). Indices instead of pointers make the
// sorted slice world-independent — a structural snapshot shares it by
// reference (node and AS order are clone invariants), so replicating the
// index costs nothing regardless of fabric size.
type addrRec struct {
	addr netaddr.Addr
	node int32
	as   int32
}

// Internet is the generated world.
type Internet struct {
	Net  *netsim.Network
	ASes []*ASInfo
	VPs  []*VP

	// addrRecs is the ground-truth address index, sorted by address once
	// Build finishes (binary-searched by Resolve/Owner). Snapshots share
	// it by reference; see addrRec.
	addrRecs []addrRec

	// asByNum indexes ASes by number for constant-time ASByNum.
	asByNum map[uint32]*ASInfo

	// params is the exact Build input, kept so Rebuild can replay it.
	params Params

	// rng is the build's generator. Replicas hold none: they never draw,
	// so a draw by mistake panics instead of diverging from the source.
	rng *rand.Rand

	// lazy is the hierarchical builder's stub-universe plan (see lazy.go):
	// per-stub descriptors, the fault-in resident set, and the post-seal
	// address records. Nil for flat worlds.
	lazy *lazyState

	// pool caches built replicas across parallel campaigns (see pool.go).
	pool replicaPool

	// routerAddrs is RouterAddrs' list, built on its first call.
	routerAddrs []netaddr.Addr
}

// AddrInfo is the ground-truth owner of an interface address.
type AddrInfo struct {
	Router *router.Router
	AS     *ASInfo
}

// lookupAddr binary-searches the sorted ground-truth index, falling back
// to the lazy stub universe: an address inside a not-yet-resident stub's
// /20 faults the stub in (resolution is ground truth — it must agree with
// what a probe toward the address would materialize) and is then resolved
// against the stub's local record list.
func (in *Internet) lookupAddr(a netaddr.Addr) (addrRec, bool) {
	if rec, ok := in.sealedRec(a); ok {
		return rec, true
	}
	if si, ok := in.stubByAddr(a); ok {
		in.ensureStub(si)
		as := in.ASes[in.lazy.descs[si].asIndex]
		for _, rec := range as.lazyRecs {
			if rec.addr == a {
				return rec, true
			}
		}
	}
	return addrRec{}, false
}

// Resolve is the ground-truth resolver handed to topo.Graph (the ITDK
// alias/AS mapping substitute).
func (in *Internet) Resolve(a netaddr.Addr) (string, uint32, bool) {
	rec, ok := in.lookupAddr(a)
	if !ok {
		return "", 0, false
	}
	r := in.Net.Nodes()[rec.node].(*router.Router)
	return r.Name(), in.ASes[rec.as].Num, true
}

// Owner returns ground-truth info for an address.
func (in *Internet) Owner(a netaddr.Addr) (AddrInfo, bool) {
	rec, ok := in.lookupAddr(a)
	if !ok {
		return AddrInfo{}, false
	}
	return AddrInfo{
		Router: in.Net.Nodes()[rec.node].(*router.Router),
		AS:     in.ASes[rec.as],
	}, true
}

// ASByNum returns the AS with the given number. Lookup paths call this per
// reply, so it goes through the Build-time index rather than scanning.
func (in *Internet) ASByNum(num uint32) *ASInfo {
	return in.asByNum[num]
}

// RouterAddrs returns every registered router interface address (loopbacks
// included), in deterministic order. Campaigns draw probing targets from
// this set. On a lazy world the first call materializes the whole
// universe — full enumeration defeats laziness by definition; streaming
// campaigns use ProbeSpace instead, which enumerates without
// constructing. Once the universe is built no router address is added
// or removed, so the list is built on the first call and every call
// returns it: it is read-only, and its capacity is clipped, so appending
// to it copies. A snapshot or decoded replica builds its own.
func (in *Internet) RouterAddrs() []netaddr.Addr {
	if in.routerAddrs != nil {
		return in.routerAddrs
	}
	in.materializeAll()
	// Every registered router address has exactly one ground-truth row, so
	// on an eager world the index length is the exact output size.
	out := make([]netaddr.Addr, 0, len(in.addrRecs))
	for _, as := range in.ASes {
		for _, r := range as.Routers() {
			if lo := r.Loopback(); lo != nil {
				out = append(out, lo.Addr)
			}
			for _, ifc := range r.Ifaces() {
				out = append(out, ifc.Addr)
			}
		}
	}
	in.routerAddrs = slices.Clip(out)
	return in.routerAddrs
}

// Build generates an Internet. Worlds beyond the flat builder's AS limit
// (or with Params.Hierarchical set) go through the streamed hierarchical
// builder in hier.go; small worlds keep the flat path byte-for-byte.
// Params outside what the builders support are rejected before anything
// is built; Params whose address plan does not fit return an
// *AddressPlanError.
func Build(p Params) (_ *Internet, err error) {
	defer recoverPlanError(&err)
	if err := p.validate(); err != nil {
		return nil, err
	}
	// Decided locally, never written back into p: Params must round-trip
	// unchanged through Build (Rebuild replays the stored copy).
	hier := p.Hierarchical || p.LazyStubs || p.NumTier1+p.NumTransit+p.NumStub > flatASLimit
	if hier {
		return buildHierarchical(p)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	in := &Internet{
		Net:     netsim.New(),
		asByNum: make(map[uint32]*ASInfo),
		params:  p,
		rng:     rng,
	}

	// 1. Create ASes with intra-AS topologies. Transit and Tier-1 profiles
	// are assigned by stratified sampling so the survey shares hold
	// exactly whatever the seed (a small independent-draw world can
	// otherwise end up with no invisible tunnels at all).
	profiles := stratifiedProfiles(p, p.NumTier1+p.NumTransit, rng)
	num := uint32(1)
	next := 0
	build := func(tier Tier, n int) []*ASInfo {
		var out []*ASInfo
		for i := 0; i < n; i++ {
			var prof Profile
			if tier == Stub {
				prof = in.stubProfile(p)
			} else {
				prof = profiles[next]
				next++
			}
			prof.Tier = tier
			as := in.buildAS(p, num, tier, prof)
			num++
			out = append(out, as)
		}
		return out
	}
	tier1s := build(Tier1, p.NumTier1)
	transits := build(Transit, p.NumTransit)
	stubs := build(Stub, p.NumStub)

	// 2. Inter-AS wiring: the core, then stubs buying from transits.
	sessions := in.wireCore(p, tier1s, transits)
	sessions = in.buyTransit(p, sessions, stubs, transits)

	// 3. Vantage points on distinct stubs.
	vpStubs := rng.Perm(len(stubs))
	for i := 0; i < p.NumVPs; i++ {
		as := stubs[vpStubs[i]]
		in.attachVP(in.rng, p, as, i)
	}

	// 4. Control planes.
	if err := in.converge(in.ASes, sessions); err != nil {
		return nil, err
	}
	in.finishAddrIndex()
	return in, nil
}

// wireCore joins the core ASes both builders share: a tier-1 full mesh,
// each transit buying from one or two tier-1s, and transit pairs peering
// with TransitPeerProb.
func (in *Internet) wireCore(p Params, tier1s, transits []*ASInfo) []*bgp.Session {
	var sessions []*bgp.Session
	for i := range tier1s {
		for j := i + 1; j < len(tier1s); j++ {
			sessions = append(sessions, in.connectASes(p, tier1s[i], tier1s[j], bgp.APeerOfB))
		}
	}
	sessions = in.buyTransit(p, sessions, transits, tier1s)
	for i := range transits {
		for j := i + 1; j < len(transits); j++ {
			if in.rng.Float64() < p.TransitPeerProb {
				sessions = append(sessions, in.connectASes(p, transits[i], transits[j], bgp.APeerOfB))
			}
		}
	}
	return sessions
}

// buyTransit has each customer buy from one or two distinct providers,
// appending the sessions to sessions.
func (in *Internet) buyTransit(p Params, sessions []*bgp.Session, customers, providers []*ASInfo) []*bgp.Session {
	for _, c := range customers {
		n := 1 + in.rng.Intn(2)
		perm := in.rng.Perm(len(providers))
		for k := 0; k < n && k < len(perm); k++ {
			sessions = append(sessions, in.connectASes(p, c, providers[perm[k]], bgp.ACustomerOfB))
		}
	}
	return sessions
}

// converge runs the control planes of ases — IGP, then LDP and RSVP-TE
// where MPLS — and one valley-free BGP pass over them and sessions.
func (in *Internet) converge(ases []*ASInfo, sessions []*bgp.Session) error {
	bgpASes := make([]*bgp.AS, 0, len(ases))
	for _, as := range ases {
		dom := &igp.Domain{Routers: as.Routers()}
		spf, err := dom.Compute()
		if err != nil {
			return fmt.Errorf("gen: AS%d SPF: %w", as.Num, err)
		}
		as.spf = spf
		if as.Profile.MPLS {
			ldp.Build(as.Routers(), spf)
			if as.Profile.TE {
				in.addTETunnels(as)
			}
		}
		bgpASes = append(bgpASes, &bgp.AS{
			Num:      as.Num,
			Routers:  as.Routers(),
			Prefixes: []netaddr.Prefix{as.Aggregate},
			SPF:      spf,
		})
	}
	return bgp.Compute(&bgp.Topology{ASes: bgpASes, Sessions: sessions})
}

// finishAddrIndex seals the ground-truth index once registration is
// done: sorted by address, Resolve/Owner binary-search it from then on.
// The seal is the world's one duplicate-address check. No two records
// may share an address, and no vantage point's host may sit on a router
// address; either is a generator bug, so it panics. A stub that faults
// in after the seal needs no check of its own: it replays the eager
// build of the same stub (TestLazyFaultInEquivalence), and that build is
// sealed here.
func (in *Internet) finishAddrIndex() {
	recs := in.addrRecs
	sort.Slice(recs, func(i, j int) bool { return recs[i].addr < recs[j].addr })
	for i := 1; i < len(recs); i++ {
		if recs[i].addr == recs[i-1].addr {
			panic(fmt.Sprintf("gen: address %s bound to %s and %s (generator bug)",
				recs[i].addr, in.Net.Nodes()[recs[i-1].node].Name(), in.Net.Nodes()[recs[i].node].Name()))
		}
	}
	for _, vp := range in.VPs {
		if rec, dup := in.sealedRec(vp.Host.Addr()); dup {
			panic(fmt.Sprintf("gen: address %s bound to %s and %s (generator bug)",
				rec.addr, in.Net.Nodes()[rec.node].Name(), vp.Host.Name()))
		}
	}
}

// sealedRec binary-searches the sealed ground-truth index.
func (in *Internet) sealedRec(a netaddr.Addr) (addrRec, bool) {
	i := sort.Search(len(in.addrRecs), func(i int) bool { return in.addrRecs[i].addr >= a })
	if i < len(in.addrRecs) && in.addrRecs[i].addr == a {
		return in.addrRecs[i], true
	}
	return addrRec{}, false
}

// --- internals ---

func rngRange(rng *rand.Rand, r [2]int) int {
	if r[1] <= r[0] {
		return r[0]
	}
	return r[0] + rng.Intn(r[1]-r[0]+1)
}

// delay draws a link delay from rng — the builder's rng for eager
// construction, a stub's own seeded rng during (lazy or eager)
// materialization, so the draw stream is identical either way.
func delay(rng *rand.Rand, p Params) time.Duration {
	span := p.MaxDelay - p.MinDelay
	if span <= 0 {
		return p.MinDelay
	}
	return p.MinDelay + time.Duration(rng.Int63n(int64(span)))
}

// flatASLimit is the most ASes the flat builder handles; beyond it Build
// switches to the streamed hierarchical path (hier.go).
const flatASLimit = 250

// aggregateOf returns AS number num's /16 block (10.num.0.0/16) — the flat
// builder's addressing plan. The hierarchical builder assigns
// provider-aggregated blocks instead (see hier.go).
func aggregateOf(num uint32) netaddr.Prefix {
	return netaddr.MustPrefixFrom(netaddr.AddrFrom4(10, byte(num), 0, 0), 16)
}

// size returns the AS aggregate's address count. Blocks are at most /11,
// so the count fits uint32.
func (a *ASInfo) size() uint32 {
	return uint32(a.Aggregate.NumAddrs())
}

// maxASRouters bounds every per-AS router-count range. It sits far above
// maxLoopbacks, so a count the address plan cannot number still fails
// with an *AddressPlanError, and it keeps rngRange's span from
// overflowing.
const maxASRouters = 1 << 16

// maxStubs bounds NumStub at the child /20 blocks the largest
// hierarchical core could carve (512 per transit /11).
const maxStubs = maxHierTransits << 9

// validate rejects Params the builders cannot construct a world from:
// Build is the library's entry point, so anything that would make an
// allocator, a slice bound or a modulus panic must come back as an error
// before construction starts.
func (p Params) validate() error {
	if p.NumTier1 < 1 || p.NumTransit < 0 || p.NumStub < 0 || p.NumStub > maxStubs || p.NumVPs < 0 {
		return fmt.Errorf("gen: unsupported AS counts (%d/%d/%d, %d VPs)", p.NumTier1, p.NumTransit, p.NumStub, p.NumVPs)
	}
	// Each vantage point sits on its own stub.
	if p.NumVPs > p.NumStub {
		return fmt.Errorf("gen: %d vantage points need as many stubs, not %d", p.NumVPs, p.NumStub)
	}
	for _, r := range []struct {
		name string
		lo   int
		v    [2]int
	}{
		{"Tier1Core", 1, p.Tier1Core}, {"Tier1Edge", 0, p.Tier1Edge},
		{"TransitCore", 1, p.TransitCore}, {"TransitEdge", 0, p.TransitEdge},
		{"StubRouters", 1, p.StubRouters},
	} {
		if r.v[0] < r.lo || r.v[1] < r.v[0] || r.v[1] > maxASRouters {
			return fmt.Errorf("gen: %s %v is not a range within [%d, %d]", r.name, r.v, r.lo, maxASRouters)
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"MPLSFrac", p.MPLSFrac}, {"NoPropagateFrac", p.NoPropagateFrac},
		{"UHPFrac", p.UHPFrac}, {"TEFrac", p.TEFrac}, {"CiscoFrac", p.CiscoFrac},
		{"JuniperFrac", p.JuniperFrac}, {"MixedFrac", p.MixedFrac},
		{"TransitPeerProb", p.TransitPeerProb},
	} {
		if !(f.v >= 0 && f.v <= 1) {
			return fmt.Errorf("gen: %s %v outside [0, 1]", f.name, f.v)
		}
	}
	if p.MinDelay < 0 || p.MaxDelay < 0 || p.RegionDelay < 0 {
		return fmt.Errorf("gen: negative link delay (%v, %v, %v)", p.MinDelay, p.MaxDelay, p.RegionDelay)
	}
	return nil
}

// AddressPlanError reports an AS whose address block cannot hold what
// the Params ask of it: more routers than loopback slots, more links than
// /30 subnets, or more stub customers than child /20 blocks.
type AddressPlanError struct {
	AS   uint32
	Pool string // "loopbacks", "subnets" or "child blocks"
}

func (e *AddressPlanError) Error() string {
	return fmt.Sprintf("gen: AS%d out of %s", e.AS, e.Pool)
}

// recoverPlanError turns an allocator's *AddressPlanError panic into
// Build's error. The allocators run deep inside construction closures,
// and unwinding to Build is simpler than threading an error through each
// of them. Any other panic is a generator bug and keeps going.
func recoverPlanError(err *error) {
	if r := recover(); r != nil {
		pe, ok := r.(*AddressPlanError)
		if !ok {
			panic(r)
		}
		*err = pe
	}
}

// maxLoopbacks is how many routers one AS can number: loopbacks take the
// top 256 addresses of the aggregate, minus its first and last.
const maxLoopbacks = 254

// subnet30 allocates the AS's next /30: bottom-up from the aggregate base,
// stopping at childFloor (loopback range; carved child blocks).
func (a *ASInfo) subnet30() netaddr.Prefix {
	p := netaddr.MustPrefixFrom(a.Aggregate.Addr()+netaddr.Addr(a.nextSubnet*4), 30)
	a.nextSubnet++
	if a.nextSubnet*4 >= a.childFloor {
		panic(&AddressPlanError{AS: a.Num, Pool: "subnets"})
	}
	return p
}

// loopback allocates the AS's next loopback /32 from the top 256 addresses
// of the aggregate (10.num.255.x in the flat plan).
func (a *ASInfo) loopback() netaddr.Addr {
	a.nextLo++
	if a.nextLo > maxLoopbacks {
		panic(&AddressPlanError{AS: a.Num, Pool: "loopbacks"})
	}
	return a.Aggregate.Addr() + netaddr.Addr(a.size()-256) + netaddr.Addr(a.nextLo)
}

// carveChild20 hands out the next /20 child block from the top of the
// aggregate, below everything already reserved. Hierarchical transits use
// it to assign their stub customers provider-aggregated space.
func (a *ASInfo) carveChild20() netaddr.Prefix {
	const childSize = 1 << 12
	if a.childFloor < childSize || a.childFloor-childSize < a.nextSubnet*4 {
		panic(&AddressPlanError{AS: a.Num, Pool: "child blocks"})
	}
	a.childFloor -= childSize
	return netaddr.MustPrefixFrom(a.Aggregate.Addr()+netaddr.Addr(a.childFloor), 20)
}

// stratifiedProfiles deals out n transit/Tier-1 profiles whose vendor,
// MPLS, no-ttl-propagate and UHP shares match the survey fractions exactly
// (rounded), in shuffled order.
func stratifiedProfiles(p Params, n int, rng *rand.Rand) []Profile {
	profs := make([]Profile, n)
	share := func(f float64, of int) int { return int(math.Round(f * float64(of))) }

	// Vendors.
	order := rng.Perm(n)
	nc, nj, nm := share(p.CiscoFrac, n), share(p.JuniperFrac, n), share(p.MixedFrac, n)
	for i, idx := range order {
		v := VendorLegacy
		switch {
		case i < nc:
			v = VendorCisco
		case i < nc+nj:
			v = VendorJuniper
		case i < nc+nj+nm:
			v = VendorMixed
		}
		profs[idx].Vendor = v
	}
	for i := range profs {
		profs[i].Propagate = true
		profs[i].LDP = router.LDPAllPrefixes
		if profs[i].Vendor == VendorJuniper {
			profs[i].LDP = router.LDPHostRoutesOnly
		}
	}

	// MPLS, hiding, and UHP over fresh shuffles.
	order = rng.Perm(n)
	mpls := order[:share(p.MPLSFrac, n)]
	for _, idx := range mpls {
		profs[idx].MPLS = true
	}
	hide := rng.Perm(len(mpls))[:share(p.NoPropagateFrac, len(mpls))]
	for _, k := range hide {
		profs[mpls[k]].Propagate = false
	}
	uhp := rng.Perm(len(mpls))[:share(p.UHPFrac, len(mpls))]
	for _, k := range uhp {
		profs[mpls[k]].UHP = true
	}
	te := rng.Perm(len(mpls))[:share(p.TEFrac, len(mpls))]
	for _, k := range te {
		profs[mpls[k]].TE = true
	}
	return profs
}

// stubProfile draws a vendor for a plain-IP stub AS.
func (in *Internet) stubProfile(p Params) Profile {
	prof := Profile{Propagate: true, LDP: router.LDPAllPrefixes}
	v := in.rng.Float64()
	switch {
	case v < p.CiscoFrac:
		prof.Vendor = VendorCisco
	case v < p.CiscoFrac+p.JuniperFrac:
		prof.Vendor = VendorJuniper
		prof.LDP = router.LDPHostRoutesOnly
	case v < p.CiscoFrac+p.JuniperFrac+p.MixedFrac:
		prof.Vendor = VendorMixed
	default:
		prof.Vendor = VendorLegacy
	}
	return prof
}

// personalityFor picks a router OS per the AS vendor profile.
func personalityFor(rng *rand.Rand, prof Profile) (router.Personality, router.LDPPolicy) {
	switch prof.Vendor {
	case VendorCisco:
		return router.Cisco, router.LDPAllPrefixes
	case VendorJuniper:
		return router.Juniper, router.LDPHostRoutesOnly
	case VendorLegacy:
		return router.Legacy, router.LDPAllPrefixes
	default: // mixed: per-router draw, Cisco-leaning, with a legacy tail
		v := rng.Float64()
		switch {
		case v < 0.45:
			return router.Cisco, router.LDPAllPrefixes
		case v < 0.80:
			return router.Juniper, router.LDPHostRoutesOnly
		case v < 0.90:
			return router.JunosE, router.LDPHostRoutesOnly
		default:
			return router.Legacy, router.LDPAllPrefixes
		}
	}
}

func (in *Internet) buildAS(p Params, num uint32, tier Tier, prof Profile) *ASInfo {
	x := in.rng.Float64()
	y := in.rng.Float64()
	as := in.newAS(num, prof, aggregateOf(num), x, y)
	in.buildASTopology(in.rng, p, as, tier)
	return as
}

// newAS creates an AS record, registers it in the world's indexes, and
// reserves the top 256 addresses of its aggregate for loopbacks. The
// hierarchical builder calls it directly with provider-carved aggregates
// and precomputed coordinates.
func (in *Internet) newAS(num uint32, prof Profile, agg netaddr.Prefix, x, y float64) *ASInfo {
	as := &ASInfo{
		Num:       num,
		Name:      fmt.Sprintf("AS%d", num),
		Aggregate: agg,
		Profile:   prof,
		X:         x,
		Y:         y,
		index:     int32(len(in.ASes)),
	}
	as.childFloor = as.size() - 256
	in.ASes = append(in.ASes, as)
	in.asByNum[as.Num] = as
	return as
}

// buildASTopology populates the AS with its two-level PoP topology,
// drawing the router counts and every construction decision from rng.
func (in *Internet) buildASTopology(rng *rand.Rand, p Params, as *ASInfo, tier Tier) {
	var nCore, nEdge int
	switch tier {
	case Tier1:
		nCore, nEdge = rngRange(rng, p.Tier1Core), rngRange(rng, p.Tier1Edge)
	case Transit:
		nCore, nEdge = rngRange(rng, p.TransitCore), rngRange(rng, p.TransitEdge)
	default:
		nCore, nEdge = rngRange(rng, p.StubRouters), 0
	}
	in.buildASRouters(rng, p, as, nCore, nEdge, tier)
}

// buildASRouters is buildASTopology with the router counts decided by the
// caller: the lazy stub planner draws a stub's count from the build rng
// up front (so the universe is enumerable without construction) and
// replays the construction later from the stub's own seeded rng.
func (in *Internet) buildASRouters(rng *rand.Rand, p Params, as *ASInfo, nCore, nEdge int, tier Tier) {
	num := as.Num

	mk := func(kind string, i int) *router.Router {
		pers, pol := personalityFor(rng, as.Profile)
		cfg := router.Config{
			TTLPropagate: as.Profile.Propagate,
			MPLSEnabled:  as.Profile.MPLS,
			UHP:          as.Profile.UHP,
			LDP:          pol,
		}
		r := router.New(fmt.Sprintf("as%d-%s%d", num, kind, i), pers, cfg)
		lo := r.SetLoopback(as.loopback())
		in.Net.AddNode(r)
		in.register(lo, r, as)
		return r
	}
	for i := 0; i < nCore; i++ {
		as.Core = append(as.Core, mk("p", i))
	}
	for i := 0; i < nEdge; i++ {
		as.Edge = append(as.Edge, mk("pe", i))
	}

	// Core ring (+ a chord when large enough).
	wire := func(a, b *router.Router) {
		sub := as.subnet30()
		ai := a.AddIface(fmt.Sprintf("to-%s", b.Name()), sub.Nth(1), sub)
		bi := b.AddIface(fmt.Sprintf("to-%s", a.Name()), sub.Nth(2), sub)
		in.Net.Connect(ai, bi, delay(rng, p))
		in.register(ai, a, as)
		in.register(bi, b, as)
	}
	switch {
	case tier == Stub:
		// Stubs with several routers: a chain.
		for i := 1; i < len(as.Core); i++ {
			wire(as.Core[i-1], as.Core[i])
		}
	case len(as.Core) == 2:
		wire(as.Core[0], as.Core[1])
	case len(as.Core) > 2:
		for i := 0; i < len(as.Core); i++ {
			wire(as.Core[i], as.Core[(i+1)%len(as.Core)])
		}
		if len(as.Core) >= 5 {
			wire(as.Core[0], as.Core[len(as.Core)/2])
		}
	}
	// Edges attach to one or two core routers.
	for i, e := range as.Edge {
		wire(e, as.Core[i%len(as.Core)])
		if rng.Float64() < 0.4 && len(as.Core) > 1 {
			wire(e, as.Core[(i+1)%len(as.Core)])
		}
	}
}

// register appends ifc's ground-truth record; finishAddrIndex checks the
// records for duplicates when it seals them.
func (in *Internet) register(ifc *netsim.Iface, r *router.Router, as *ASInfo) {
	idx, ok := in.Net.IndexOf(r)
	if !ok {
		panic(fmt.Sprintf("gen: register before AddNode for %s", r.Name()))
	}
	rec := addrRec{addr: ifc.Addr, node: idx, as: as.index}
	// Post-build fault-ins record into the materializing stub's local
	// index: the shared addrRecs slice is referenced by every snapshot
	// replica and must never grow after Build seals it. Every address a
	// fault-in registers (stub interfaces, both ends of its provider
	// cross-links) lives inside the stub's own /20, so lookupAddr finds
	// the records by block.
	if lz := in.lazy; lz != nil && lz.recSink != nil {
		*lz.recSink = append(*lz.recSink, rec)
		return
	}
	in.addrRecs = append(in.addrRecs, rec)
}

// borderOf picks a border-capable router (edge router when present).
func borderOf(rng *rand.Rand, as *ASInfo) *router.Router {
	if len(as.Edge) > 0 {
		return as.Edge[rng.Intn(len(as.Edge))]
	}
	return as.Core[rng.Intn(len(as.Core))]
}

// interASDelay returns the propagation delay of a link between two ASes:
// the base jitter plus a geographic component when regional delays are on.
func interASDelay(rng *rand.Rand, p Params, a, b *ASInfo) time.Duration {
	d := delay(rng, p)
	if !p.Regional || p.RegionDelay <= 0 {
		return d
	}
	dx, dy := a.X-b.X, a.Y-b.Y
	dist := math.Sqrt(dx*dx+dy*dy) / math.Sqrt2 // normalized to [0,1]
	return d + time.Duration(dist*float64(p.RegionDelay))
}

func (in *Internet) connectASes(p Params, a, b *ASInfo, rel bgp.Relationship) *bgp.Session {
	// The subnet comes from the lexically-smaller AS's space; ownership
	// only matters for IP-to-AS mapping noise, which the campaign models
	// separately. (The hierarchical builder overrides this for stub
	// links, which must be numbered out of the stub's provider-carved
	// block.)
	owner := a
	if b.Num < a.Num {
		owner = b
	}
	return in.connectASesOwned(in.rng, p, a, b, rel, owner)
}

func (in *Internet) connectASesOwned(rng *rand.Rand, p Params, a, b *ASInfo, rel bgp.Relationship, owner *ASInfo) *bgp.Session {
	ra, rb := borderOf(rng, a), borderOf(rng, b)
	sub := owner.subnet30()
	ai := ra.AddIface(fmt.Sprintf("x-as%d", b.Num), sub.Nth(1), sub)
	bi := rb.AddIface(fmt.Sprintf("x-as%d", a.Num), sub.Nth(2), sub)
	in.Net.Connect(ai, bi, interASDelay(rng, p, a, b))
	in.register(ai, ra, a)
	in.register(bi, rb, b)
	return &bgp.Session{A: ra, B: rb, AIf: ai, BIf: bi, Rel: rel}
}

func (in *Internet) attachVP(rng *rand.Rand, p Params, as *ASInfo, idx int) {
	sub := as.subnet30()
	r := as.Core[rng.Intn(len(as.Core))]
	host := netsim.NewHost(fmt.Sprintf("vp%d", idx), sub.Nth(2), sub)
	ri := r.AddIface(fmt.Sprintf("to-vp%d", idx), sub.Nth(1), sub)
	in.Net.AddNode(host)
	in.Net.Connect(ri, host.If, delay(rng, p))
	in.register(ri, r, as)
	in.VPs = append(in.VPs, &VP{Host: host, Prober: probe.New(in.Net, host), AS: as})
}

// addTETunnels overlays one or two RSVP-TE detour LSPs on an AS that,
// per the survey, runs RSVP-TE in addition to LDP. Each tunnel steers the
// traffic for a random egress LER's loopback along an explicit path
// through an extra core router — off the IGP shortest path, the way
// operators balance load. The tunnel replaces the ingress's LDP binding
// for that FEC, so revelation heuristics encounter the paper's "more
// advanced configurations" (Sec. 3.4).
func (in *Internet) addTETunnels(as *ASInfo) {
	if len(as.Edge) < 2 || len(as.Core) < 2 {
		return
	}
	tunnels := 1 + in.rng.Intn(2)
	for t := 0; t < tunnels; t++ {
		ingress := as.Edge[in.rng.Intn(len(as.Edge))]
		egress := as.Edge[in.rng.Intn(len(as.Edge))]
		via := as.Core[in.rng.Intn(len(as.Core))]
		if ingress == egress {
			continue
		}
		path := explicitPath(as, ingress, via, egress)
		if path == nil {
			continue
		}
		tn := &rsvpte.Tunnel{
			Name: fmt.Sprintf("as%d-te%d", as.Num, t),
			Path: path,
			FEC:  netaddr.HostPrefix(egress.Loopback().Addr),
			UHP:  as.Profile.UHP,
		}
		// Signal failures (non-adjacent walk artifacts) just skip the
		// tunnel; the base LDP LSP keeps working. Recorded before the
		// attempt: even a rejected signal may have allocated labels, and
		// churn repair must replay the allocation sequence exactly.
		as.teTunnels = append(as.teTunnels, tn)
		_ = rsvpte.Signal(tn)
	}
}

// explicitPath concatenates the IGP walks ingress->via->egress, returning
// nil when the joined walk revisits a router (no loops allowed in an LSP).
func explicitPath(as *ASInfo, ingress, via, egress *router.Router) []*router.Router {
	spf := as.SPF()
	first := walkSPF(spf, ingress, via)
	second := walkSPF(spf, via, egress)
	if first == nil || second == nil {
		return nil
	}
	path := append(first, second[1:]...)
	seen := map[*router.Router]bool{}
	for _, r := range path {
		if seen[r] {
			return nil
		}
		seen[r] = true
	}
	if len(path) < 2 {
		return nil
	}
	return path
}

// walkSPF follows an SPF result's first hops from a to b, inclusive; nil
// when b is unreachable or has no loopback. a and b must differ. TE
// tunnels walk the AS's built SPF at generation and the degraded one at
// churn reconvergence.
func walkSPF(res *igp.Result, a, b *router.Router) []*router.Router {
	lo := b.Loopback()
	if lo == nil {
		return nil
	}
	path := []*router.Router{a}
	cur := a
	for steps := 0; steps < 64; steps++ {
		hops := res.NextHops[cur][lo.Prefix]
		if len(hops) == 0 || hops[0].Via == nil {
			return nil
		}
		cur = hops[0].Via
		path = append(path, cur)
		if cur == b {
			return path
		}
	}
	return nil
}
