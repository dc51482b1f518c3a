// Package campaign orchestrates the paper's Sec. 4 measurement campaign
// over a generated Internet:
//
//  1. a bootstrap traceroute sweep builds the observed router-level graph
//     (the ITDK stand-in),
//  2. High Degree Nodes seed the target selection: set A (HDN neighbors)
//     union set B (neighbors of neighbors), split across vantage-point
//     teams,
//  3. every target is traced (first TTL 2) with per-hop fingerprinting,
//  4. traces ending I, E, D with I and E candidate LERs of the same AS
//     trigger the recursive revelation process (DPR/BRPR),
//  5. the records feed the paper's analyses: FRPLA/RTLA distributions,
//     tunnel length distributions, per-AS deployment tables and graph
//     corrections.
package campaign

import (
	"hash/fnv"
	"slices"
	"time"

	"wormhole/internal/alias"
	"wormhole/internal/fingerprint"
	"wormhole/internal/gen"
	"wormhole/internal/netaddr"
	"wormhole/internal/netsim"
	"wormhole/internal/probe"
	"wormhole/internal/reveal"
	"wormhole/internal/topo"
)

// Config tunes a campaign.
type Config struct {
	// HDNThreshold is the degree above which a node is "suspicious". The
	// paper uses 128 against the full ITDK; synthetic topologies are
	// smaller, so the default scales down. Zero selects the threshold
	// adaptively (the 90th percentile of the observed degree
	// distribution, floored at 4).
	HDNThreshold int
	// FirstTTL is the initial probe TTL (2 in the paper).
	FirstTTL uint8
	// BootstrapSpread is how many VPs trace each bootstrap target.
	BootstrapSpread int
	// ASMapNoise misattributes this fraction of addresses to a wrong AS,
	// modeling the imperfect IP-to-AS mapping (Team Cymru / ITDK) the
	// paper relies on. Deterministic per address.
	ASMapNoise float64
	// MeasuredAliases replaces the generator's ground-truth alias sets
	// with Mercator-style alias resolution run from the first vantage
	// point — the realistic ITDK construction, where routers that source
	// replies from the probed address stay split across per-interface
	// nodes. AS numbers still come from the (possibly noisy) IP-to-AS
	// mapping, as in the paper.
	MeasuredAliases bool
	// DisableFlowCache turns the fabric's flow-trajectory cache off, so
	// every probe is simulated live. The default (cache on) is pinned
	// byte-identical to this oracle by the equivalence tests; the switch
	// exists for those tests and for benchmarking the speedup.
	DisableFlowCache bool
	// DisableSweep is ignored. It switched the retired UDP slot engine
	// off and stays only because the frozen perfbench module sets it.
	DisableSweep bool
	// ChurnRate arms the dynamic-topology churn engine: the expected
	// number of link fail/reconverge/repair cycles injected per shard,
	// fired at deterministic probe boundaries mid-campaign. Zero (the
	// default) probes a static Internet. Events are planned once against
	// the campaign topology and replayed identically on every engine, so
	// serial, parallel, cached, and oracle runs observe the same dynamic
	// world.
	ChurnRate float64
	// ChurnSeed seeds the churn schedule; the same (topology, rate, seed)
	// triple always fails the same links at the same probe ticks.
	ChurnSeed int64
	// ChurnFlushWorld switches churn invalidation from masking (see
	// netsim's churn.go) to a whole-fabric cache flush per event — the
	// baseline the masking path is equivalence-tested and benchmarked
	// against.
	ChurnFlushWorld bool
	// MaxBootstrapTargets caps how many router addresses the bootstrap
	// sweep traces, as a deterministic stride sample over the full set
	// (zero = no cap). The hierarchical scales set it: sweeping 10⁵
	// routers from every VP is neither tractable nor representative of
	// the paper's campaigns, which sampled the address space.
	MaxBootstrapTargets int
	// MaxTargets caps the selected target list (set A ∪ B) the same way
	// (zero = no cap). Sampling happens after the canonical sort, so
	// serial and parallel engines probe the identical subset.
	MaxTargets int
	// Method selects the traceroute probe modality for every VP:
	// probe.ICMPParis (the zero value, the default) or probe.UDPParis.
	// Pings (alias resolution, fingerprinting) stay ICMP either way.
	Method probe.Method
	// Stream switches bootstrap target selection from the stride sample
	// (which enumerates every router address — and, on a lazy world,
	// materializes every stub) to the streaming scheduler: a seeded
	// pseudo-random permutation over the probeable target space, accepted
	// under MaxBootstrapTargets and PrefixBudget. Memory is flat in the
	// universe size, and the accepted sequence is a pure function of
	// (space, StreamSeed) — identical on every engine. MaxTargets capping
	// switches to the same permuted selection.
	Stream bool
	// PrefixBudget caps how many targets the streaming scheduler accepts
	// per budget prefix (the target's AS aggregate); zero = no budget.
	// Only meaningful with Stream.
	PrefixBudget int
	// StreamSeed seeds the target-space permutation. The same (space,
	// seed) always yields the same target sequence.
	StreamSeed int64
}

// teams is the number of vantage-point teams the targets split across,
// as in the paper.
const teams = 5

// DefaultConfig mirrors the paper at synthetic scale, with an adaptive
// HDN threshold.
func DefaultConfig() Config {
	return Config{FirstTTL: 2, BootstrapSpread: 2}
}

// Record is one campaign trace with its analysis context.
type Record struct {
	VP    *gen.VP
	Trace *probe.Trace
	// Candidate is set when the trace ended I, E, D with I and E in the
	// same AS (the revelation trigger).
	Candidate *reveal.Candidate
	// CandidateAS is that AS number.
	CandidateAS uint32
	// Revelation is the outcome of the recursive revelation, when run.
	Revelation *reveal.Revelation
	// EgressEchoTTL is the reply TTL of an echo-request sent to the
	// candidate egress from this record's own vantage point (so that RTLA
	// compares two replies that crossed the same return path). Zero when
	// the ping went unanswered or there is no candidate.
	EgressEchoTTL uint8
}

// Campaign holds all collected state.
type Campaign struct {
	In  *gen.Internet
	Cfg Config

	// ITDK is the bootstrap observed graph (invisible tunnels included).
	ITDK *topo.Graph
	// HDNs are the suspicious nodes.
	HDNs []*topo.Node
	// Targets is the destination set (A union B).
	Targets []netaddr.Addr
	// Records are the campaign traces.
	Records []*Record
	// Fingerprints indexes every fingerprinted hop address.
	Fingerprints map[netaddr.Addr]fingerprint.Result
	// FingerprintVP records which vantage point collected each
	// fingerprint; TTL-delta analyses must pair replies observed from the
	// same VP.
	FingerprintVP map[netaddr.Addr]*gen.VP
	// Counters is the campaign's tally over every fabric it drove: the
	// bootstrap's (alias resolution included) plus every shard's. Non-zero
	// BudgetHits or LoopDrops mean some probes died inside the fabric
	// instead of being answered or timing out — surfaced in the
	// post-mortem so silent discards are never mistaken for clean '*'
	// hops.
	Counters
	// Sweep is always zero. It held the retired UDP slot engine's
	// counters and stays only because the frozen perfbench module reads
	// it.
	Sweep netsim.SweepStats
	// Lazy is the source fabric's resident-set accounting after the run
	// (Resident == Total on eager worlds). Its FaultIns and FaultInNS are
	// the source's lifetime totals; the campaign's own fault-ins, on the
	// source and every replica, are Counters.FaultIns and FaultInNS.
	Lazy gen.LazyStats
	// ReplicaResident sums the worker replicas' resident router counts
	// (zero with one in-process worker, whose slot is the source): the
	// fabric state actually paged in across the whole pool.
	ReplicaResident int
	// StreamBytes counts every byte the coordinator moved over its worker
	// sockets — hellos, world blobs, bootstrap jobs and shard plans out,
	// each worker's bootstrap link map and its shard results back (zero
	// for the in-process engines).
	StreamBytes uint64

	// Shards reports per-shard measurement statistics (probing phase
	// only), in canonical shard order.
	Shards []ShardStats
	// Workers is the number of slots the campaign ran on (1 for the
	// serial engine). Every slot gets a bootstrap partition.
	Workers int
	// ShardWorkers is the effective parallelism of the probing phase:
	// min(Workers, shard count). With the 5 team shards, slots beyond the
	// fifth idle through that phase — this field reports what actually
	// ran, where Workers reports what was provisioned.
	ShardWorkers int
	// Phase breaks the campaign wall-clock into engine phases.
	Phase PhaseTimings

	aliasSets *alias.Sets
	// teamOf assigns each target to a vantage-point team with the
	// paper's neighborhood-consistency rule.
	teamOf map[netaddr.Addr]int
	// boot is the bootstrap phase's accounting (alias resolution
	// included) over every fabric the campaign drove.
	boot Counters
}

// PhaseTimings is the campaign wall-clock split by engine phase: slot
// set-up (replica acquisition, none with one in-process worker, or the
// distributed engine's encode, spawn, join and world shipping), the
// bootstrap sweep plus target selection, and the shard probing phase.
// Graph is the part of Bootstrap the coordinator spends alone after the
// sweep's barrier: building the observed graph from the slots' link maps
// in slot order (naming every address on the source), HDN derivation and
// target selection. Folding traces into link maps is the slots' work,
// inside the sweep.
type PhaseTimings struct {
	Replica   time.Duration
	Bootstrap time.Duration
	Graph     time.Duration
	Probe     time.Duration
}

// BootstrapProbes returns the probes spent on the bootstrap sweep (and
// alias resolution, when enabled) before the shard phase; Probes -
// BootstrapProbes is the shard-phase probe count. Benchmarks report the
// two populations separately so serial and parallel runs are compared on
// the same footing.
func (c *Campaign) BootstrapProbes() uint64 { return c.boot.Probes }

// Run executes the full campaign serially on the Internet's own fabric:
// RunParallel with one worker, whose one slot is the source. Output is
// byte-identical to RunParallel at any worker count.
func Run(in *gen.Internet, cfg Config) *Campaign {
	c, _ := RunParallel(in, cfg, ParallelConfig{Workers: 1}) // leases nothing, so never fails
	return c
}

// vpForTeam maps a team index to its vantage point (the paper's 5-team
// split over the VP pool).
func (c *Campaign) vpForTeam(team int) *gen.VP {
	return c.In.VPs[team%len(c.In.VPs)]
}

// resolver returns the campaign's IP-to-router/AS mapping: the ground
// truth, optionally corrupted by ASMapNoise the way real IP-to-AS data
// is, or — with MeasuredAliases — replaced by Mercator-resolved sets.
func (c *Campaign) resolver() topo.Resolver {
	base := c.In.Resolve
	if c.Cfg.MeasuredAliases && len(c.In.VPs) > 0 {
		if c.aliasSets == nil {
			c.aliasSets = alias.Resolve(c.In.VPs[0].Prober, c.In.RouterAddrs())
		}
		truth := base // AS numbers still come from the IP-to-AS mapping
		base = c.aliasSets.Resolver(func(a netaddr.Addr) uint32 {
			_, asn, _ := truth(a)
			return asn
		})
	}
	if c.Cfg.ASMapNoise <= 0 {
		return base
	}
	var nums []uint32
	for _, as := range c.In.ASes {
		nums = append(nums, as.Num)
	}
	noise := c.Cfg.ASMapNoise
	return func(a netaddr.Addr) (string, uint32, bool) {
		name, asn, ok := base(a)
		if !ok {
			return name, asn, ok
		}
		h := fnv.New32a()
		u := uint32(a)
		h.Write([]byte{byte(u >> 24), byte(u >> 16), byte(u >> 8), byte(u)})
		v := h.Sum32()
		if float64(v%10000)/10000 < noise && len(nums) > 1 {
			// Deterministically misattribute to another AS.
			asn = nums[int(v)%len(nums)]
		}
		return name, asn, true
	}
}

// strideSample returns up to max elements of xs at evenly spaced indices
// (the full slice when max is zero or not exceeded). Deterministic, so
// every engine samples the identical subset.
func strideSample[T any](xs []T, max int) []T {
	if max <= 0 || len(xs) <= max {
		return xs
	}
	out := make([]T, max)
	for i := range out {
		out[i] = xs[i*len(xs)/max]
	}
	return out
}

// bootstrapJobs returns the bootstrap sweep's canonical job list: every
// sampled target traced from BootstrapSpread consecutive VPs. The sample
// is a stride sample over every router address or, with Stream, the
// streaming scheduler's accepted sequence — a pure function of (space,
// seed) enumerated without probing anything.
func (c *Campaign) bootstrapJobs() []bootJob {
	if len(c.In.VPs) == 0 {
		return nil
	}
	if c.Cfg.Stream {
		space := c.In.ProbeSpace()
		return spreadJobs(streamTargets(space, c.Cfg.StreamSeed, c.Cfg.MaxBootstrapTargets, c.Cfg.PrefixBudget), c.Cfg.BootstrapSpread, len(c.In.VPs))
	}
	return spreadJobs(strideSample(c.In.RouterAddrs(), c.Cfg.MaxBootstrapTargets), c.Cfg.BootstrapSpread, len(c.In.VPs))
}

// spreadJobs traces target i from VPs i, i+1, …, i+spread-1 (mod vps).
func spreadJobs(targets []netaddr.Addr, spread, vps int) []bootJob {
	spread = min(max(spread, 1), vps)
	jobs := make([]bootJob, 0, len(targets)*spread)
	for i, dst := range targets {
		for k := 0; k < spread; k++ {
			jobs = append(jobs, bootJob{VP: (i + k) % vps, Dst: dst})
		}
	}
	return jobs
}

// finishBootstrapGraph derives the HDN set from the observed graph,
// selecting the threshold adaptively when unset. It must run after the
// last link map is added.
func (c *Campaign) finishBootstrapGraph() {
	if c.Cfg.HDNThreshold == 0 {
		c.Cfg.HDNThreshold = c.ITDK.DegreeHistogram().Quantile(0.90)
		if c.Cfg.HDNThreshold < 4 {
			c.Cfg.HDNThreshold = 4
		}
	}
	c.HDNs = c.ITDK.HDNs(c.Cfg.HDNThreshold)
}

// selectTargets builds set A (HDN neighbors) and set B (their neighbors),
// and assigns each target to a team with the paper's consistency rule:
// "if neighbor N is in VP set 1, then all neighbors of N are also in VP
// set 1" — a neighbor's whole neighborhood probes from one team.
func (c *Campaign) selectTargets() {
	c.teamOf = make(map[netaddr.Addr]int)
	// Every address belongs to exactly one node, so visiting each node
	// once visits each address once.
	seen := make([]bool, c.ITDK.NumNodes()) // by NodeID
	add := func(n *topo.Node, team int) {
		if seen[n.ID] {
			return
		}
		seen[n.ID] = true
		for _, a := range n.Addrs {
			c.Targets = append(c.Targets, a)
			c.teamOf[a] = team
		}
	}
	nextTeam := 0
	for _, hdn := range c.HDNs {
		for _, nb := range c.ITDK.Neighbors(hdn) { // set A
			team := nextTeam % teams
			nextTeam++
			add(nb, team)
			for _, nb2 := range c.ITDK.Neighbors(nb) { // set B: same team as N
				add(nb2, team)
			}
		}
	}
	slices.Sort(c.Targets)
	// Cap after the canonical sort: the sampled subset is a function of
	// the sorted list alone, so every engine probes the same targets.
	// teamOf keeps entries for sampled-out addresses; only c.Targets
	// drives the shards.
	if c.Cfg.Stream {
		c.Targets = c.streamSampleTargets(c.Targets)
	} else {
		c.Targets = strideSample(c.Targets, c.Cfg.MaxTargets)
	}
}

// Revelations returns the distinct successful revelations.
func (c *Campaign) Revelations() []*reveal.Revelation {
	seen := make(map[*reveal.Revelation]bool)
	var out []*reveal.Revelation
	for _, rec := range c.Records {
		if rec.Revelation != nil && !seen[rec.Revelation] {
			seen[rec.Revelation] = true
			out = append(out, rec.Revelation)
		}
	}
	return out
}

// CorrectedGraph rebuilds the observed graph with revealed tunnel hops
// spliced between their ingress-egress pairs (the Fig. 10 correction).
// The splice is router-level: any trace whose consecutive hops land on a
// revealed pair's routers — whatever interface addresses it observed —
// gets the hidden LSRs inserted, so the false mesh dissolves at node
// granularity, the way the paper corrects the mapped ITDK graph.
func (c *Campaign) CorrectedGraph() *topo.Graph {
	g := topo.New(c.resolver())
	resolve := c.resolver()
	routerOf := func(a netaddr.Addr) string {
		if name, _, ok := resolve(a); ok {
			return name
		}
		return "unmapped-" + a.String()
	}
	replaced := make(map[[2]string][]netaddr.Addr)
	for _, rev := range c.Revelations() {
		if len(rev.Hops) > 0 {
			replaced[[2]string{routerOf(rev.Ingress), routerOf(rev.Egress)}] = rev.Hops
		}
	}
	for _, rec := range c.Records {
		c.addCorrectedTrace(g, rec.Trace, routerOf, replaced)
	}
	return g
}

// addCorrectedTrace splices revealed hops into a trace's adjacency.
func (c *Campaign) addCorrectedTrace(g *topo.Graph, tr *probe.Trace, routerOf func(netaddr.Addr) string, replaced map[[2]string][]netaddr.Addr) {
	var seq []netaddr.Addr
	for _, h := range tr.Hops {
		if !h.Anonymous() {
			seq = append(seq, h.Addr)
		}
	}
	var path []netaddr.Addr
	for i, a := range seq {
		path = append(path, a)
		if i+1 < len(seq) {
			if hidden, ok := replaced[[2]string{routerOf(a), routerOf(seq[i+1])}]; ok {
				path = append(path, hidden...)
			}
		}
	}
	g.AddPath(path)
}

// ObservedTraceGraph builds the uncorrected graph from the campaign
// records only (the "invisible" side of Fig. 10).
func (c *Campaign) ObservedTraceGraph() *topo.Graph {
	g := topo.New(c.resolver())
	for _, rec := range c.Records {
		g.AddTrace(rec.Trace)
	}
	return g
}
