package gen

import (
	"math"
	"math/rand"

	"wormhole/internal/igp"
	"wormhole/internal/ldp"
	"wormhole/internal/netsim"
	"wormhole/internal/router"
	"wormhole/internal/rsvpte"
)

// This file plans topology churn for a campaign: deterministic, seeded
// fail → reconverge → repair cycles over intra-AS core links, compiled
// into netsim.ChurnEvent schedules. The plan itself is symbolic — AS and
// ring-position indices, not router pointers — so the same plan resolves
// against the source fabric (serial campaigns, the uncached oracle) and
// against any structural replica (parallel workers): all of them fire
// identical mutations at identical probe boundaries, which is what the
// equivalence-under-churn golden test pins down.
//
// Each cycle models the lifecycle the paper's route-dynamics related work
// (Viger et al.; TARVOS's MPLS/RSVP-TE fast-recovery scenarios) observes
// from traceroute:
//
//   - fail: the link goes down and only its two endpoints learn new
//     routes (fast-reroute). The rest of the AS still forwards toward
//     the dead link — the window where micro-loops, transient blackholes
//     and anonymous hops live.
//   - reconverge: the whole AS recomputes on the degraded topology, the
//     label plane is rebuilt on it, and recorded RSVP-TE tunnels are
//     re-signalled along detour paths.
//   - repair: the link returns; a full recomputation plus an in-order
//     replay of the recorded LDP/RSVP-TE signalling restores the AS's
//     control plane byte-for-byte, so the fabric ends every schedule
//     content-pristine and pooled replicas stay warm.

// churnProbesPerTarget estimates the probes a campaign spends per target
// (traceroute, ping, revelation traces); it only shapes how event ticks
// spread over a shard, not which events fire.
const churnProbesPerTarget = 48

// churnCycleTicks is the fewest probe boundaries one fail/reconverge/repair
// cycle spans: two gaps of at least three probes, and the repair tick.
const churnCycleTicks = 7

// churnCandidate is one failable link, symbolically: the ring link from
// Core[pos] to Core[(pos+1) % len(Core)] of AS index as. Ring links with
// at least three ring members never disconnect the AS.
type churnCandidate struct {
	as  int
	pos int
}

// ChurnPlan is a seeded churn scenario over an Internet's topology,
// resolvable against the source fabric or any structural replica.
type ChurnPlan struct {
	rate  float64
	seed  int64
	cands []churnCandidate
}

// BuildChurnPlan compiles the candidate set for an Internet. rate is the
// expected number of fail/reconverge/repair cycles per shard (fractions
// are sampled per shard; a shard never plans more cycles than its probe
// span holds). Returns nil — no churn — for a non-positive or NaN rate or
// a topology with no safely failable links.
func BuildChurnPlan(in *Internet, rate float64, seed int64) *ChurnPlan {
	if !(rate > 0) {
		return nil
	}
	p := &ChurnPlan{rate: rate, seed: seed}
	for ai, as := range in.ASes {
		if as.Profile.Tier == Stub || len(as.Core) < 3 {
			continue
		}
		for pos := range as.Core {
			p.cands = append(p.cands, churnCandidate{as: ai, pos: pos})
		}
	}
	if len(p.cands) == 0 {
		return nil
	}
	return p
}

// EventsFor compiles the schedule for one shard against the given fabric
// (the source Internet or a structural replica of it — AS and core
// ordering are identical by construction). stream individualizes the
// randomness per shard: the same (plan, stream, targets) triple always
// yields the same schedule, whichever fabric it resolves against, so a
// serial run and every parallel worker replaying shard si churn
// identically. Safe to call concurrently: each call owns a fresh rng.
func (p *ChurnPlan) EventsFor(in2 *Internet, stream, targets int) []netsim.ChurnEvent {
	if p == nil || len(p.cands) == 0 || targets <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(p.seed ^ int64(uint64(stream+1)*0x9e3779b97f4a7c15)))
	span := uint64(targets) * churnProbesPerTarget
	// The shard's probe span holds at most span/churnCycleTicks cycles.
	// More would only pile up at its end, where ChurnEnd force-fires them,
	// and the rate, which a worker reads from its peer, must not size the
	// schedule without bound.
	rate := min(p.rate, float64(span/churnCycleTicks))
	cycles := int(math.Floor(rate))
	if frac := rate - math.Floor(rate); frac > 0 && rng.Float64() < frac {
		cycles++
	}
	if cycles == 0 {
		return nil
	}
	// Failure windows span a meaningful fraction of the cycle's slot — a
	// handful of targets' worth of probes — so traces actually cross the
	// degraded topology; a few-probe window would close before any probe
	// toward an affected path runs.
	slot := span / uint64(cycles)
	gap := func() uint64 { return 3 + uint64(rng.Intn(4)) + slot/8 }
	var events []netsim.ChurnEvent
	tick := uint64(0)
	for cyc := 0; cyc < cycles; cyc++ {
		// Slot each cycle into its share of the probe span; ChurnEnd
		// force-fires whatever the shard was too short to reach, so
		// repair always lands.
		if lo := span * uint64(cyc) / uint64(cycles); tick < lo {
			tick = lo
		}
		tick += uint64(rng.Intn(5))
		failAt := tick
		tick += gap()
		reconvAt := tick
		tick += gap()
		repairAt := tick
		tick++
		cand := p.cands[rng.Intn(len(p.cands))]
		events = append(events, cycleEvents(in2, cand, failAt, reconvAt, repairAt)...)
	}
	return events
}

// cycleEvents resolves one symbolic candidate against a fabric and
// builds its fail/reconverge/repair event triple.
func cycleEvents(in2 *Internet, cand churnCandidate, failAt, reconvAt, repairAt uint64) []netsim.ChurnEvent {
	as := in2.ASes[cand.as]
	a := as.Core[cand.pos]
	b := as.Core[(cand.pos+1)%len(as.Core)]
	link := linkBetween(a, b)
	if link == nil {
		return nil
	}
	scope := asNodes(as)
	return []netsim.ChurnEvent{
		{
			Tick: failAt,
			Kind: "fail",
			Dev:  1,
			// The whole AS may deviate before the window closes (the
			// reconvergence inside it rewires every router), so the
			// deviance scope is the AS even though fail itself only
			// touches the endpoints.
			DevScope: scope,
			// The endpoints must be masked even if the fast-reroute
			// computation fails: the down link drops packets regardless.
			EvictScope: []netsim.Node{a, b},
			Apply: func() {
				link.Up = false
				// Fast-reroute: only the endpoints learn the detour; the
				// rest of the AS keeps forwarding into the failure.
				dom := &igp.Domain{Routers: as.Routers(), InstallOn: []*router.Router{a, b}}
				_, _ = dom.Compute()
			},
		},
		{
			Tick: reconvAt,
			Kind: "reconverge",
			Apply: func() {
				dom := &igp.Domain{Routers: as.Routers()}
				res, err := dom.Compute()
				if err != nil {
					return
				}
				rebuildMPLS(as, res, true)
			},
		},
		{
			Tick:     repairAt,
			Kind:     "repair",
			Dev:      -1,
			DevScope: scope,
			// The whole AS is masked until the window closes here,
			// whether or not repair's own mutations reach its routers.
			EvictScope: scope,
			Apply: func() {
				link.Up = true
				dom := &igp.Domain{Routers: as.Routers()}
				res, err := dom.Compute()
				if err != nil {
					return
				}
				rebuildMPLS(as, res, false)
			},
		},
	}
}

// rebuildMPLS rebuilds the AS's label plane on the given SPF result:
// clear every router's label state (which also resets the label
// allocators), rebuild LDP, then replay the recorded RSVP-TE signalling
// — along IGP detours when detour is set, along the original explicit
// paths otherwise. With the pristine topology the replay is
// byte-identical to the original build: ldp.Build allocates in a
// deterministic order from the SPF content, and the tunnel list holds
// every original signalling attempt in order.
func rebuildMPLS(as *ASInfo, res *igp.Result, detour bool) {
	if !as.Profile.MPLS {
		return
	}
	routers := as.Routers()
	for _, r := range routers {
		r.ClearMPLS()
	}
	ldp.Build(routers, res)
	for _, tn := range as.teTunnels {
		if !detour {
			_ = rsvpte.Signal(tn)
			continue
		}
		path := walkSPF(res, tn.Path[0], tn.Path[len(tn.Path)-1])
		if path == nil {
			// No usable detour (egress unreachable on the degraded
			// topology): the tunnel stays down and its FEC falls back to
			// the LDP LSP — or blackholes, like real FRR misses.
			continue
		}
		_ = rsvpte.Reroute(tn, path)
	}
}

// linkBetween returns the link joining two routers, or nil.
func linkBetween(a, b *router.Router) *netsim.Link {
	for _, ifc := range a.Ifaces() {
		remote := ifc.Remote()
		if remote == nil {
			continue
		}
		if r, ok := remote.Owner.(*router.Router); ok && r == b {
			return ifc.Link
		}
	}
	return nil
}

// asNodes returns the AS's routers as fabric nodes (churn scopes).
func asNodes(as *ASInfo) []netsim.Node {
	routers := as.Routers()
	out := make([]netsim.Node, len(routers))
	for i, r := range routers {
		out[i] = r
	}
	return out
}
