package campaign

// The campaign engine. One coordinator runs every phase the paper's
// Sec. 4 pipeline shares, whatever executes it: prober discipline, the
// canonical bootstrap job list, contiguous per-slot partitions replayed
// into the observed graph in job order, target selection, static shard
// assignment (shard si on slot si mod ShardWorkers), the deterministic
// merge, and one tally (Counters) read, subtracted and added the same way
// for every slot.
//
// A slot executes its share of each phase on one fabric. A localSlot is
// a goroutine driving a pooled replica — or, for the serial engine, the
// source fabric itself. A remoteSlot is a socket to a worker process,
// which runs ServeWorker: the same localSlot code on its decoded world.
// Run, RunParallel and RunDistributed differ only in the slots they hand
// the coordinator.
//
// Slots run concurrently and share nothing mutable: each drives its own
// fabric, writes only its own partition of the bootstrap trace slice and
// its own shard results, and the coordinator reads them after the phase
// barrier. Trace content is independent of probing history for both Paris
// methods (no ICMP rate limiting is active in generated worlds; UDP Paris
// restarts its per-prober port cycle from the same seed on every
// replica), so the partition-shaped execution is byte-identical to one
// fabric probing everything in order.

import (
	"sync"
	"time"

	"wormhole/internal/gen"
	"wormhole/internal/netaddr"
	"wormhole/internal/netsim"
	"wormhole/internal/probe"
	"wormhole/internal/topo"
)

// executor is a slot as the coordinator drives it. Each phase method runs
// on its own goroutine, concurrently with the other slots'.
type executor interface {
	// traceJobs traces a contiguous partition of the canonical bootstrap
	// job list, handing trace j to emit in job order, and returns the
	// counters the partition cost.
	traceJobs(jobs []bootJob, emit func(j int, tr *probe.Trace) error) (Counters, error)
	// probeShards runs the slot's shards in canonical order, handing each
	// result to emit.
	probeShards(shards []shard, p *probePlan, emit func(*shardResult) error) error
	// finish closes the slot's share of the campaign.
	finish() (slotDone, error)
}

// bootJob is one bootstrap traceroute: a VP index and a destination.
type bootJob struct {
	VP  int          `json:"vp"`
	Dst netaddr.Addr `json:"dst"`
}

// probePlan is what every slot needs for the probing phase: the HDN set
// (the candidate filter) and the symbolic churn schedule, which each slot
// resolves against its own fabric.
type probePlan struct {
	hdns    []*topo.Node
	hdnAddr map[netaddr.Addr]*topo.Node
	churn   *gen.ChurnPlan
}

func newProbePlan(hdns []*topo.Node, churn *gen.ChurnPlan) *probePlan {
	p := &probePlan{hdns: hdns, hdnAddr: make(map[netaddr.Addr]*topo.Node), churn: churn}
	for _, n := range hdns {
		for _, a := range n.Addrs {
			p.hdnAddr[a] = n
		}
	}
	return p
}

// Counters is the campaign's accounting of one fabric over some window,
// and the one tally every reader shares: a shard's is one difference of
// two reads around it, a campaign's is the bootstrap's plus one Add per
// shard, and ShardStats and Campaign embed it.
type Counters struct {
	// Probes and Replies count probe packets sent and matched replies
	// (traceroutes, fingerprinting, pings, alias resolution and
	// revelation re-traces).
	Probes  uint64 `json:"probes"`
	Replies uint64 `json:"replies"`
	// BudgetHits counts fabric drains that exhausted their event budget;
	// LoopDrops the queued events discarded when that happened. Non-zero
	// values mean probes died inside the fabric (a forwarding loop or
	// runaway flood) rather than being answered or timing out.
	BudgetHits uint64 `json:"budget_hits,omitempty"`
	LoopDrops  uint64 `json:"loop_drops,omitempty"`
	// FlowCache is the flow-trajectory cache's activity, all zero when
	// disabled. Like a shard's Worker and Elapsed it is an execution
	// detail: hit/miss splits vary with worker count (each replica warms
	// its own trajectories), while the measured records do not.
	FlowCache netsim.FlowCacheStats `json:"flow_cache"`
	// ChurnEvents counts the topology churn events fired, schedule
	// remainders force-fired at shard end included.
	ChurnEvents uint64 `json:"churn_events,omitempty"`
	// FaultIns counts the lazy stubs materialized, on whichever fabric
	// probed toward them; FaultInNS is the time they took.
	FaultIns  int   `json:"fault_ins,omitempty"`
	FaultInNS int64 `json:"fault_in_ns,omitempty"`
}

// readCounters reads a fabric's cumulative counters.
func readCounters(in *gen.Internet) Counters {
	fab := in.Net.FabricStats()
	lz := in.LazyStats()
	c := Counters{
		BudgetHits:  fab.BudgetExhausted,
		LoopDrops:   fab.DroppedEvents,
		FlowCache:   in.Net.FlowCacheStats(),
		ChurnEvents: in.Net.ChurnFired(),
		FaultIns:    lz.FaultIns,
		FaultInNS:   lz.FaultInNS,
	}
	for _, vp := range in.VPs {
		c.Probes += vp.Prober.Sent
		c.Replies += vp.Prober.Recv
	}
	return c
}

// Sub returns the per-field difference c − o.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		Probes:      c.Probes - o.Probes,
		Replies:     c.Replies - o.Replies,
		BudgetHits:  c.BudgetHits - o.BudgetHits,
		LoopDrops:   c.LoopDrops - o.LoopDrops,
		FlowCache:   c.FlowCache.Sub(o.FlowCache),
		ChurnEvents: c.ChurnEvents - o.ChurnEvents,
		FaultIns:    c.FaultIns - o.FaultIns,
		FaultInNS:   c.FaultInNS - o.FaultInNS,
	}
}

// Add accumulates o into c field by field.
func (c *Counters) Add(o Counters) {
	c.Probes += o.Probes
	c.Replies += o.Replies
	c.BudgetHits += o.BudgetHits
	c.LoopDrops += o.LoopDrops
	c.FlowCache.Add(o.FlowCache)
	c.ChurnEvents += o.ChurnEvents
	c.FaultIns += o.FaultIns
	c.FaultInNS += o.FaultInNS
}

// slotDone closes a slot's session: for a replica, its resident router
// count.
type slotDone struct {
	Resident int `json:"resident,omitempty"`
}

// proberSettings are the prober tunables every slot copies from the
// source's vantage points. FirstTTL and Method are phase discipline,
// applied separately.
type proberSettings struct {
	MaxTTL   uint8  `json:"max_ttl"`
	GapLimit int    `json:"gap_limit"`
	Attempts int    `json:"attempts"`
	FlowID   uint16 `json:"flow_id"`
}

func proberSettingsOf(vps []*gen.VP) []proberSettings {
	out := make([]proberSettings, len(vps))
	for i, vp := range vps {
		p := vp.Prober
		out[i] = proberSettings{MaxTTL: p.MaxTTL, GapLimit: p.GapLimit, Attempts: p.Attempts, FlowID: p.FlowID}
	}
	return out
}

// localSlot drives one fabric through its share of a campaign.
type localSlot struct {
	in      *gen.Internet
	cfg     Config
	probers []proberSettings
	// replica is false for the serial engine's slot, which probes the
	// source fabric and holds no replica of its own.
	replica bool
}

func newLocalSlot(in *gen.Internet, cfg Config, probers []proberSettings, replica bool) *localSlot {
	in.Net.SetFlowCacheEnabled(!cfg.DisableFlowCache)
	return &localSlot{in: in, cfg: cfg, probers: probers, replica: replica}
}

// drive binds the fabric to the calling goroutine for one phase and
// applies the phase's prober discipline; the phase releases the fabric
// when it ends.
func (s *localSlot) drive(firstTTL uint8) {
	s.in.Net.BindOwner()
	for i, vp := range s.in.VPs {
		p, set := vp.Prober, s.probers[i]
		p.FirstTTL, p.Method = firstTTL, s.cfg.Method
		p.MaxTTL, p.GapLimit, p.Attempts, p.FlowID = set.MaxTTL, set.GapLimit, set.Attempts, set.FlowID
	}
}

// traceJobs always probes from TTL 1: the bootstrap maps the whole path,
// gateway included, whatever FirstTTL a previous campaign on the same
// fabric left behind, so its probe count is invariant across runs.
func (s *localSlot) traceJobs(jobs []bootJob, emit func(int, *probe.Trace) error) (Counters, error) {
	s.drive(1)
	defer s.in.Net.ReleaseOwner()
	c0 := readCounters(s.in)
	for j, job := range jobs {
		if err := emit(j, s.in.VPs[job.VP].Prober.Traceroute(job.Dst)); err != nil {
			return Counters{}, err
		}
	}
	return readCounters(s.in).Sub(c0), nil
}

func (s *localSlot) probeShards(shards []shard, p *probePlan, emit func(*shardResult) error) error {
	s.drive(s.cfg.FirstTTL)
	defer s.in.Net.ReleaseOwner()
	for _, sh := range shards {
		if err := emit(runShard(s.in, sh, p, s.cfg.ChurnFlushWorld)); err != nil {
			return err
		}
	}
	return nil
}

func (s *localSlot) finish() (slotDone, error) {
	var d slotDone
	if s.replica {
		d.Resident = s.in.LazyStats().Resident
	}
	return d, nil
}

// engine is the coordinator over a set of slots.
type engine struct {
	in    *gen.Internet
	cfg   Config
	slots []executor
	// own meters the source fabric while the coordinator itself works on
	// it (alias resolution, job enumeration, graph replay, selection) and
	// is paused while slots run, so a slot on the source fabric is never
	// billed twice.
	own      Counters
	ownStart Counters
}

func (e *engine) resume() { e.ownStart = readCounters(e.in) }
func (e *engine) pause()  { e.own.Add(readCounters(e.in).Sub(e.ownStart)) }

// owned returns the coordinator's own source counters so far.
func (e *engine) owned() Counters {
	e.pause()
	e.resume()
	return e.own
}

// each runs fn on every slot concurrently and returns the first failure
// in slot order, blamed on its slot.
func (e *engine) each(fn func(i int, x executor) error) error {
	e.pause()
	defer e.resume()
	errs := make([]error, len(e.slots))
	var wg sync.WaitGroup
	for i, x := range e.slots {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i, x)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return &WorkerError{Worker: i, Err: err}
		}
	}
	return nil
}

// run executes the campaign over the engine's slots.
func (e *engine) run() (*Campaign, error) {
	in, cfg := e.in, e.cfg
	c := &Campaign{In: in, Cfg: cfg, Workers: len(e.slots)}
	in.Net.SetFlowCacheEnabled(!cfg.DisableFlowCache)
	// The resolver may probe the source (MeasuredAliases) with bootstrap
	// discipline.
	for _, vp := range in.VPs {
		vp.Prober.FirstTTL = 1
		vp.Prober.Method = cfg.Method
	}
	e.resume()

	t0 := time.Now()
	c.ITDK = topo.New(c.resolver())
	jobs := c.bootstrapJobs()
	traces := make([]*probe.Trace, len(jobs))
	boot := make([]Counters, len(e.slots))
	err := e.each(func(i int, x executor) error {
		lo, hi := len(jobs)*i/len(e.slots), len(jobs)*(i+1)/len(e.slots)
		var err error
		boot[i], err = x.traceJobs(jobs[lo:hi], func(j int, tr *probe.Trace) error {
			traces[lo+j] = tr
			return nil
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	// AddTrace assigns node identities in insertion order: replaying in
	// job order is what makes the observed graph engine-independent.
	for _, tr := range traces {
		c.ITDK.AddTrace(tr)
	}
	c.finishBootstrapGraph()
	c.selectTargets()
	c.boot = e.owned()
	for _, d := range boot {
		c.boot.Add(d)
	}
	c.Phase.Bootstrap = time.Since(t0)
	// Every VP — including ones that end up with no targets but still run
	// revelation re-traces — probes the rest of the campaign with the
	// configured FirstTTL.
	for _, vp := range in.VPs {
		vp.Prober.FirstTTL = cfg.FirstTTL
	}

	// Static assignment: shard si always runs on slot si mod ShardWorkers,
	// so ShardStats.Worker is deterministic and each pooled replica
	// re-probes the same teams run after run, keeping its cache working
	// set small and warm.
	shards := c.buildShards()
	c.ShardWorkers = max(1, min(len(e.slots), len(shards)))
	mine := make([][]shard, len(e.slots))
	for si, sh := range shards {
		w := si % c.ShardWorkers
		mine[w] = append(mine[w], sh)
	}
	plan := newProbePlan(c.HDNs, gen.BuildChurnPlan(in, cfg.ChurnRate, cfg.ChurnSeed))
	results := make([]*shardResult, len(shards))
	t0 = time.Now()
	err = e.each(func(i int, x executor) error {
		return x.probeShards(mine[i], plan, func(res *shardResult) error {
			res.stats.Worker = i
			results[res.sh.Idx] = res
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	c.Phase.Probe = time.Since(t0)

	c.merge(results)
	c.Lazy = in.LazyStats()
	for i, x := range e.slots {
		d, err := x.finish()
		if err != nil {
			return nil, &WorkerError{Worker: i, Err: err}
		}
		c.ReplicaResident += d.Resident
	}
	return c, nil
}
