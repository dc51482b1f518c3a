package campaign

import (
	"time"

	"wormhole/internal/fingerprint"
	"wormhole/internal/gen"
	"wormhole/internal/netaddr"
	"wormhole/internal/netsim"
	"wormhole/internal/reveal"
)

// ShardStats is the per-shard measurement accounting surfaced to the CLI
// and benchmarks.
type ShardStats struct {
	// Shard is the canonical shard index; Team the owning team.
	Shard, Team int
	// Worker is the pool slot that executed the shard. Scheduling-
	// dependent in parallel runs — everything else in the campaign output
	// is not.
	Worker int
	// Targets is the number of destinations probed.
	Targets int
	// Probes and Replies count probe packets sent and matched replies
	// (traceroutes, fingerprinting, pings, and revelation re-traces).
	Probes, Replies uint64
	// Candidates counts revelation triggers among the shard's traces;
	// Revelations the distinct pairs that revealed at least one hop.
	Candidates, Revelations int
	// MaxRevealDepth is the deepest revelation recursion (re-trace steps
	// of the longest backward walk).
	MaxRevealDepth int
	// BudgetHits counts fabric drains that exhausted their event budget
	// during the shard; LoopDrops the queued events silently discarded
	// when that happened. Non-zero values mean probes died inside the
	// fabric (a forwarding loop or runaway flood) rather than timing out.
	BudgetHits, LoopDrops uint64
	// FlowCache is the shard's flow-trajectory cache activity. Like
	// Worker and Elapsed it is an execution detail: hit/miss splits vary
	// with worker count (each replica warms its own trajectories), while
	// the measured records do not.
	FlowCache netsim.FlowCacheStats
	// Sweep is the shard's single-injection sweep activity — an execution
	// detail like FlowCache.
	Sweep netsim.SweepStats
	// ChurnEvents counts the topology churn events fired during the
	// shard (schedule remainders force-fired at shard end included).
	ChurnEvents uint64
	// Elapsed is the wall-clock time the shard took; VirtualElapsed the
	// fabric time its probes consumed.
	Elapsed, VirtualElapsed time.Duration
}

// shard is one unit of probing work: a team's targets, probed from that
// team's vantage point. It crosses the worker wire as is.
type shard struct {
	Idx     int            `json:"idx"` // canonical order
	Team    int            `json:"team"`
	Targets []netaddr.Addr `json:"targets"`
}

// revealPair keys revelation de-duplication by candidate endpoints.
type revealPair struct{ x, y netaddr.Addr }

// shardResult is a shard's private output, merged later in canonical
// order. Nothing in it aliases campaign-level state, so shards can be
// produced concurrently.
type shardResult struct {
	sh      shard
	records []*Record
	fps     map[netaddr.Addr]fingerprint.Result
	stats   ShardStats
}

// buildShards partitions the (sorted) target set into one shard per
// vantage-point team — the paper's 5-team split. Shard order, and
// therefore merged record order, is (team, target), independent of any
// worker count.
func (c *Campaign) buildShards() []shard {
	if len(c.In.VPs) == 0 {
		return nil
	}
	var shards []shard
	for team := 0; team < max(c.Cfg.Teams, 1); team++ {
		var targets []netaddr.Addr
		for _, dst := range c.Targets { // already sorted
			if c.teamOf[dst] == team {
				targets = append(targets, dst)
			}
		}
		if len(targets) > 0 {
			shards = append(shards, shard{Idx: len(shards), Team: team, Targets: targets})
		}
	}
	return shards
}

// runShard probes one shard on fabric in from its team's VP: traceroute
// every target, fingerprint new hops, detect candidates, ping candidate
// egresses, then run the recursive revelation for each distinct candidate
// pair. All written state is shard-private; the merge attaches the
// campaign-level VP to the records.
//
// The shard's churn schedule, resolved against in with the canonical
// shard index as random stream, is armed for the duration of the shard
// and fires at deterministic probe boundaries. ChurnEnd force-fires any
// remainder, so the fabric leaves the shard control-plane pristine.
func runShard(in *gen.Internet, sh shard, p *probePlan, flushWorld bool) *shardResult {
	res := &shardResult{
		sh:  sh,
		fps: make(map[netaddr.Addr]fingerprint.Result),
		stats: ShardStats{
			Shard:   sh.Idx,
			Team:    sh.Team,
			Targets: len(sh.Targets),
		},
	}
	prober := in.VPs[sh.Team%len(in.VPs)].Prober
	c0 := readCounters(in)
	recv0 := prober.Recv
	clock0 := in.Net.Now()
	fired0 := in.Net.ChurnFired()
	in.Net.ChurnBegin(p.churn.EventsFor(in, sh.Idx, len(sh.Targets)), flushWorld)
	start := time.Now()

	fp := fingerprint.New(prober)
	for _, dst := range sh.Targets {
		tr := prober.Traceroute(dst)
		rec := &Record{Trace: tr}
		res.records = append(res.records, rec)

		for _, h := range tr.Hops {
			if h.Anonymous() {
				continue
			}
			if _, done := res.fps[h.Addr]; done {
				continue
			}
			if r, ok := fp.FromHop(h); ok {
				res.fps[h.Addr] = r
			}
		}

		cand, ok := reveal.CandidateFromTrace(tr)
		if !ok {
			continue
		}
		// Both endpoints must be HDN routers of the same AS (Sec. 4's
		// post-processing filter).
		iNode, iOK := p.hdnAddr[cand.Ingress.Addr]
		eNode, eOK := p.hdnAddr[cand.Egress.Addr]
		if !iOK || !eOK || iNode.ASN != eNode.ASN || iNode.ID == eNode.ID {
			continue
		}
		rec.Candidate = &cand
		rec.CandidateAS = iNode.ASN
		res.stats.Candidates++
		if reply, ok := prober.Ping(cand.Egress.Addr, 64); ok {
			rec.EgressEchoTTL = reply.ReplyTTL
		}
	}

	// Recursive revelation, de-duplicated per distinct pair within the
	// shard (the merge canonicalizes across shards).
	done := make(map[revealPair]*reveal.Revelation)
	for _, rec := range res.records {
		if rec.Candidate == nil {
			continue
		}
		k := revealPair{rec.Candidate.Ingress.Addr, rec.Candidate.Egress.Addr}
		rev, ok := done[k]
		if !ok {
			rev = reveal.Reveal(prober, k.x, k.y)
			done[k] = rev
			if len(rev.Hops) > 0 {
				res.stats.Revelations++
			}
			if d := len(rev.Steps); d > res.stats.MaxRevealDepth {
				res.stats.MaxRevealDepth = d
			}
		}
		rec.Revelation = rev
	}

	// Disarm before the final counter reads: remainders force-fired here
	// restore the pristine control plane, and their invalidations land in
	// the shard's cache accounting.
	in.Net.ChurnEnd()
	d := readCounters(in).sub(c0)
	res.stats.ChurnEvents = in.Net.ChurnFired() - fired0
	res.stats.Probes = d.Probes
	res.stats.Replies = prober.Recv - recv0
	res.stats.Elapsed = time.Since(start)
	res.stats.VirtualElapsed = in.Net.Now() - clock0
	res.stats.BudgetHits = d.BudgetHits
	res.stats.LoopDrops = d.LoopDrops
	res.stats.FlowCache = d.Flow
	res.stats.Sweep = d.Sweep
	return res
}

// merge folds shard results back into the campaign in canonical shard
// order: records concatenate to (team, target) order and reference the
// campaign-level VP of their team, the first shard to fingerprint an
// address wins, and revelations are canonicalized so every record of a
// candidate pair shares the pair's first revelation object — exactly what
// a serial pass over the same shards produces. The campaign totals start
// from the bootstrap's counters.
func (c *Campaign) merge(results []*shardResult) {
	c.Fingerprints = make(map[netaddr.Addr]fingerprint.Result)
	c.FingerprintVP = make(map[netaddr.Addr]*gen.VP)
	c.Probes, c.BudgetHits, c.LoopDrops = c.boot.Probes, c.boot.BudgetHits, c.boot.LoopDrops
	c.FlowCache, c.Sweep = c.boot.Flow, c.boot.Sweep
	canonical := make(map[revealPair]*reveal.Revelation)
	for _, res := range results {
		vp := c.vpForTeam(res.sh.Team)
		for _, rec := range res.records {
			rec.VP = vp
			if rec.Revelation == nil || rec.Candidate == nil {
				continue
			}
			k := revealPair{rec.Candidate.Ingress.Addr, rec.Candidate.Egress.Addr}
			if canon, ok := canonical[k]; ok {
				rec.Revelation = canon
			} else {
				canonical[k] = rec.Revelation
			}
		}
		c.Records = append(c.Records, res.records...)
		for a, r := range res.fps {
			if _, done := c.Fingerprints[a]; !done {
				c.Fingerprints[a] = r
				c.FingerprintVP[a] = vp
			}
		}
		s := res.stats
		c.Shards = append(c.Shards, s)
		c.Probes += s.Probes
		c.BudgetHits += s.BudgetHits
		c.LoopDrops += s.LoopDrops
		c.ChurnEvents += s.ChurnEvents
		c.FlowCache.Add(s.FlowCache)
		c.Sweep.Add(s.Sweep)
	}
}
