package main

import (
	"runtime/metrics"
	"time"

	"wormhole/internal/campaign"
	"wormhole/internal/fingerprint"
	"wormhole/internal/gen"
	"wormhole/internal/netaddr"
	"wormhole/internal/netsim"
	"wormhole/internal/probe"
	"wormhole/internal/reveal"
	"wormhole/internal/topo"
	"wormhole/internal/tracefile"
)

// counters are the layer counters a span records as deltas between its
// start and end.
type counters struct {
	Probes        uint64 `json:"probes,omitempty"`
	Hits          uint64 `json:"cache_hits,omitempty"`
	Misses        uint64 `json:"cache_misses,omitempty"`
	Invalidations uint64 `json:"cache_invalidations,omitempty"`
	Walks         uint64 `json:"sweep_walks,omitempty"`
	Derived       uint64 `json:"sweep_replies,omitempty"`
	Fallbacks     uint64 `json:"sweep_fallbacks,omitempty"`
	Churn         uint64 `json:"churn_events,omitempty"`
	BudgetHits    uint64 `json:"budget_hits,omitempty"`
	LoopDrops     uint64 `json:"loop_drops,omitempty"`
	Allocs        uint64 `json:"allocs,omitempty"`
}

func (c counters) sub(o counters) counters {
	return counters{
		Probes: c.Probes - o.Probes, Hits: c.Hits - o.Hits, Misses: c.Misses - o.Misses,
		Invalidations: c.Invalidations - o.Invalidations, Walks: c.Walks - o.Walks,
		Derived: c.Derived - o.Derived, Fallbacks: c.Fallbacks - o.Fallbacks, Churn: c.Churn - o.Churn,
		BudgetHits: c.BudgetHits - o.BudgetHits, LoopDrops: c.LoopDrops - o.LoopDrops, Allocs: c.Allocs - o.Allocs,
	}
}

func (c *counters) add(o counters) {
	c.Probes += o.Probes
	c.Hits += o.Hits
	c.Misses += o.Misses
	c.Invalidations += o.Invalidations
	c.Walks += o.Walks
	c.Derived += o.Derived
	c.Fallbacks += o.Fallbacks
	c.Churn += o.Churn
	c.BudgetHits += o.BudgetHits
	c.LoopDrops += o.LoopDrops
	c.Allocs += o.Allocs
}

// span is one call into a layer: name, start and end since the tracer's
// origin, the span that caused it (-1 for a root), and counter deltas.
type span struct {
	ID     int32    `json:"id"`
	Parent int32    `json:"parent"`
	Name   string   `json:"name"`
	Start  int64    `json:"start_ns"`
	End    int64    `json:"end_ns"`
	Delta  counters `json:"delta"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory. Switched off it records nothing, so the
// same replay code gives the untraced baseline.
type tracer struct {
	on     bool
	origin time.Time
	spans  []span
	open   []int32
	start  []counters
	// prober and net are the counter sources of the shard being replayed.
	prober *probe.Prober
	net    *netsim.Network
	allocs []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		origin: time.Now(),
		spans:  make([]span, 0, 1<<16),
		allocs: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}},
	}
}

func (t *tracer) read() counters {
	var c counters
	if t.prober != nil {
		c.Probes = t.prober.Sent
	}
	if t.net != nil {
		f, s, fab := t.net.FlowCacheStats(), t.net.SweepStats().Total(), t.net.FabricStats()
		c.Hits, c.Misses, c.Invalidations = f.Hits, f.Misses, f.Invalidations
		c.Walks, c.Derived, c.Fallbacks = s.Walks, s.Replies, s.Fallbacks
		c.Churn = t.net.ChurnFired()
		c.BudgetHits, c.LoopDrops = fab.BudgetExhausted, fab.DroppedEvents
	}
	metrics.Read(t.allocs)
	c.Allocs = t.allocs[0].Value.Uint64()
	return c
}

// begin opens a span as a child of the innermost open one.
func (t *tracer) begin(name string) {
	if !t.on {
		return
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name})
	t.open = append(t.open, id)
	t.start = append(t.start, t.read())
	t.spans[id].Start = int64(time.Since(t.origin))
}

// end closes the innermost open span.
func (t *tracer) end() {
	if !t.on {
		return
	}
	end := int64(time.Since(t.origin))
	c := t.read()
	n := len(t.open) - 1
	sp := &t.spans[t.open[n]]
	sp.End = end
	sp.Delta = c.sub(t.start[n])
	t.open, t.start = t.open[:n], t.start[:n]
}

// timed runs fn inside a span and returns its wall time.
func (t *tracer) timed(name string, fn func() error) (time.Duration, error) {
	t.begin(name)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	t.end()
	return d, err
}

// replayRun is one replay of a campaign's probing phase.
type replayRun struct {
	records    []tracefile.Record
	hidden     int
	candidates int
	revealHops int
	stepsMax   int
	wall       time.Duration
}

type pair struct{ x, y netaddr.Addr }

// replay drives the probing phase of campaign c again on replica, shard
// by shard in canonical order, through the layers' public entry points:
// Traceroute, FromHop, CandidateFromTrace, Ping and Reveal on the shard's
// prober, then AddTrace and HDNs on an observed graph of the replayed
// traces. It repeats the engine's per-shard discipline (fingerprint and
// revelation de-duplication, the HDN candidate filter, the shard's churn
// schedule), so its records must equal the campaign's. src supplies the
// prober tunables the campaign mirrored onto its replicas.
func replay(c *campaign.Campaign, src, replica *gen.Internet, t *tracer) replayRun {
	cfg := c.Cfg
	replica.Net.SetFlowCacheEnabled(!cfg.DisableFlowCache)
	replica.Net.SetSweepEnabled(!cfg.DisableSweep)
	for i, vp := range replica.VPs {
		p, m := vp.Prober, src.VPs[i].Prober
		p.Method, p.FirstTTL = cfg.Method, cfg.FirstTTL
		p.MaxTTL, p.GapLimit, p.Attempts, p.FlowID = m.MaxTTL, m.GapLimit, m.Attempts, m.FlowID
	}
	hdnAddr := make(map[netaddr.Addr]*topo.Node)
	for _, n := range c.HDNs {
		for _, a := range n.Addrs {
			hdnAddr[a] = n
		}
	}
	plan := gen.BuildChurnPlan(replica, cfg.ChurnRate, cfg.ChurnSeed)
	replica.Net.BindOwner()
	defer replica.Net.ReleaseOwner()
	t.net = replica.Net
	defer func() { t.net, t.prober = nil, nil }()

	out := replayRun{records: make([]tracefile.Record, 0, len(c.Records))}
	traces := make([]*probe.Trace, 0, len(c.Records))
	canonical := make(map[pair]*tracefile.Revelation)
	t0 := time.Now()
	t.begin("replay")
	off := 0
	for _, st := range c.Shards {
		recs := c.Records[off : off+st.Targets]
		off += st.Targets
		prober := replica.VPs[st.Team%len(replica.VPs)].Prober
		t.prober = prober
		t.begin("campaign.shard")
		replica.Net.ChurnBegin(plan.EventsFor(replica, st.Shard, st.Targets), cfg.ChurnFlushWorld)
		fp := fingerprint.New(prober)
		fingerprinted := make(map[netaddr.Addr]bool)
		type pending struct {
			rec int
			k   pair
		}
		var cands []pending
		for _, rec := range recs {
			t.begin("probe.traceroute")
			tr := prober.Traceroute(rec.Trace.Dst)
			t.end()
			traces = append(traces, tr)
			r := tracefile.Record{Trace: tracefile.FromTrace(tr)}
			for _, h := range tr.Hops {
				if h.Anonymous() || fingerprinted[h.Addr] {
					continue
				}
				t.begin("fingerprint.from_hop")
				_, ok := fp.FromHop(h)
				t.end()
				if ok {
					fingerprinted[h.Addr] = true
				}
			}
			t.begin("reveal.candidate")
			cand, ok := reveal.CandidateFromTrace(tr)
			t.end()
			if ok {
				in, iOK := hdnAddr[cand.Ingress.Addr]
				eg, eOK := hdnAddr[cand.Egress.Addr]
				if iOK && eOK && in.ASN == eg.ASN && in.ID != eg.ID {
					r.CandidateAS = in.ASN
					out.candidates++
					t.begin("probe.ping")
					if reply, ok := prober.Ping(cand.Egress.Addr, 64); ok {
						r.EgressEchoTTL = reply.ReplyTTL
					}
					t.end()
					cands = append(cands, pending{len(out.records), pair{cand.Ingress.Addr, cand.Egress.Addr}})
				}
			}
			out.records = append(out.records, r)
		}
		// Revelation per distinct pair within the shard; the first shard
		// to reveal a pair owns it campaign-wide, as in the engine's merge.
		revealed := make(map[pair]bool)
		for _, p := range cands {
			if !revealed[p.k] {
				revealed[p.k] = true
				t.begin("reveal.reveal")
				rev := reveal.Reveal(prober, p.k.x, p.k.y)
				t.end()
				out.revealHops += len(rev.Hops)
				if len(rev.Steps) > out.stepsMax {
					out.stepsMax = len(rev.Steps)
				}
				if _, ok := canonical[p.k]; !ok {
					rv := tracefile.FromRevelation(rev)
					canonical[p.k] = &rv
					out.hidden += len(rev.Hops)
				}
			}
			out.records[p.rec].Revelation = canonical[p.k]
		}
		t.begin("netsim.churn_end")
		replica.Net.ChurnEnd()
		t.end()
		t.end()
	}
	t.prober = nil
	g := topo.New(src.Resolve)
	for _, tr := range traces {
		t.begin("topo.add_trace")
		g.AddTrace(tr)
		t.end()
	}
	t.begin("topo.hdns")
	g.HDNs(cfg.HDNThreshold)
	t.end()
	t.end()
	out.wall = time.Since(t0)
	return out
}
