package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"wormhole/internal/gen"
	"wormhole/internal/tracefile"
)

// replayPairs is how many untraced/traced replay pairs the traced run
// makes; their order alternates so drift does not favour either side.
const replayPairs = 3

// codecReps repeats each codec and tracefile call for a median.
const codecReps = 3

// layerStats aggregates the spans of one name.
type layerStats struct {
	name        string
	calls       int
	total, self time.Duration
	delta       counters
	durs        []float64 // per-call wall time, µs
}

// aggregate folds spans by name, in order of first appearance. A span's
// self time is its duration minus that of its children in the set.
func aggregate(spans []span) []*layerStats {
	byID := make(map[int32]int, len(spans))
	for i := range spans {
		byID[spans[i].ID] = i
	}
	self := make([]time.Duration, len(spans))
	for i := range spans {
		self[i] += spans[i].dur()
		if p, ok := byID[spans[i].Parent]; ok {
			self[p] -= spans[i].dur()
		}
	}
	var order []*layerStats
	idx := make(map[string]*layerStats)
	for i := range spans {
		s := &spans[i]
		l := idx[s.Name]
		if l == nil {
			l = &layerStats{name: s.Name}
			idx[s.Name] = l
			order = append(order, l)
		}
		l.calls++
		l.total += s.dur()
		l.self += self[i]
		l.delta.add(s.Delta)
		l.durs = append(l.durs, float64(s.dur())/1e3)
	}
	return order
}

func layer(rows []*layerStats, name string) *layerStats {
	for _, l := range rows {
		if l.name == name {
			return l
		}
	}
	return &layerStats{name: name}
}

// leafCalls are the replayed calls that send probes, and so can fire
// churn events.
var leafCalls = []string{"probe.traceroute", "probe.ping", "fingerprint.from_hop", "reveal.reveal"}

// churnCost estimates the latency each churn event adds, in µs: for every
// call during which ChurnFired advanced, its time beyond what its probes
// cost in calls of the same kind without churn, plus the whole of each
// ChurnEnd (which force-fires the schedule's remainder), over the events
// fired there.
func churnCost(spans []span) float64 {
	perProbe := make(map[string]float64)
	for _, name := range leafCalls {
		var ns, probes float64
		for i := range spans {
			if s := &spans[i]; s.Name == name && s.Delta.Churn == 0 {
				ns += float64(s.dur())
				probes += float64(s.Delta.Probes)
			}
		}
		perProbe[name] = ratio(ns, probes)
	}
	var extra float64
	var events uint64
	for i := range spans {
		s := &spans[i]
		if s.Delta.Churn == 0 {
			continue
		}
		if s.Name == "netsim.churn_end" {
			extra += float64(s.dur())
			events += s.Delta.Churn
			continue
		}
		base, leaf := perProbe[s.Name]
		if !leaf {
			continue
		}
		if d := float64(s.dur()) - base*float64(s.Delta.Probes); d > 0 {
			extra += d
		}
		events += s.Delta.Churn
	}
	return ratio(extra, float64(events)) / 1e3
}

// replayTarget returns the world whose prober tunables the campaign used
// and a leased replica to replay on, fresh or warm as the workload's
// campaigns were, with the function that returns the lease.
type replayTarget func(t *tracer) (src, replica *gen.Internet, release func(), err error)

// target picks the replay fabric for the workload: a replica of a fresh
// snapshot (cold), the world's pooled warm replica (warm, churn), or a
// replica of a freshly decoded wire blob (dist, as a worker sees it).
func (b *bench) target(blob []byte) (replayTarget, func(), error) {
	lease := func(t *tracer, w *gen.Internet) (*gen.Internet, func(), error) {
		var reps []*gen.Internet
		_, err := t.timed("gen.acquire_replica", func() (err error) {
			reps, err = w.AcquireReplicas(1, false)
			return err
		})
		if err != nil {
			return nil, nil, fmt.Errorf("lease replica: %w", err)
		}
		return reps[0], func() { w.ReleaseReplicas(reps) }, nil
	}
	switch b.wl.kind {
	case kindWarm:
		reps, err := b.world.AcquireReplicas(1, false)
		if err != nil {
			return nil, nil, fmt.Errorf("lease replica: %w", err)
		}
		return func(*tracer) (*gen.Internet, *gen.Internet, func(), error) {
			return b.world, reps[0], func() {}, nil
		}, func() { b.world.ReleaseReplicas(reps) }, nil
	case kindDist:
		return func(t *tracer) (*gen.Internet, *gen.Internet, func(), error) {
			var w *gen.Internet
			_, err := t.timed("gen.decode", func() (err error) {
				w, err = gen.DecodeWire(blob)
				return err
			})
			if err != nil {
				return nil, nil, nil, fmt.Errorf("decode: %w", err)
			}
			rep, release, err := lease(t, w)
			return b.world, rep, release, err
		}, func() {}, nil
	default:
		return func(t *tracer) (*gen.Internet, *gen.Internet, func(), error) {
			var snap *gen.Internet
			d, err := t.timed("gen.snapshot", func() (err error) {
				snap, err = b.world.Snapshot()
				return err
			})
			if err != nil {
				return nil, nil, nil, fmt.Errorf("snapshot: %w", err)
			}
			b.snapTimes = append(b.snapTimes, d)
			rep, release, err := lease(t, snap)
			return b.world, rep, release, err
		}, func() {}, nil
	}
}

// traced runs the layer calls and replay pairs of the traced run and
// returns every per-layer metric.
func (b *bench) traced() (map[string]metric, error) {
	c := b.last
	if c == nil {
		return nil, errors.New("no campaign passed its checks; nothing to replay")
	}
	t := newTracer()
	t.on = true

	// gen codec and tracefile I/O, off the replay.
	ds := c.Dataset("")
	var encodes, decodes, writes, reads []time.Duration
	var blob []byte
	for i := 0; i < codecReps; i++ {
		d, err := t.timed("gen.encode", func() (err error) {
			blob, err = b.world.EncodeWire()
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("encode: %w", err)
		}
		encodes = append(encodes, d)
		d, err = t.timed("gen.decode", func() error {
			_, err := gen.DecodeWire(blob)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("decode: %w", err)
		}
		decodes = append(decodes, d)
		d, err = t.timed("tracefile.write", func() error { return tracefile.Write(io.Discard, ds) })
		if err != nil {
			return nil, fmt.Errorf("tracefile write: %w", err)
		}
		writes = append(writes, d)
		d, err = t.timed("tracefile.read", func() error {
			_, err := tracefile.Read(bytes.NewReader(b.lastData))
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("tracefile read: %w", err)
		}
		reads = append(reads, d)
	}

	want := make([][]byte, len(ds.Records))
	for i := range ds.Records {
		want[i], _ = json.Marshal(&ds.Records[i])
	}
	next, done, err := b.target(blob)
	if err != nil {
		return nil, err
	}
	defer done()
	replayOnce := func(on bool) (replayRun, [2]int, error) {
		src, rep, release, err := next(t)
		if err != nil {
			return replayRun{}, [2]int{}, err
		}
		defer release()
		runtime.GC()
		t.on = on
		lo := len(t.spans)
		r := replay(c, src, rep, t)
		t.on = true
		if err := sameRecords(r.records, want); err != nil {
			return r, [2]int{}, err
		}
		if r.hidden != b.ref.hidden {
			return r, [2]int{}, fmt.Errorf("replay revealed %d hidden hops, campaign %d", r.hidden, b.ref.hidden)
		}
		return r, [2]int{lo, len(t.spans)}, nil
	}
	if b.wl.kind == kindWarm {
		// The campaign spread its shards over two pooled replicas; one
		// untraced pass warms the leased one for every shard.
		if _, _, err := replayOnce(false); err != nil {
			return nil, err
		}
	}
	var plain, traced []time.Duration
	var last replayRun
	var lastSpans [2]int
	for i := 0; i < replayPairs; i++ {
		for _, on := range [2]bool{i%2 == 1, i%2 == 0} {
			r, rng, err := replayOnce(on)
			if err != nil {
				return nil, err
			}
			if on {
				traced = append(traced, r.wall)
				last, lastSpans = r, rng
			} else {
				plain = append(plain, r.wall)
			}
		}
	}

	spans := t.spans[lastSpans[0]:lastSpans[1]]
	rows := aggregate(spans)
	m := b.campaignLayers()
	m["gen.encode_ms"] = metric{median(millis(encodes)), "ms"}
	m["gen.decode_ms"] = metric{median(millis(decodes)), "ms"}
	m["gen.wire_mb"] = metric{float64(len(blob)) / 1e6, "MB"}
	m["gen.snapshot_ms"] = metric{median(millis(b.snapTimes)), "ms"}
	m["tracefile.write_ms"] = metric{median(millis(writes)), "ms"}
	m["tracefile.read_ms"] = metric{median(millis(reads)), "ms"}
	m["tracefile.mb"] = metric{float64(len(b.lastData)) / 1e6, "MB"}

	tr, ping := layer(rows, "probe.traceroute"), layer(rows, "probe.ping")
	m["probe.traces"] = metric{float64(tr.calls), "count"}
	m["probe.traceroute_us_p50"] = metric{quantile(tr.durs, 0.50), "us"}
	m["probe.traceroute_us_p99"] = metric{quantile(tr.durs, 0.99), "us"}
	m["probe.probes_per_trace"] = metric{ratio(float64(tr.delta.Probes), float64(tr.calls)), "count"}
	m["probe.ns_per_probe"] = metric{ratio(float64(tr.total), float64(tr.delta.Probes)), "ns"}
	m["probe.allocs_per_probe"] = metric{ratio(float64(tr.delta.Allocs), float64(tr.delta.Probes)), "count"}
	m["probe.ping_us_p50"] = metric{quantile(ping.durs, 0.50), "us"}

	fp := layer(rows, "fingerprint.from_hop")
	m["fingerprint.calls"] = metric{float64(fp.calls), "count"}
	m["fingerprint.ms"] = metric{float64(fp.total) / 1e6, "ms"}
	m["fingerprint.probes"] = metric{float64(fp.delta.Probes), "count"}

	rv := layer(rows, "reveal.reveal")
	m["reveal.candidates"] = metric{float64(last.candidates), "count"}
	m["reveal.calls"] = metric{float64(rv.calls), "count"}
	m["reveal.ms"] = metric{float64(rv.total) / 1e6, "ms"}
	m["reveal.probes"] = metric{float64(rv.delta.Probes), "count"}
	m["reveal.steps_max"] = metric{float64(last.stepsMax), "count"}
	m["reveal.hops_per_kprobe"] = metric{1e3 * ratio(float64(last.revealHops), float64(rv.delta.Probes)), "1/kprobe"}

	m["topo.add_trace_ms"] = metric{float64(layer(rows, "topo.add_trace").total) / 1e6, "ms"}
	m["topo.hdns_ms"] = metric{float64(layer(rows, "topo.hdns").total) / 1e6, "ms"}

	churnUS := churnCost(spans)
	m["netsim.churn_event_cost_us"] = metric{churnUS, "us"}

	plainMS, tracedMS := median(millis(plain)), median(millis(traced))
	m["trace.replay_ms"] = metric{plainMS, "ms"}
	m["trace.overhead_ms"] = metric{tracedMS - plainMS, "ms"}
	m["trace.overhead_pct"] = metric{100 * ratio(tracedMS-plainMS, plainMS), "%"}
	m["trace.spans"] = metric{float64(len(spans)), "count"}

	b.printTable(rows, t.spans, churnUS, plainMS, tracedMS)
	if err := b.writeSpans(t.spans); err != nil {
		return nil, err
	}
	return m, nil
}

// campaignLayers computes the per-layer metrics read from the timed
// campaigns: set-up, campaign phases and the fabric's counters.
func (b *bench) campaignLayers() map[string]metric {
	ok := b.undisturbed()
	col := func(f func(s *sample) float64) float64 {
		xs := make([]float64, len(ok))
		for i := range ok {
			xs[i] = f(&ok[i])
		}
		return median(xs)
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	hits := col(func(s *sample) float64 { return float64(s.flow.Hits) })
	misses := col(func(s *sample) float64 { return float64(s.flow.Misses) })
	return map[string]metric{
		"gen.build_s":         {median(seconds(b.buildTimes)), "s"},
		"gen.leased_replicas": {float64(b.leasedMax), "count"},

		"campaign.replica_ms":       {col(func(s *sample) float64 { return ms(s.phase.Replica) }), "ms"},
		"campaign.bootstrap_ms":     {col(func(s *sample) float64 { return ms(s.phase.Bootstrap) }), "ms"},
		"campaign.bootstrap_probes": {col(func(s *sample) float64 { return float64(s.bootProbes) }), "count"},
		"campaign.probe_ms":         {col(func(s *sample) float64 { return ms(s.phase.Probe) }), "ms"},
		"campaign.other_ms": {col(func(s *sample) float64 {
			return ms(s.wall - s.phase.Replica - s.phase.Bootstrap - s.phase.Probe)
		}), "ms"},
		"campaign.shard_imbalance": {col(func(s *sample) float64 { return s.imbalance }), "ratio"},
		"campaign.stream_mb":       {col(func(s *sample) float64 { return float64(s.streamBytes) / 1e6 }), "MB"},

		"netsim.cache_hits":          {hits, "count"},
		"netsim.cache_misses":        {misses, "count"},
		"netsim.cache_hit_ratio":     {ratio(hits, hits+misses), "ratio"},
		"netsim.cache_invalidations": {col(func(s *sample) float64 { return float64(s.flow.Invalidations) }), "count"},
		"netsim.sweep_walks":         {col(func(s *sample) float64 { return float64(s.sweep.Walks) }), "count"},
		"netsim.sweep_fallbacks":     {col(func(s *sample) float64 { return float64(s.sweep.Fallbacks) }), "count"},
		"netsim.sweep_yield": {col(func(s *sample) float64 {
			return ratio(float64(s.sweep.Replies), float64(s.sweep.Walks))
		}), "ratio"},
		"netsim.sweep_fallback_ratio": {col(func(s *sample) float64 {
			return ratio(float64(s.sweep.Fallbacks), float64(s.flow.Misses))
		}), "ratio"},
		"netsim.churn_events": {col(func(s *sample) float64 { return float64(s.churn) }), "count"},
		"netsim.budget_hits":  {col(func(s *sample) float64 { return float64(s.budgetHits) }), "count"},
		"netsim.loop_drops":   {col(func(s *sample) float64 { return float64(s.loopDrops) }), "count"},
	}
}

// sameRecords compares replayed records with the campaign's, as JSON.
func sameRecords(got []tracefile.Record, want [][]byte) error {
	if len(got) != len(want) {
		return fmt.Errorf("replay produced %d records, campaign %d", len(got), len(want))
	}
	for i := range got {
		g, err := json.Marshal(&got[i])
		if err != nil {
			return err
		}
		if !bytes.Equal(g, want[i]) {
			return fmt.Errorf("replayed record %d differs from the campaign's:\n got %s\nwant %s", i, g, want[i])
		}
	}
	return nil
}

// printTable prints where the replay's time went, layer by layer, then
// the layer calls made outside the replay and the tracing overhead.
func (b *bench) printTable(rows []*layerStats, all []span, churnUS, plainMS, tracedMS float64) {
	w := b.opts.log
	var wall time.Duration
	for _, l := range rows {
		wall += l.self
	}
	fmt.Fprintf(w, "where the time goes: %s, traced replay of one campaign's probing phase\n", b.wl.name)
	fmt.Fprintf(w, "%-22s %7s %10s %10s %6s %8s %8s %8s %7s %9s %6s\n",
		"layer", "calls", "total_ms", "self_ms", "self%", "probes", "hits", "misses", "walks", "fallbacks", "churn")
	for _, l := range rows {
		fmt.Fprintf(w, "%-22s %7d %10.2f %10.2f %5.1f%% %8d %8d %8d %7d %9d %6d\n",
			l.name, l.calls, float64(l.total)/1e6, float64(l.self)/1e6, 100*ratio(float64(l.self), float64(wall)),
			l.delta.Probes, l.delta.Hits, l.delta.Misses, l.delta.Walks, l.delta.Fallbacks, l.delta.Churn)
	}
	if events := layer(rows, "campaign.shard").delta.Churn; events > 0 {
		est := churnUS * float64(events) / 1e3
		fmt.Fprintf(w, "  of which churn replay (est.): %d events x %.1f us = %.2f ms (%.1f%% of the replay)\n",
			events, churnUS, est, 100*ratio(est*1e6, float64(wall)))
	}
	var off []span
	for _, s := range all {
		if s.Parent == -1 && s.Name != "replay" {
			off = append(off, s)
		}
	}
	for _, l := range aggregate(off) {
		fmt.Fprintf(w, "%-22s %7d %10.2f   (outside the replay)\n", l.name, l.calls, float64(l.total)/1e6)
	}
	fmt.Fprintf(w, "tracing overhead: traced %.2f ms vs untraced %.2f ms per replay (%+.2f ms, %+.1f%%), medians of %d pairs\n",
		tracedMS, plainMS, tracedMS-plainMS, 100*ratio(tracedMS-plainMS, plainMS), replayPairs)
}

// writeSpans writes every span of the traced run, one JSON object a line.
func (b *bench) writeSpans(spans []span) error {
	dir := filepath.Join(b.opts.outDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", b.wl.name, b.opts.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(b.opts.log, "spans: %d written to %s\n", len(spans), path)
	return nil
}
