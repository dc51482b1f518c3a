// Package benchrun measures the fast-path fabric end to end — replica
// construction (structural snapshot vs generator rebuild) and campaign
// throughput at several worker-pool sizes — and renders the results as a
// stable JSON report (BENCH_campaign.json in the repo root). The CLI's
// `bench` subcommand and the TestBenchSmoke tier drive it; EXPERIMENTS.md
// quotes its numbers.
package benchrun

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"slices"
	"time"

	"wormhole/internal/campaign"
	"wormhole/internal/experiments"
	"wormhole/internal/gen"
	"wormhole/internal/probe"
)

// Config selects what to measure.
type Config struct {
	Scale experiments.Scale
	Seed  int64
	// Runs is how many campaign iterations each worker count averages
	// over (default 1).
	Runs int
	// CloneIters is how many replica constructions each clone path
	// averages over (default 3).
	CloneIters int
	// Workers lists the worker-pool sizes to measure (default 1, 4,
	// NumCPU, deduplicated).
	Workers []int
	// Scales lists ladder rungs to measure build/snapshot/memory for
	// (each gets one ScaleReport row; empty = none). Independent of the
	// campaign matrix, which runs at Scale.
	Scales []experiments.Scale
	// ScalesOnly skips the clone and campaign measurements, emitting only
	// the scale-ladder rows — what the bench guard's memory gate runs.
	ScalesOnly bool
	// Dist lists worker counts for the distributed-engine rows (empty =
	// none). Each entry runs full campaigns through the coordinator/worker
	// socket protocol at Scale and records the wire-codec and streaming
	// costs alongside throughput.
	Dist []int
	// DistSpawn launches distributed workers. Nil spawns in-process
	// goroutine workers (the protocol is identical; Processes reports 1);
	// the CLI passes its process spawner, and Processes then reports the
	// coordinator plus one OS process per worker.
	DistSpawn func(worker int, network, addr string) error
}

// ScaleReport is one scale-ladder rung: how long the world takes to
// build, how long a structural snapshot takes once warm, and how many
// heap bytes one retained replica costs per router. The bytes/router
// budget is the tentpole number — the guard gates it.
type ScaleReport struct {
	Scale   string `json:"scale"`
	Routers int    `json:"routers"`
	// ResidentRouters is how many of those routers are constructed after
	// Build: equal to Routers on eager rungs, the core plus the VP stubs
	// on a lazy rung (the rest of the universe is descriptors).
	ResidentRouters int     `json:"resident_routers"`
	BuildMS         float64 `json:"build_ms"`
	// SnapshotMS is the median of codecCalls warm snapshots.
	SnapshotMS float64 `json:"snapshot_ms"`
	// BytesPerRouter divides one retained replica's settled heap delta by
	// the replica's RESIDENT router count — the honest denominator on a
	// lazy rung, and identical to dividing by Routers on eager ones.
	BytesPerRouter float64 `json:"bytes_per_router"`
	// FaultInMS is the mean wall-clock cost of materializing one stub
	// through the fault-in path, over a 64-stub sample (zero on eager
	// rungs).
	FaultInMS float64 `json:"fault_in_ms"`
	// EncodeMS/DecodeMS time the versioned wire codec on the warm fabric,
	// each the median of codecCalls calls: EncodeWire to a blob,
	// DecodeWire back to a live replica. The guard gates their sum
	// against SnapshotMS at the Large rung — the codec must stay within
	// 2× of the in-process structural snapshot.
	EncodeMS float64 `json:"encode_ms"`
	DecodeMS float64 `json:"decode_ms"`
	// WireMB is the encoded blob's size — what a distributed campaign
	// ships to each worker in snapshot mode.
	WireMB float64 `json:"wire_mb"`
}

// CloneReport compares the two replica paths.
type CloneReport struct {
	Iters        int     `json:"iters"`
	StructuralMS float64 `json:"structural_ms"`
	RebuildMS    float64 `json:"rebuild_ms"`
	// Speedup is RebuildMS / StructuralMS.
	Speedup float64 `json:"speedup"`
}

// CampaignReport is the throughput measurement at one (worker-pool size,
// flow-cache setting) point. Probe counts are split into the bootstrap
// phase (every vantage point traces the router population once, sharded
// across the worker pool like everything else) and the campaign phase
// proper (team probing on the worker pool), so the per-run totals are
// comparable across worker counts and cache settings by construction.
// The timed region covers whole campaigns — replica acquisition,
// bootstrap, and probing — with ReplicaMS and BootstrapMS breaking the
// per-run wall time down so scaling curves are interpretable.
type CampaignReport struct {
	Workers int `json:"workers"`
	// EffectiveWorkers is min(Workers, shard count): the parallelism the
	// probing phase actually used. Pool slots past the shard count (5
	// teams under the default sharding) idle through that phase.
	EffectiveWorkers int `json:"effective_workers"`
	// GoMaxProcs is the runtime parallelism this row actually ran with —
	// raised to min(Workers, NumCPU) for the measurement, so multi-worker
	// rows measure real parallelism where the hardware has it, without
	// billing scheduler thrash from oversubscribed Ps to high worker
	// counts.
	GoMaxProcs int `json:"gomaxprocs"`
	// Method is the traceroute probe modality the row ran ("icmp" or
	// "udp"). A UDP trace touches a different flow key per probe, one per
	// port-cycle slot, so its cache memoizes per (slot, TTL).
	Method string `json:"method"`
	// FlowCache reports whether the flow-trajectory cache was enabled.
	// The FlowCache=false row is the per-probe baseline.
	FlowCache bool `json:"flow_cache"`
	// Churn reports whether a seeded fail/reconverge/repair schedule ran
	// during every campaign. Churn rows measure invalidation cost: the
	// delta row (ChurnFlushWorld=false) masks only the flows crossing
	// mutated routers, and only until the repair; the flush-world row
	// drops every cache (and the replica pool) on every event — the
	// baseline masking must beat.
	Churn           bool `json:"churn"`
	ChurnFlushWorld bool `json:"churn_flush_world"`
	Runs            int  `json:"runs"`
	// ProbesPerRun = BootstrapProbesPerRun + CampaignProbesPerRun.
	ProbesPerRun          uint64  `json:"probes_per_run"`
	BootstrapProbesPerRun uint64  `json:"bootstrap_probes_per_run"`
	CampaignProbesPerRun  uint64  `json:"campaign_probes_per_run"`
	NsPerProbe            float64 `json:"ns_per_probe"`
	ProbesPerSec          float64 `json:"probes_per_sec"`
	AllocsPerProbe        float64 `json:"allocs_per_probe"`
	BytesPerProbe         float64 `json:"bytes_per_probe"`
	WallMSPerRun          float64 `json:"wall_ms_per_run"`
	// ReplicaMS is the per-run wall time spent acquiring worker replicas
	// inside the timed region. The pool is warmed by the untimed run, so
	// steady-state rows show (near-)zero here; a nonzero value means
	// replicas were rebuilt mid-measurement.
	ReplicaMS float64 `json:"replica_ms"`
	// BootstrapMS is the per-run wall time of the bootstrap sweep plus
	// target selection — the phase that was serial (and unscalable)
	// before the sweep was sharded.
	BootstrapMS float64 `json:"bootstrap_ms"`
	// Cache counters, averaged per run (zero when FlowCache is false;
	// misses and fast-forwards are also zero once the pooled replicas'
	// caches fully cover the run, the warm steady state).
	CacheHitsPerRun   uint64 `json:"cache_hits_per_run"`
	CacheMissesPerRun uint64 `json:"cache_misses_per_run"`
	CacheFFPerRun     uint64 `json:"cache_fast_forwards_per_run"`
	// ChurnEventsPerRun is the number of churn events fired per campaign
	// (zero when Churn is false).
	ChurnEventsPerRun uint64 `json:"churn_events_per_run"`
}

// DistReport is one distributed-engine row: a full campaign pushed
// through the coordinator/worker socket protocol at one worker count.
// Encode/decode price the world transfer's endpoints, StreamMB the
// total socket traffic per campaign, and the throughput columns are
// directly comparable to the in-process CampaignReport rows at the same
// worker count (same scale, same config, flow cache on).
type DistReport struct {
	Workers int `json:"workers"`
	// Processes is the OS-process footprint: 1 when the workers are
	// in-process goroutines driving the socket protocol (the test spawn),
	// coordinator + Workers when the CLI execs real worker processes.
	Processes int `json:"processes"`
	// EncodeMS/DecodeMS time the wire codec on the campaign fabric — the
	// cost to produce the world blob and to reconstitute it worker-side.
	EncodeMS float64 `json:"encode_ms"`
	DecodeMS float64 `json:"decode_ms"`
	// StreamMB is the mean bytes per campaign moved over the coordinator's
	// sockets, both directions (world blobs out, traces and shard results
	// back).
	StreamMB     float64 `json:"stream_mb"`
	Runs         int     `json:"runs"`
	ProbesPerRun uint64  `json:"probes_per_run"`
	WallMSPerRun float64 `json:"wall_ms_per_run"`
	ProbesPerSec float64 `json:"probes_per_sec"`
	// ResidentRoutersPerWorker is the mean resident-set size of one worker
	// replica after its campaign — with bytes_per_router from the scale
	// rows this prices each worker process's fabric footprint.
	ResidentRoutersPerWorker int `json:"resident_routers_per_worker"`
}

// Report is the full benchmark output.
type Report struct {
	Scale string `json:"scale"`
	Seed  int64  `json:"seed"`
	// GoMaxProcs is the ambient setting outside the campaign rows; each
	// row records the (possibly raised) value it ran with.
	GoMaxProcs int              `json:"gomaxprocs"`
	Clone      CloneReport      `json:"clone"`
	Campaign   []CampaignReport `json:"campaign"`
	// Dist holds the distributed-engine rows, when requested.
	Dist []DistReport `json:"dist,omitempty"`
	// Scales holds the scale-ladder rows, when requested.
	Scales []ScaleReport `json:"scales,omitempty"`
}

// Run executes the benchmark suite on a freshly built Internet.
func Run(cfg Config) (*Report, error) {
	if cfg.Runs < 1 {
		cfg.Runs = 1
	}
	if cfg.CloneIters < 1 {
		cfg.CloneIters = 3
	}
	rep := &Report{
		Scale:      cfg.Scale.String(),
		Seed:       cfg.Seed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, s := range cfg.Scales {
		sr, err := measureScale(s, cfg.Seed)
		if err != nil {
			return nil, err
		}
		rep.Scales = append(rep.Scales, sr)
	}
	if cfg.ScalesOnly {
		return rep, nil
	}

	if len(cfg.Workers) == 0 {
		cfg.Workers = []int{1, 4, runtime.NumCPU()}
	}
	seen := map[int]bool{}
	var workers []int
	for _, w := range cfg.Workers {
		if w >= 1 && !seen[w] {
			seen[w] = true
			workers = append(workers, w)
		}
	}
	if len(workers) == 0 {
		return nil, fmt.Errorf("benchrun: no valid worker counts in %v", cfg.Workers)
	}

	in, err := gen.Build(cfg.Scale.Params(cfg.Seed))
	if err != nil {
		return nil, err
	}

	rep.Clone, err = measureClone(in, cfg.CloneIters)
	if err != nil {
		return nil, err
	}

	camCfg := cfg.Scale.CampaignConfig()
	for _, w := range workers {
		// ICMP: per-probe baseline, the full fast path, and the two
		// churned fast-path rows (delta-invalidation vs the flush-the-world
		// baseline on an identical schedule). UDP: per-probe baseline and
		// the full fast path. Every cached row is timed after
		// measureCampaign's warm-up run, so the UDP pair prices warm memo
		// replay against per-probe simulation, not the port-cycle slot
		// cold path.
		for _, combo := range []struct {
			method                   probe.Method
			cache, churn, flushWorld bool
		}{
			{probe.ICMPParis, false, false, false},
			{probe.ICMPParis, true, false, false},
			{probe.ICMPParis, true, true, false},
			{probe.ICMPParis, true, true, true},
			{probe.UDPParis, false, false, false},
			{probe.UDPParis, true, false, false},
		} {
			cr, err := measureCampaign(in, camCfg, w, cfg.Runs, combo.method, combo.cache, combo.churn, combo.flushWorld)
			if err != nil {
				return nil, err
			}
			rep.Campaign = append(rep.Campaign, cr)
		}
	}
	for _, w := range cfg.Dist {
		if w < 1 {
			continue
		}
		dr, err := measureDist(in, camCfg, w, cfg.Runs, cfg.DistSpawn)
		if err != nil {
			return nil, err
		}
		rep.Dist = append(rep.Dist, dr)
	}
	return rep, nil
}

// goSpawnWorker is the in-process distributed worker: a goroutine that
// dials the coordinator and runs the full socket protocol. The wire
// traffic and probing are identical to a real worker process; only the
// address space is shared.
func goSpawnWorker(_ int, network, addr string) error {
	go func() {
		conn, err := net.Dial(network, addr)
		if err != nil {
			return
		}
		_ = campaign.ServeWorker(conn)
	}()
	return nil
}

// measureDist prices the distributed engine at one worker count: the
// wire codec's encode/decode endpoints, then whole campaigns through the
// socket protocol. One untimed campaign warms the allocator exactly as
// the in-process rows do.
func measureDist(in *gen.Internet, base campaign.Config, workers, runs int, spawn func(int, string, string) error) (DistReport, error) {
	rep := DistReport{Workers: workers, Processes: 1, Runs: runs}
	if spawn == nil {
		spawn = goSpawnWorker
	} else {
		rep.Processes = workers + 1
	}

	// Codec endpoints, warm: one untimed encode pays allocator growth.
	blob, err := in.EncodeWire()
	if err != nil {
		return rep, fmt.Errorf("benchrun: encode: %w", err)
	}
	runtime.GC()
	start := time.Now()
	if blob, err = in.EncodeWire(); err != nil {
		return rep, fmt.Errorf("benchrun: encode: %w", err)
	}
	rep.EncodeMS = msPer(time.Since(start), 1)
	start = time.Now()
	if _, err := gen.DecodeWire(blob); err != nil {
		return rep, fmt.Errorf("benchrun: decode: %w", err)
	}
	rep.DecodeMS = msPer(time.Since(start), 1)

	dcfg := campaign.DistConfig{Workers: workers, Spawn: spawn}
	prev := runtime.GOMAXPROCS(0)
	if target := min(workers, runtime.NumCPU()); target > prev {
		runtime.GOMAXPROCS(target)
		defer runtime.GOMAXPROCS(prev)
	}
	if _, err := campaign.RunDistributed(in, base, dcfg); err != nil {
		return rep, err
	}
	start = time.Now()
	var probes, streamed uint64
	var resident int
	for i := 0; i < runs; i++ {
		c, err := campaign.RunDistributed(in, base, dcfg)
		if err != nil {
			return rep, err
		}
		if len(c.Records) == 0 {
			return rep, fmt.Errorf("benchrun: empty distributed campaign at workers=%d", workers)
		}
		probes += c.Probes
		streamed += c.StreamBytes
		resident += c.ReplicaResident
	}
	wall := time.Since(start)
	rep.ProbesPerRun = probes / uint64(runs)
	rep.WallMSPerRun = msPer(wall, runs)
	rep.StreamMB = float64(streamed) / float64(runs) / (1 << 20)
	rep.ResidentRoutersPerWorker = resident / runs / workers
	if probes > 0 {
		rep.ProbesPerSec = float64(probes) / wall.Seconds()
	}
	return rep, nil
}

// benchChurnRate is the churn intensity of the churned bench rows:
// expected fail/reconverge/repair cycles per shard.
const benchChurnRate = 2

func measureClone(in *gen.Internet, iters int) (CloneReport, error) {
	rep := CloneReport{Iters: iters}
	// One untimed round of each path first: the initial replica pays for
	// growing the heap from its post-build size, which would otherwise be
	// billed entirely to the structural path measured first.
	if _, err := in.Snapshot(); err != nil {
		return rep, fmt.Errorf("benchrun: snapshot: %w", err)
	}
	if _, err := in.Rebuild(); err != nil {
		return rep, fmt.Errorf("benchrun: rebuild: %w", err)
	}
	runtime.GC()
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := in.Snapshot(); err != nil {
			return rep, fmt.Errorf("benchrun: snapshot: %w", err)
		}
	}
	rep.StructuralMS = msPer(time.Since(start), iters)
	runtime.GC()
	start = time.Now()
	for i := 0; i < iters; i++ {
		if _, err := in.Rebuild(); err != nil {
			return rep, fmt.Errorf("benchrun: rebuild: %w", err)
		}
	}
	rep.RebuildMS = msPer(time.Since(start), iters)
	if rep.StructuralMS > 0 {
		rep.Speedup = rep.RebuildMS / rep.StructuralMS
	}
	return rep, nil
}

func measureCampaign(in *gen.Internet, base campaign.Config, workers, runs int, method probe.Method, flowCache, churn, flushWorld bool) (CampaignReport, error) {
	rep := CampaignReport{
		Workers: workers, Runs: runs, Method: method.String(), FlowCache: flowCache,
		Churn: churn, ChurnFlushWorld: churn && flushWorld,
	}
	cfg := base
	cfg.Method = method
	cfg.DisableFlowCache = !flowCache
	if churn {
		cfg.ChurnRate = benchChurnRate
		cfg.ChurnFlushWorld = flushWorld
	}

	// Measure real parallelism: time-slicing w workers over fewer OS
	// threads measures the scheduler, not the engine, so raise GOMAXPROCS
	// to the pool size — but never past NumCPU: runnable Ps beyond the
	// physical cores add work-stealing spin without adding parallelism,
	// which would bill pure scheduler thrash to the multi-worker rows.
	// Restored afterwards.
	prev := runtime.GOMAXPROCS(0)
	if target := min(workers, runtime.NumCPU()); target > prev {
		runtime.GOMAXPROCS(target)
		defer runtime.GOMAXPROCS(prev)
	}
	rep.GoMaxProcs = runtime.GOMAXPROCS(0)

	// One untimed run first: it pays the allocator growth both settings
	// would otherwise bill to their first run, and for the cached setting
	// it warms the flow cache, so the timed runs measure the steady state
	// the campaign loop actually operates in.
	var bootstrap uint64
	if c, err := campaign.RunParallel(in, cfg, campaign.ParallelConfig{Workers: workers}); err != nil {
		return rep, err
	} else {
		bootstrap = c.BootstrapProbes()
		rep.EffectiveWorkers = c.ShardWorkers
	}

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var tally campaign.Counters
	var replica, boot time.Duration
	for i := 0; i < runs; i++ {
		c, err := campaign.RunParallel(in, cfg, campaign.ParallelConfig{Workers: workers})
		if err != nil {
			return rep, err
		}
		if len(c.Records) == 0 {
			return rep, fmt.Errorf("benchrun: empty campaign at workers=%d", workers)
		}
		tally.Add(c.Counters)
		replica += c.Phase.Replica
		boot += c.Phase.Bootstrap
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)

	n, probes := uint64(runs), tally.Probes
	rep.ProbesPerRun = probes / n
	rep.BootstrapProbesPerRun = bootstrap
	rep.CampaignProbesPerRun = rep.ProbesPerRun - bootstrap
	rep.WallMSPerRun = msPer(wall, runs)
	rep.ReplicaMS = msPer(replica, runs)
	rep.BootstrapMS = msPer(boot, runs)
	rep.CacheHitsPerRun = tally.FlowCache.Hits / n
	rep.CacheMissesPerRun = tally.FlowCache.Misses / n
	rep.CacheFFPerRun = tally.FlowCache.FastForwards / n
	rep.ChurnEventsPerRun = tally.ChurnEvents / n
	if probes > 0 {
		rep.NsPerProbe = float64(wall.Nanoseconds()) / float64(probes)
		rep.ProbesPerSec = float64(probes) / wall.Seconds()
		rep.AllocsPerProbe = float64(ms1.Mallocs-ms0.Mallocs) / float64(probes)
		rep.BytesPerProbe = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(probes)
	}
	return rep, nil
}

// measureScale builds one ladder rung and measures the tentpole numbers:
// cold build time, warm snapshot time, and the heap footprint of one
// retained replica divided by the router count. The footprint is measured
// as the settled heap delta around the retained snapshot (GC fences on
// both sides), so transient build garbage is not billed to the replica.
func measureScale(s experiments.Scale, seed int64) (ScaleReport, error) {
	rep := ScaleReport{Scale: s.String()}
	start := time.Now()
	in, err := gen.Build(s.Params(seed))
	if err != nil {
		return rep, err
	}
	rep.BuildMS = msPer(time.Since(start), 1)
	rep.Routers = in.TotalRouters()
	lz := in.LazyStats()
	rep.ResidentRouters = lz.Resident
	// Warm-up snapshot: pays allocator growth once, untimed.
	if _, err := in.Snapshot(); err != nil {
		return rep, err
	}
	if rep.SnapshotMS, err = medianMS(func() error {
		_, err := in.Snapshot()
		return err
	}); err != nil {
		return rep, err
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	keep, err := in.Snapshot()
	if err != nil {
		return rep, err
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	if lz.Resident > 0 {
		rep.BytesPerRouter = (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / float64(lz.Resident)
	}
	runtime.KeepAlive(keep)

	// Fault-in cost, measured after the footprint so the sampled stubs
	// are not billed to the retained replica.
	if n := in.FaultInSample(64); n > 0 {
		rep.FaultInMS = float64(in.LazyStats().FaultInNS-lz.FaultInNS) / float64(n) / 1e6
	}

	// Wire codec: warm encode/decode round-trip, same warm-up discipline
	// as the snapshot measurement above.
	blob, err := in.EncodeWire()
	if err != nil {
		return rep, fmt.Errorf("benchrun: encode at %s: %w", s, err)
	}
	rep.WireMB = float64(len(blob)) / (1 << 20)
	if rep.EncodeMS, err = medianMS(func() error {
		blob, err = in.EncodeWire()
		return err
	}); err != nil {
		return rep, fmt.Errorf("benchrun: encode at %s: %w", s, err)
	}
	var dec *gen.Internet
	if rep.DecodeMS, err = medianMS(func() error {
		dec, err = gen.DecodeWire(blob)
		return err
	}); err != nil {
		return rep, fmt.Errorf("benchrun: decode at %s: %w", s, err)
	}
	if dec.TotalRouters() != in.TotalRouters() {
		return rep, fmt.Errorf("benchrun: decode at %s lost routers: %d != %d", s, dec.TotalRouters(), in.TotalRouters())
	}
	return rep, nil
}

// codecCalls is how many calls medianMS times: single calls of a Large
// snapshot, encode or decode spread ±20% on a 2-CPU VM.
const codecCalls = 3

// medianMS times codecCalls calls of fn, each from a collected heap, and
// returns the median in milliseconds.
func medianMS(fn func() error) (float64, error) {
	var ms [codecCalls]float64
	for i := range ms {
		runtime.GC()
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ms[i] = msPer(time.Since(start), 1)
	}
	slices.Sort(ms[:])
	return ms[codecCalls/2], nil
}

func msPer(d time.Duration, n int) float64 {
	return float64(d.Nanoseconds()) / float64(n) / 1e6
}

// WriteJSON renders the report with stable field order and a trailing
// newline, so committed reports diff cleanly.
func WriteJSON(path string, rep *Report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
