package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"wormhole/internal/campaign"
	"wormhole/internal/gen"
	"wormhole/internal/netsim"
	"wormhole/internal/tracefile"
)

// kind is how a workload obtains the fabric each timed campaign runs on.
type kind uint8

const (
	// kindCold runs every campaign on a never-probed snapshot of the
	// pristine world: replica cloning, cache misses and sweep walks.
	kindCold kind = iota
	// kindWarm runs an untimed warm-up campaign in set-up, then repeats
	// campaigns on the world's pooled, warm replicas.
	kindWarm
	// kindDist runs campaign.RunDistributed with in-process goroutine
	// workers over a Unix socket; every campaign ships and decodes the
	// world, so it is cold by design.
	kindDist
)

type workload struct {
	name  string
	kind  kind
	churn bool
}

var workloads = []workload{
	{name: "large-cold", kind: kindCold},
	{name: "large-warm", kind: kindWarm},
	{name: "large-churn", kind: kindWarm, churn: true},
	{name: "large-dist", kind: kindDist},
}

// churnRate is large-churn's expected fail/reconverge/repair cycles per
// shard: 2 cycles × 5 shards × 3 events = 30 events per campaign. The
// schedule's seed is fixed with the world: which links fail sets most of
// a churned campaign's cost, and varying it with the workload seed would
// make runs with different seeds measure different amounts of work.
const churnRate = 2

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// reference is the serial engine's output on a pristine snapshot: every
// timed campaign must reproduce it.
type reference struct {
	digest [32]byte
	probes uint64
	hidden int
	churn  uint64
}

// sample is one timed campaign.
type sample struct {
	wall        time.Duration
	allocBytes  uint64
	phase       campaign.PhaseTimings
	imbalance   float64
	bootProbes  uint64
	streamBytes uint64
	flow        netsim.FlowCacheStats
	sweep       netsim.SweepCounters
	churn       uint64
	budgetHits  uint64
	loopDrops   uint64
	// stolen is the CPU time the hypervisor took from this machine while
	// the campaign ran (both CPUs together).
	stolen time.Duration
	err    error
}

// disturbed reports whether the hypervisor took more than maxStealShare
// of the CPU time the campaign could have used.
func (s *sample) disturbed() bool {
	return s.stolen.Seconds() > maxStealShare*s.wall.Seconds()*workers
}

type bench struct {
	opts  options
	wl    workload
	cfg   campaign.Config
	world *gen.Internet
	ref   reference

	setupTimes []time.Duration
	buildTimes []time.Duration
	snapTimes  []time.Duration

	samples   []sample
	failed    int
	leasedMax int
	// first is the first campaign that passed its checks (the cold-state
	// guard compares every later one against it).
	first *sample
	// last is the last campaign that passed its checks, and lastData its
	// serialized dataset; the traced run replays it.
	last     *campaign.Campaign
	lastData []byte

	sock    string
	workers sync.WaitGroup
}

func newBench(opts options, wl workload) *bench {
	cfg := opts.rung.CampaignConfig()
	if wl.churn {
		cfg.ChurnRate = churnRate
		cfg.ChurnSeed = worldSeed
	}
	return &bench{
		opts: opts,
		wl:   wl,
		cfg:  cfg,
		sock: filepath.Join(opts.outDir, fmt.Sprintf("coord-%d.sock", os.Getpid())),
	}
}

// seedFlows draws every vantage point's Paris flow identifier from the
// workload seed: the same world, probed along different ECMP branches.
func seedFlows(in *gen.Internet, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, vp := range in.VPs {
		vp.Prober.FlowID = uint16(1 + rng.Intn(0xffff))
	}
}

// setup builds the world (and, on warm workloads, runs the warm-up
// campaign) opts.setups times, keeping the last world. The serial
// reference is computed once, from a snapshot of the first world before
// its warm-up, and is not part of the set-up time.
func (b *bench) setup() error {
	for i := 0; i < b.opts.setups; i++ {
		b.world = nil
		runtime.GC()
		t0 := time.Now()
		in, err := gen.Build(b.opts.rung.Params(worldSeed))
		if err != nil {
			return fmt.Errorf("build: %w", err)
		}
		seedFlows(in, b.opts.seed)
		build := time.Since(t0)
		b.buildTimes = append(b.buildTimes, build)
		if i == 0 {
			if err := b.reference(in); err != nil {
				return err
			}
			runtime.GC()
		}
		t1 := time.Now()
		if b.wl.kind == kindWarm {
			if _, err := campaign.RunParallel(in, b.cfg, campaign.ParallelConfig{Workers: workers}); err != nil {
				return fmt.Errorf("warm-up campaign: %w", err)
			}
		}
		b.setupTimes = append(b.setupTimes, build+time.Since(t1))
		b.world = in
	}
	return nil
}

// reference runs the serial engine on a pristine snapshot.
func (b *bench) reference(in *gen.Internet) error {
	t0 := time.Now()
	snap, err := in.Snapshot()
	if err != nil {
		return fmt.Errorf("reference snapshot: %w", err)
	}
	b.snapTimes = append(b.snapTimes, time.Since(t0))
	c := campaign.Run(snap, b.cfg)
	if len(c.Records) == 0 {
		return errors.New("reference campaign produced no records")
	}
	data, err := datasetBytes(c)
	if err != nil {
		return fmt.Errorf("reference dataset: %w", err)
	}
	b.ref = reference{digest: sha256.Sum256(data), probes: c.Probes, hidden: hiddenHops(c), churn: c.ChurnEvents}
	return nil
}

// timeCampaign runs and checks one timed campaign.
func (b *bench) timeCampaign() {
	var s sample
	target := b.world
	if b.wl.kind == kindCold {
		t0 := time.Now()
		snap, err := b.world.Snapshot()
		b.snapTimes = append(b.snapTimes, time.Since(t0))
		if err != nil {
			b.fail(&s, fmt.Errorf("snapshot: %w", err))
			return
		}
		target = snap
	}
	// Every campaign starts from a collected heap, so GC work left over
	// from set-up or the previous campaign's check is not billed to it.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	steal0 := stealTicks()
	t0 := time.Now()
	var c *campaign.Campaign
	var err error
	if b.wl.kind == kindDist {
		c, err = b.runDistributed()
	} else {
		c, err = campaign.RunParallel(target, b.cfg, campaign.ParallelConfig{Workers: workers})
	}
	s.wall = time.Since(t0)
	s.stolen = time.Duration(stealTicks()-steal0) * tick
	runtime.ReadMemStats(&m1)
	b.workers.Wait()
	s.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	if err != nil {
		b.fail(&s, err)
		return
	}
	leased := target.LeasedReplicas()
	if leased > b.leasedMax {
		b.leasedMax = leased
	}
	if err := b.check(c, &s, leased); err != nil {
		b.fail(&s, err)
		return
	}
	b.samples = append(b.samples, s)
	if b.first == nil {
		b.first = &s
	}
	b.last = c
}

func (b *bench) fail(s *sample, err error) {
	s.err = err
	b.failed++
	b.samples = append(b.samples, *s)
	fmt.Fprintf(os.Stderr, "perfbench: %s campaign %d: %v\n", b.wl.name, len(b.samples), err)
}

// runDistributed runs one distributed campaign whose workers are
// goroutines of this process speaking the real socket protocol. The
// caller waits on b.workers after stopping its clock.
func (b *bench) runDistributed() (*campaign.Campaign, error) {
	_ = os.Remove(b.sock) // a stale socket from a killed run would block Listen
	spawn := func(_ int, network, addr string) error {
		b.workers.Add(1)
		go func() {
			defer b.workers.Done()
			conn, err := net.Dial(network, addr)
			if err != nil {
				return // the coordinator's join timeout reports the missing worker
			}
			// A worker failure surfaces as the coordinator's WorkerError.
			_ = campaign.ServeWorker(conn)
		}()
		return nil
	}
	return campaign.RunDistributed(b.world, b.cfg, campaign.DistConfig{
		Workers: workers,
		Replica: campaign.ReplicaSnapshot,
		Network: "unix",
		Addr:    b.sock,
		Spawn:   spawn,
	})
}

// check records the campaign's counters into s and verifies its output
// and state guards.
func (b *bench) check(c *campaign.Campaign, s *sample, leased int) error {
	s.phase = c.Phase
	s.imbalance = shardImbalance(c.Shards)
	s.bootProbes = c.BootstrapProbes()
	s.streamBytes = c.StreamBytes
	s.flow = c.FlowCache
	s.sweep = c.Sweep.Total()
	s.churn = c.ChurnEvents
	s.budgetHits = c.BudgetHits
	s.loopDrops = c.LoopDrops

	if len(c.Records) == 0 {
		return errors.New("campaign produced no records")
	}
	if leased != 0 {
		return fmt.Errorf("%d replicas still leased after the campaign", leased)
	}
	data, err := datasetBytes(c)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	if sha256.Sum256(data) != b.ref.digest {
		return errors.New("dataset digest differs from the serial reference")
	}
	if c.Probes != b.ref.probes {
		return fmt.Errorf("sent %d probes, serial reference sent %d", c.Probes, b.ref.probes)
	}
	switch {
	case b.wl.kind == kindCold && b.first != nil && (s.flow != b.first.flow || s.sweep != b.first.sweep):
		return fmt.Errorf("cache/sweep counters %+v %+v differ from the first cold campaign's %+v %+v: warm state leaked",
			s.flow, s.sweep, b.first.flow, b.first.sweep)
	case b.wl.kind == kindWarm && !b.wl.churn && s.flow.Misses != 0:
		return fmt.Errorf("%d flow-cache misses after warm-up", s.flow.Misses)
	case b.wl.churn && c.ChurnEvents != b.ref.churn:
		return fmt.Errorf("fired %d churn events, serial reference fired %d", c.ChurnEvents, b.ref.churn)
	}
	b.lastData = data
	return nil
}

// close removes what the run left in outDir besides the span file.
func (b *bench) close() {
	_ = os.Remove(b.sock)
}

// endToEnd computes the metrics a user of the campaign engine sees.
func (b *bench) endToEnd() map[string]metric {
	var walls, rates, allocs []float64
	for _, s := range b.undisturbed() {
		walls = append(walls, s.wall.Seconds())
		rates = append(rates, float64(b.ref.probes)/s.wall.Seconds())
	}
	for _, s := range b.passed() {
		allocs = append(allocs, float64(s.allocBytes)/1e6)
	}
	return map[string]metric{
		"setup_s":      {median(seconds(b.setupTimes)), "s"},
		"campaign_s":   {median(walls), "s"},
		"probes_per_s": {median(rates), "1/s"},
		"probes":       {float64(b.ref.probes), "count"},
		"hidden_hops":  {float64(b.ref.hidden), "count"},
		"alloc_mb":     {median(allocs), "MB"},
		"max_rss_mb":   {maxRSSBytes() / 1e6, "MB"},
	}
}

// passed returns the samples of campaigns that passed their checks, or
// every sample when none did (the result is then marked incorrect).
func (b *bench) passed() []sample {
	var ok []sample
	for _, s := range b.samples {
		if s.err == nil {
			ok = append(ok, s)
		}
	}
	if len(ok) == 0 {
		return b.samples
	}
	return ok
}

// undisturbed returns the passing campaigns the hypervisor did not
// disturb, which the wall-time metrics are computed from. When fewer
// than minUndisturbed (or a third of the passing campaigns) are left,
// the machine was contended throughout and every passing campaign
// counts.
func (b *bench) undisturbed() []sample {
	ok := b.passed()
	var calm []sample
	for _, s := range ok {
		if !s.disturbed() {
			calm = append(calm, s)
		}
	}
	if len(calm) < minUndisturbed || 3*len(calm) < len(ok) {
		return ok
	}
	return calm
}

// printSummary prints the campaign wall-time distribution.
func (b *bench) printSummary() {
	var walls []float64
	for _, s := range b.undisturbed() {
		walls = append(walls, s.wall.Seconds())
	}
	fmt.Fprintf(b.opts.log, "campaign_s n=%d of %d median=%.4f p10=%.4f p90=%.4f setup_s median=%.4f of %d\n",
		len(walls), len(b.samples), median(walls), quantile(walls, 0.10), quantile(walls, 0.90),
		median(seconds(b.setupTimes)), len(b.setupTimes))
}

func datasetBytes(c *campaign.Campaign) ([]byte, error) {
	var buf bytes.Buffer
	if err := tracefile.Write(&buf, c.Dataset("")); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// hiddenHops counts the hops revealed by the campaign's distinct
// revelations.
func hiddenHops(c *campaign.Campaign) int {
	n := 0
	for _, r := range c.Revelations() {
		n += len(r.Hops)
	}
	return n
}

// shardImbalance is the slowest shard's elapsed time over the mean.
func shardImbalance(shards []campaign.ShardStats) float64 {
	if len(shards) == 0 {
		return 0
	}
	var sum, max time.Duration
	for _, s := range shards {
		sum += s.Elapsed
		if s.Elapsed > max {
			max = s.Elapsed
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(len(shards)) / float64(sum)
}

// tick is the unit of /proc/stat's CPU times (USER_HZ, 100 on Linux).
const tick = 10 * time.Millisecond

// maxStealShare is the share of a campaign's CPU time the hypervisor may
// take before the campaign is left out of the wall-time medians: stolen
// time is another tenant's load, not the program's.
const maxStealShare = 0.02

// minUndisturbed is the fewest undisturbed campaigns the wall-time
// medians are computed from.
const minUndisturbed = 3

// stealTicks reads the machine's cumulative stolen CPU time from
// /proc/stat, in ticks (0 where unavailable).
func stealTicks() uint64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var user, nice, system, idle, iowait, irq, softirq, steal uint64
	fmt.Sscanf(string(data), "cpu %d %d %d %d %d %d %d %d", &user, &nice, &system, &idle, &iowait, &irq, &softirq, &steal)
	return steal
}

// maxRSSBytes is the process's peak resident set size.
func maxRSSBytes() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports kilobytes
}
