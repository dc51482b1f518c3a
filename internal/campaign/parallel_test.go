package campaign

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"wormhole/internal/gen"
)

// dumpCampaign renders every deterministic campaign output byte-for-byte:
// records (traces, candidates, echo TTLs), revelations, fingerprints, the
// corrected graph, and the probe accounting. Worker counts, scheduling,
// and wall-clock must never show up in this dump.
func dumpCampaign(t *testing.T, c *Campaign) string {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "targets=%d probes=%d\n", len(c.Targets), c.Probes)
	for i, rec := range c.Records {
		fmt.Fprintf(&sb, "rec %d vp=%s dst=%s reached=%v hops=", i, rec.VP.Host.Name(), rec.Trace.Dst, rec.Trace.Reached)
		for _, h := range rec.Trace.Hops {
			fmt.Fprintf(&sb, "[%d %s rttl=%d t=%d c=%d mpls=%d]", h.ProbeTTL, h.Addr, h.ReplyTTL, h.ICMPType, h.ICMPCode, len(h.MPLS))
		}
		fmt.Fprintf(&sb, " echoTTL=%d", rec.EgressEchoTTL)
		if rec.Candidate != nil {
			fmt.Fprintf(&sb, " cand=%s->%s as=%d", rec.Candidate.Ingress.Addr, rec.Candidate.Egress.Addr, rec.CandidateAS)
		}
		if rec.Revelation != nil {
			fmt.Fprintf(&sb, " rev=%s->%s %v tech=%s probes=%d steps=%v",
				rec.Revelation.Ingress, rec.Revelation.Egress, rec.Revelation.Hops,
				rec.Revelation.Technique, rec.Revelation.Probes, rec.Revelation.Steps)
		}
		sb.WriteByte('\n')
	}
	var fpa []string
	for a, r := range c.Fingerprints {
		fpa = append(fpa, fmt.Sprintf("fp %s sig=%v class=%v te=%d echo=%d vp=%s",
			a, r.Signature, r.Class, r.TEReplyTTL, r.EchoReplyTTL, c.FingerprintVP[a].Host.Name()))
	}
	sort.Strings(fpa)
	sb.WriteString(strings.Join(fpa, "\n"))
	sb.WriteByte('\n')
	for i, rev := range c.Revelations() {
		fmt.Fprintf(&sb, "revelation %d %s->%s %v %s\n", i, rev.Ingress, rev.Egress, rev.Hops, rev.Technique)
	}
	var dot strings.Builder
	if err := c.CorrectedGraph().WriteDOT(&dot, "g", nil); err != nil {
		t.Fatal(err)
	}
	sb.WriteString(dot.String())
	return sb.String()
}

// TestParallelDeterminismGolden is the headline test for the parallel
// engine: the same seeded campaign run serially and with Workers=1,2,8
// produces byte-identical Records, Revelations, Fingerprints, and
// CorrectedGraph output. FuzzEngineEquivalence checks the same engines
// against a cache-off run on a fresh generator build, over drawn worlds.
func TestParallelDeterminismGolden(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HDNThreshold = 6

	serial := Run(testInternet(t, 101), cfg)
	want := dumpCampaign(t, serial)
	if len(serial.Records) == 0 || len(serial.Revelations()) == 0 {
		t.Fatalf("seed yields a trivial campaign: %d records, %d revelations",
			len(serial.Records), len(serial.Revelations()))
	}

	for _, pcfg := range []ParallelConfig{
		{Workers: 1},
		{Workers: 2},
		{Workers: 8},
	} {
		name := fmt.Sprintf("workers=%d", pcfg.Workers)
		par, err := RunParallel(testInternet(t, 101), cfg, pcfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := dumpCampaign(t, par); got != want {
			t.Errorf("%s: output diverged from serial engine\n%s", name, firstDiff(want, got))
		}
	}
}

// firstDiff locates the first differing line for a readable failure.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  serial:   %s\n  parallel: %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line count: serial %d, parallel %d", len(wl), len(gl))
}

// TestParallelShardStats checks the per-worker stats hook: every shard
// reports its team, targets, and probe accounting, and the shard probes
// plus bootstrap cover the campaign total.
func TestParallelShardStats(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HDNThreshold = 6
	c, err := RunParallel(testInternet(t, 101), cfg, ParallelConfig{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if c.Workers != 3 && c.Workers != len(c.Shards) {
		t.Errorf("Workers = %d with %d shards", c.Workers, len(c.Shards))
	}
	var shardProbes uint64
	targets := 0
	for i, s := range c.Shards {
		if s.Shard != i {
			t.Errorf("shard %d has index %d", i, s.Shard)
		}
		if s.Targets == 0 || s.Probes == 0 {
			t.Errorf("shard %d reports no work: %+v", i, s)
		}
		if s.Replies == 0 || s.Replies > s.Probes {
			t.Errorf("shard %d replies %d vs probes %d", i, s.Replies, s.Probes)
		}
		if s.Elapsed <= 0 || s.VirtualElapsed <= 0 {
			t.Errorf("shard %d has no timing: %+v", i, s)
		}
		if s.Worker < 0 || s.Worker >= c.Workers {
			t.Errorf("shard %d ran on worker %d of %d", i, s.Worker, c.Workers)
		}
		shardProbes += s.Probes
		targets += s.Targets
	}
	if targets != len(c.Targets) {
		t.Errorf("shards cover %d targets, campaign has %d", targets, len(c.Targets))
	}
	if c.Probes <= shardProbes {
		t.Errorf("campaign probes %d must exceed shard probes %d (bootstrap)", c.Probes, shardProbes)
	}
}

// TestFirstTTLConsistentAcrossTargets is the regression test for the
// shared-state bug the parallel driver exposed: FirstTTL used to be
// mutated per-target inside the probe loop; it is now campaign bootstrap
// state, so every target probed from the same VP — first or hundredth —
// starts at the configured TTL, serial or parallel.
func TestFirstTTLConsistentAcrossTargets(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HDNThreshold = 6

	check := func(name string, c *Campaign) {
		t.Helper()
		perVP := make(map[string]int)
		for _, rec := range c.Records {
			if len(rec.Trace.Hops) == 0 {
				continue
			}
			first := int(rec.Trace.Hops[0].ProbeTTL)
			if first != int(cfg.FirstTTL) {
				t.Fatalf("%s: trace to %s started at TTL %d, want %d", name, rec.Trace.Dst, first, cfg.FirstTTL)
			}
			perVP[rec.VP.Host.Name()]++
		}
		multi := false
		for _, n := range perVP {
			if n >= 2 {
				multi = true
			}
		}
		if !multi {
			t.Fatalf("%s: no VP probed two targets; test is vacuous", name)
		}
		// Every VP ends the campaign with the configured FirstTTL, even
		// ones that probed no target (they may still run revelations).
		for _, vp := range c.In.VPs {
			if vp.Prober.FirstTTL != cfg.FirstTTL {
				t.Errorf("%s: VP %s left with FirstTTL %d", name, vp.Host.Name(), vp.Prober.FirstTTL)
			}
		}
	}

	check("serial", Run(testInternet(t, 101), cfg))
	par, err := RunParallel(testInternet(t, 101), cfg, ParallelConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	check("parallel", par)
}

// TestParallelStress hammers the worker pool with a small Internet; under
// `go test -race` it runs 10x the iterations so the detector sees many
// pool lifecycles (this is the stress half of the race tier). Each
// iteration runs three campaigns on the same Internet — a cold one that
// builds the replica pool, a warm one that reuses it and the replicas'
// caches under concurrent workers, and, after a mid-campaign-style
// control-plane mutation on the source fabric, a third that must rebuild
// the pool.
func TestParallelStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short")
	}
	p := gen.DefaultParams(41)
	p.NumTier1, p.NumTransit, p.NumStub, p.NumVPs = 2, 3, 6, 3
	p.MPLSFrac, p.NoPropagateFrac, p.UHPFrac = 1.0, 0.8, 0
	iters := 1
	if raceEnabled {
		iters = 10
	}
	workers := runtime.GOMAXPROCS(0) * 2 // oversubscribe the pool
	for i := 0; i < iters; i++ {
		in, err := gen.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			if round == 2 {
				// Simulate the mutated() hook firing between campaigns: the
				// source's topology generation moves and the replica pool
				// drops its now-stale entries.
				in.Net.InvalidateFlowCache()
			}
			c, err := RunParallel(in, DefaultConfig(), ParallelConfig{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if len(c.Records) != len(c.Targets) {
				t.Fatalf("iter %d round %d: %d records for %d targets", i, round, len(c.Records), len(c.Targets))
			}
			if c.Workers != workers {
				t.Fatalf("iter %d round %d: pool size %d, want %d", i, round, c.Workers, workers)
			}
		}
	}
}
