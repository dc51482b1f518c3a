package campaign

import (
	"fmt"
	"strings"
	"testing"

	"wormhole/internal/netsim"
	"wormhole/internal/probe"
)

// dumpExactCampaign renders everything the flow cache must leave untouched,
// down to virtual timing: the probe accounting (bootstrap/campaign split),
// loop diagnostics, every hop of every record including round-trip times,
// and the per-shard probe/reply/virtual-clock totals. Worker assignment,
// wall-clock, and the cache counters themselves are deliberately excluded —
// they are execution detail, not campaign output.
func dumpExactCampaign(t *testing.T, c *Campaign) string {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "probes=%d bootstrap=%d budgetHits=%d loopDrops=%d\n",
		c.Probes, c.BootstrapProbes(), c.BudgetHits, c.LoopDrops)
	for i, rec := range c.Records {
		fmt.Fprintf(&sb, "rec %d vp=%s dst=%s reached=%v hops=", i, rec.VP.Host.Name(), rec.Trace.Dst, rec.Trace.Reached)
		for _, h := range rec.Trace.Hops {
			fmt.Fprintf(&sb, "[%d %s rtt=%d rttl=%d t=%d c=%d mpls=%v]",
				h.ProbeTTL, h.Addr, h.RTT.Nanoseconds(), h.ReplyTTL, h.ICMPType, h.ICMPCode, h.MPLS)
		}
		fmt.Fprintf(&sb, " echoTTL=%d", rec.EgressEchoTTL)
		if rec.Revelation != nil {
			fmt.Fprintf(&sb, " rev=%s->%s %v tech=%s probes=%d",
				rec.Revelation.Ingress, rec.Revelation.Egress, rec.Revelation.Hops,
				rec.Revelation.Technique, rec.Revelation.Probes)
		}
		sb.WriteByte('\n')
	}
	for _, sh := range c.Shards {
		fmt.Fprintf(&sb, "shard %d team=%d targets=%d probes=%d replies=%d rev=%d depth=%d virtual=%d\n",
			sh.Shard, sh.Team, sh.Targets, sh.Probes, sh.Replies,
			sh.Revelations, sh.MaxRevealDepth, sh.VirtualElapsed.Nanoseconds())
	}
	return sb.String()
}

// TestFlowCacheEquivalenceGolden is the acceptance test for the
// flow-trajectory cache on the default ICMP path: a campaign with the
// cache enabled must be byte-identical — hops, reply TTLs, label stacks,
// RTTs, probe and reply counters, and per-shard virtual-clock totals — to
// the cache-disabled oracle, across the serial engine and 1/2/8-worker
// pools. ICMP Paris keeps one flow per trace, so its cached runs serve
// their cold probes by the upward fast-forward; a cache-off run must move
// no counter.
func TestFlowCacheEquivalenceGolden(t *testing.T) {
	testFlowCacheEquivalence(t, probe.ICMPParis)
}

// TestSweepEquivalenceGolden runs the same matrix for the UDP Paris TTL
// sweep: UDP Paris cycles its destination port, so each probe of a trace
// is its own flow and memoizes its reply per (slot, TTL).
func TestSweepEquivalenceGolden(t *testing.T) {
	t.Run("udp", func(t *testing.T) { testFlowCacheEquivalence(t, probe.UDPParis) })
}

func testFlowCacheEquivalence(t *testing.T, method probe.Method) {
	cfg := DefaultConfig()
	cfg.HDNThreshold = 6
	cfg.Method = method

	oracleCfg := cfg
	oracleCfg.DisableFlowCache = true
	oracle := Run(testInternet(t, 101), oracleCfg)
	want := dumpExactCampaign(t, oracle)
	if len(oracle.Records) == 0 || len(oracle.Revelations()) == 0 {
		t.Fatalf("oracle campaign is trivial: %d records, %d revelations",
			len(oracle.Records), len(oracle.Revelations()))
	}
	if oracle.FlowCache != (netsim.FlowCacheStats{}) {
		t.Fatalf("cache-disabled oracle has cache activity: %+v", oracle.FlowCache)
	}

	// Serial engine, cache on.
	cached := Run(testInternet(t, 101), cfg)
	if got := dumpExactCampaign(t, cached); got != want {
		t.Errorf("serial cached run diverged from oracle\n%s", firstDiff(want, got))
	}
	if cached.FlowCache.Hits == 0 || method == probe.ICMPParis && cached.FlowCache.FastForwards == 0 {
		t.Errorf("serial cached run shows no cache activity: %+v", cached.FlowCache)
	}

	// Parallel engine at 1/2/8 workers, and cache-disabled parallel
	// controls.
	for _, tc := range []struct {
		name    string
		pcfg    ParallelConfig
		disable bool
	}{
		{"workers=1", ParallelConfig{Workers: 1}, false},
		{"workers=2", ParallelConfig{Workers: 2}, false},
		{"workers=8", ParallelConfig{Workers: 8}, false},
		{"workers=2 cache-off", ParallelConfig{Workers: 2}, true},
		{"workers=8 cache-off", ParallelConfig{Workers: 8}, true},
	} {
		runCfg := cfg
		runCfg.DisableFlowCache = tc.disable
		c, err := RunParallel(testInternet(t, 101), runCfg, tc.pcfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := dumpExactCampaign(t, c); got != want {
			t.Errorf("%s: diverged from cache-disabled oracle\n%s", tc.name, firstDiff(want, got))
		}
		if !tc.disable && c.FlowCache.Misses == 0 {
			t.Errorf("%s: cache enabled but never consulted: %+v", tc.name, c.FlowCache)
		}
		if tc.disable && c.FlowCache != (netsim.FlowCacheStats{}) {
			t.Errorf("%s: cache disabled but counters moved: %+v", tc.name, c.FlowCache)
		}
	}
}

// TestFlowCacheRepeatRunsWarm pins the steady state benchrun and
// bench_guard's UDP gate measure: re-running the campaign on the same
// Internet serves every probe from the warm cache — zero misses, on
// either probe method — and still reproduces the oracle byte-for-byte.
func TestFlowCacheRepeatRunsWarm(t *testing.T) {
	t.Run("icmp", func(t *testing.T) { testFlowCacheRepeatRunsWarm(t, probe.ICMPParis) })
	t.Run("udp", func(t *testing.T) { testFlowCacheRepeatRunsWarm(t, probe.UDPParis) })
}

func testFlowCacheRepeatRunsWarm(t *testing.T, method probe.Method) {
	cfg := DefaultConfig()
	cfg.HDNThreshold = 6
	cfg.Method = method

	oracleCfg := cfg
	oracleCfg.DisableFlowCache = true
	want := dumpExactCampaign(t, Run(testInternet(t, 101), oracleCfg))

	in := testInternet(t, 101)
	first := Run(in, cfg)
	second := Run(in, cfg)
	if got := dumpExactCampaign(t, second); got != want {
		t.Errorf("warm rerun diverged from oracle\n%s", firstDiff(want, got))
	}
	if first.FlowCache.Misses == 0 || second.FlowCache.Misses != 0 || second.FlowCache.Hits <= first.FlowCache.Hits {
		t.Errorf("warm rerun should hit every probe the cold run missed: first %+v, second %+v",
			first.FlowCache, second.FlowCache)
	}
}
