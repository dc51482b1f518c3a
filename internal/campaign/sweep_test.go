package campaign

import (
	"testing"

	"wormhole/internal/netsim"
	"wormhole/internal/probe"
)

// TestSweepEquivalenceGolden is the acceptance test for the
// single-injection TTL sweep of UDP Paris port-cycle slots: a UDP campaign
// with the sweep enabled — cache on or off, serial or parallel, snapshot
// or rebuild replicas — must be byte-identical (hops, RTTs, reply TTLs,
// RFC 4950 stacks, probe/reply counters, per-shard virtual-clock totals)
// to the per-probe oracle with both engines disabled. ICMP Paris never
// walks; TestFlowCacheEquivalenceGolden pins its default path.
func TestSweepEquivalenceGolden(t *testing.T) {
	t.Run("udp", testSweepEquivalence)
}

func testSweepEquivalence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HDNThreshold = 6
	cfg.Method = probe.UDPParis

	oracleCfg := cfg
	oracleCfg.DisableFlowCache = true
	oracleCfg.DisableSweep = true
	oracle := Run(testInternet(t, 101), oracleCfg)
	want := dumpExactCampaign(t, oracle)
	if len(oracle.Records) == 0 || len(oracle.Revelations()) == 0 {
		t.Fatalf("oracle campaign is trivial: %d records, %d revelations",
			len(oracle.Records), len(oracle.Revelations()))
	}
	if oracle.Sweep != (netsim.SweepStats{}) {
		t.Fatalf("sweep-disabled oracle has sweep activity: %+v", oracle.Sweep)
	}

	// Serial, sweep on with the cache off: slot walks are cache entries,
	// so the engine must stay inert and the campaign runs per-probe.
	coldCfg := cfg
	coldCfg.DisableFlowCache = true
	cold := Run(testInternet(t, 101), coldCfg)
	if got := dumpExactCampaign(t, cold); got != want {
		t.Errorf("serial sweep-on cache-off diverged from oracle\n%s", firstDiff(want, got))
	}
	if cold.Sweep != (netsim.SweepStats{}) {
		t.Errorf("UDP sweep walked without the flow cache: %+v", cold.Sweep)
	}
	if cold.FlowCache != (netsim.FlowCacheStats{}) {
		t.Errorf("cache disabled but counters moved: %+v", cold.FlowCache)
	}

	// Serial, both engines on (the default configuration): the port-cycle
	// slots of each trace must alias onto its master walks rather than
	// walking themselves.
	both := Run(testInternet(t, 101), cfg)
	if got := dumpExactCampaign(t, both); got != want {
		t.Errorf("serial sweep+cache diverged from oracle\n%s", firstDiff(want, got))
	}
	if both.Sweep.UDP.Walks == 0 || both.Sweep.UDP.Replies == 0 {
		t.Errorf("UDP slot sweep inert with the cache on: %+v", both.Sweep)
	}
	if both.Sweep.UDP.Aliases == 0 {
		t.Errorf("UDP slots never aliased onto a master walk: %+v", both.Sweep)
	}

	// Parallel matrix: worker counts, both replica modes, and cache-off
	// controls.
	for _, tc := range []struct {
		name    string
		pcfg    ParallelConfig
		noCache bool
	}{
		{"workers=1", ParallelConfig{Workers: 1}, false},
		{"workers=2", ParallelConfig{Workers: 2}, false},
		{"workers=8", ParallelConfig{Workers: 8}, false},
		{"workers=2 rebuild", ParallelConfig{Workers: 2, Replica: ReplicaRebuild}, false},
		{"workers=2 cache-off", ParallelConfig{Workers: 2}, true},
		{"workers=8 cache-off rebuild", ParallelConfig{Workers: 8, Replica: ReplicaRebuild}, true},
	} {
		runCfg := cfg
		runCfg.DisableFlowCache = tc.noCache
		c, err := RunParallel(testInternet(t, 101), runCfg, tc.pcfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := dumpExactCampaign(t, c); got != want {
			t.Errorf("%s: diverged from per-probe oracle\n%s", tc.name, firstDiff(want, got))
		}
		if !tc.noCache && c.Sweep.UDP.Walks == 0 {
			t.Errorf("%s: sweep enabled but no walks: %+v", tc.name, c.Sweep)
		}
		if tc.noCache && (c.FlowCache != (netsim.FlowCacheStats{}) || c.Sweep != (netsim.SweepStats{})) {
			t.Errorf("%s: cache disabled but counters moved: %+v %+v", tc.name, c.FlowCache, c.Sweep)
		}
	}
}

// TestSweepRepeatRunsCovered pins the warm steady state of the UDP slot
// engine: rerunning a UDP campaign on the same Internet still reproduces
// the oracle, and the walks and learned reply shapes the first run left
// behind make the second run walk and fall back no more than the first.
func TestSweepRepeatRunsCovered(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HDNThreshold = 6
	cfg.Method = probe.UDPParis

	oracleCfg := cfg
	oracleCfg.DisableFlowCache = true
	oracleCfg.DisableSweep = true
	want := dumpExactCampaign(t, Run(testInternet(t, 101), oracleCfg))

	in := testInternet(t, 101)
	first := Run(in, cfg)
	second := Run(in, cfg)
	if got := dumpExactCampaign(t, second); got != want {
		t.Errorf("warm sweep rerun diverged from oracle\n%s", firstDiff(want, got))
	}
	if first.Sweep.UDP.Walks == 0 {
		t.Fatalf("cold UDP run never walked: %+v", first.Sweep)
	}
	if second.Sweep.UDP.Walks > first.Sweep.UDP.Walks || second.Sweep.UDP.Fallbacks > first.Sweep.UDP.Fallbacks {
		t.Errorf("warm rerun should walk and fall back no more than the cold run: first %+v, second %+v",
			first.Sweep, second.Sweep)
	}
}
