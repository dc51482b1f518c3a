package campaign

import (
	"testing"

	"wormhole/internal/gen"
	"wormhole/internal/netsim"
	"wormhole/internal/probe"
)

// churnTestConfig is the campaign configuration the churn tests share: a
// churn schedule dense enough that every engine fires events mid-shard.
func churnTestConfig() Config {
	cfg := DefaultConfig()
	cfg.HDNThreshold = 6
	cfg.ChurnRate = 2
	cfg.ChurnSeed = 42
	return cfg
}

// TestChurnEquivalenceGolden is the acceptance test for the churn engine
// and its delta-invalidation: under an identical churn schedule, a
// campaign with the flow cache enabled must be byte-identical — hops,
// reply TTLs, label stacks, RTTs, probe and reply counters, per-shard
// virtual-clock totals — to the uncached oracle, across the serial
// engine, 1/2/8-worker pools, both invalidation modes (masking and the
// flush-the-world baseline), and both probe methods. A cache-off run is
// the per-probe oracle: its events have nothing to mask, so it must move
// no cache counter.
func TestChurnEquivalenceGolden(t *testing.T) {
	t.Run("icmp", func(t *testing.T) { testChurnEquivalence(t, probe.ICMPParis) })
	t.Run("udp", func(t *testing.T) { testChurnEquivalence(t, probe.UDPParis) })
}

func testChurnEquivalence(t *testing.T, method probe.Method) {
	cfg := churnTestConfig()
	cfg.Method = method

	oracleCfg := cfg
	oracleCfg.DisableFlowCache = true
	oracle := Run(testInternet(t, 101), oracleCfg)
	want := dumpExactCampaign(t, oracle)
	if len(oracle.Records) == 0 || len(oracle.Revelations()) == 0 {
		t.Fatalf("oracle campaign is trivial: %d records, %d revelations",
			len(oracle.Records), len(oracle.Revelations()))
	}
	if oracle.ChurnEvents == 0 {
		t.Fatal("churn armed but no events fired")
	}
	if oracle.ChurnEvents%3 != 0 {
		t.Fatalf("churn events %d not whole fail/reconverge/repair cycles", oracle.ChurnEvents)
	}

	// The schedule must actually perturb the measurements, or the whole
	// matrix is vacuous.
	staticCfg := oracleCfg
	staticCfg.ChurnRate = 0
	static := Run(testInternet(t, 101), staticCfg)
	if dumpExactCampaign(t, static) == want {
		t.Fatal("churned oracle is identical to the static campaign; schedule is inert")
	}
	if static.ChurnEvents != 0 {
		t.Fatalf("static campaign fired %d churn events", static.ChurnEvents)
	}

	for _, tc := range []struct {
		name     string
		parallel bool
		pcfg     ParallelConfig
		mutate   func(*Config)
	}{
		{name: "serial delta", mutate: func(c *Config) {}},
		{name: "serial flush-world", mutate: func(c *Config) { c.ChurnFlushWorld = true }},
		{name: "workers=1", parallel: true, pcfg: ParallelConfig{Workers: 1}, mutate: func(c *Config) {}},
		{name: "workers=2", parallel: true, pcfg: ParallelConfig{Workers: 2}, mutate: func(c *Config) {}},
		{name: "workers=8", parallel: true, pcfg: ParallelConfig{Workers: 8}, mutate: func(c *Config) {}},
		{name: "workers=2 flush-world", parallel: true, pcfg: ParallelConfig{Workers: 2}, mutate: func(c *Config) { c.ChurnFlushWorld = true }},
		{name: "serial cache-off", mutate: func(c *Config) { c.DisableFlowCache = true }},
		{name: "workers=2 cache-off", parallel: true, pcfg: ParallelConfig{Workers: 2}, mutate: func(c *Config) { c.DisableFlowCache = true }},
	} {
		runCfg := cfg
		tc.mutate(&runCfg)
		var (
			c   *Campaign
			err error
		)
		if tc.parallel {
			c, err = RunParallel(testInternet(t, 101), runCfg, tc.pcfg)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		} else {
			c = Run(testInternet(t, 101), runCfg)
		}
		if got := dumpExactCampaign(t, c); got != want {
			t.Errorf("%s: diverged from churned oracle\n%s", tc.name, firstDiff(want, got))
		}
		if c.ChurnEvents != oracle.ChurnEvents {
			t.Errorf("%s: fired %d churn events, oracle fired %d", tc.name, c.ChurnEvents, oracle.ChurnEvents)
		}
		if !runCfg.DisableFlowCache && c.FlowCache.Hits == 0 {
			t.Errorf("%s: cache enabled under churn but never hit: %+v", tc.name, c.FlowCache)
		}
		if runCfg.DisableFlowCache && c.FlowCache != (netsim.FlowCacheStats{}) {
			t.Errorf("%s: cache disabled but counters moved: %+v", tc.name, c.FlowCache)
		}
	}
}

// TestChurnRestoresPristine pins the repair guarantee: a churned campaign
// leaves the fabric's control plane byte-identical to the pristine build,
// so a subsequent static campaign on the same Internet reproduces one on
// a freshly built Internet exactly.
func TestChurnRestoresPristine(t *testing.T) {
	staticCfg := DefaultConfig()
	staticCfg.HDNThreshold = 6
	want := dumpExactCampaign(t, Run(testInternet(t, 101), staticCfg))

	in := testInternet(t, 101)
	churned := Run(in, churnTestConfig())
	if churned.ChurnEvents == 0 {
		t.Fatal("no churn events fired")
	}
	after := Run(in, staticCfg)
	if got := dumpExactCampaign(t, after); got != want {
		t.Errorf("post-churn static campaign diverged from pristine build\n%s", firstDiff(want, got))
	}
}

// TestChurnParallelWarmPool pins pool reuse under masking: because a
// masking event never bumps the fabric's topology generation and repair
// restores the pristine control plane, a second churned parallel campaign
// reuses the pooled replicas (no replica build) and still matches the
// serial output.
func TestChurnParallelWarmPool(t *testing.T) {
	cfg := churnTestConfig()
	want := dumpExactCampaign(t, Run(testInternet(t, 101), cfg))

	in := testInternet(t, 101)
	pcfg := ParallelConfig{Workers: 4}
	first, err := RunParallel(in, cfg, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunParallel(in, cfg, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := dumpExactCampaign(t, second); got != want {
		t.Errorf("warm-pool churned rerun diverged\n%s", firstDiff(want, got))
	}
	if second.Phase.Replica > first.Phase.Replica && second.Phase.Replica > first.Phase.Replica*2 {
		t.Logf("warm rerun replica phase %v vs cold %v (informational)",
			second.Phase.Replica, first.Phase.Replica)
	}
	if second.FlowCache.Hits == 0 {
		t.Errorf("warm churned rerun shows no cache reuse: %+v", second.FlowCache)
	}
}

// TestChurnWarmRepeat pins that pristine cache state survives churn on
// every engine: at the Small rung, a repeat of a churned campaign on the
// same fabric reproduces the first run exactly and misses fewer than a
// tenth of its probes — only what the windows' masks hide runs live —
// on the serial engine and on a 2-worker pool alike.
func TestChurnWarmRepeat(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChurnRate, cfg.ChurnSeed = 2, 2024
	for _, tc := range []struct {
		name string
		run  func(*gen.Internet) (*Campaign, error)
	}{
		{"serial", func(in *gen.Internet) (*Campaign, error) { return Run(in, cfg), nil }},
		{"workers=2", func(in *gen.Internet) (*Campaign, error) {
			return RunParallel(in, cfg, ParallelConfig{Workers: 2})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := gen.DefaultParams(2024)
			p.NumTier1, p.NumTransit, p.NumStub, p.NumVPs = 2, 5, 10, 5
			in, err := gen.Build(p)
			if err != nil {
				t.Fatal(err)
			}
			first, err := tc.run(in)
			if err != nil {
				t.Fatal(err)
			}
			second, err := tc.run(in)
			if err != nil {
				t.Fatal(err)
			}
			if second.ChurnEvents == 0 {
				t.Fatal("no churn events fired")
			}
			if got, want := dumpExactCampaign(t, second), dumpExactCampaign(t, first); got != want {
				t.Fatalf("warm churned repeat diverged\n%s", firstDiff(want, got))
			}
			t.Logf("repeat: %d probes, %d misses, %d churn events", second.Probes, second.FlowCache.Misses, second.ChurnEvents)
			if second.FlowCache.Misses*10 >= second.Probes {
				t.Errorf("warm churned repeat missed %d of %d probes", second.FlowCache.Misses, second.Probes)
			}
		})
	}
}
