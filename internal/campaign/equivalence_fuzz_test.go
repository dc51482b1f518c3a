package campaign

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"testing"

	"wormhole/internal/gen"
	"wormhole/internal/probe"
)

// worldBudget is the most routers a drawn world may hold at its range
// maxima (the Small rung holds at most 154).
const worldBudget = 400

// worldSize bounds the routers a Params could build, or reports false
// when a count is too large to bound cheaply.
func worldSize(p gen.Params) (int, bool) {
	const big = 1 << 12
	counts := []int{p.NumTier1, p.NumTransit, p.NumStub,
		p.Tier1Core[1], p.Tier1Edge[1], p.TransitCore[1], p.TransitEdge[1], p.StubRouters[1]}
	for _, n := range counts {
		if n > big {
			return 0, false
		}
	}
	size := max(p.NumTier1, 0)*(max(p.Tier1Core[1], 0)+max(p.Tier1Edge[1], 0)) +
		max(p.NumTransit, 0)*(max(p.TransitCore[1], 0)+max(p.TransitEdge[1], 0)) +
		max(p.NumStub, 0)*max(p.StubRouters[1], 0)
	return size, true
}

// fuzzConfig draws the campaign half of an input: churn at 0 to 3 cycles
// per shard in quarter steps, the probe method, and the sampling caps
// (0 leaves a cap off). A non-zero prefix budget turns the streaming
// scheduler on; one seed drives both the churn and the stream schedule.
func fuzzConfig(churn uint8, seed int64, udp bool, prefixBudget, bootCap, targetCap uint8) Config {
	cfg := DefaultConfig()
	cfg.ChurnRate = float64(churn%13) / 4
	cfg.ChurnSeed = seed
	if udp {
		cfg.Method = probe.UDPParis
	}
	cfg.Stream = prefixBudget > 0
	cfg.PrefixBudget = int(prefixBudget)
	cfg.StreamSeed = seed
	cfg.MaxBootstrapTargets = int(bootCap)
	cfg.MaxTargets = int(targetCap)
	return cfg
}

// FuzzEngineEquivalence makes byte identity a property of every generated
// world, not only of the goldens' fixed ones. It draws a world — gen.Params
// as JSON, flat, hierarchical or lazy — and a campaign config, and
// requires the serial cached engine, RunParallel at 1, 2 and 3 workers
// and RunDistributed at 2 workers to reproduce dumpExactCampaign of the
// oracle: the cache-off serial engine on a fresh gen.Build of the same
// Params. The engines under test share a second build, so the later ones
// also run on warm pooled replicas. Params that Build rejects or whose
// worlds exceed worldBudget are skipped, not clamped. The corpus holds
// the worlds the goldens run on and one small hierarchical world, built
// lazily and eagerly.
func FuzzEngineEquivalence(f *testing.F) {
	add := func(p gen.Params, churn uint8, seed int64, udp bool, prefixBudget, bootCap, targetCap uint8) {
		world, err := json.Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(world, churn, seed, udp, prefixBudget, bootCap, targetCap)
	}
	// The flow-cache and churn goldens' world, churned at rate 2.
	add(testParams(101), 8, 42, false, 0, 0, 0)
	// The bootstrap ITDK golden's world, probed over UDP.
	add(testParams(411), 0, 0, true, 0, 0, 0)
	// The distributed goldens' world, churned at rate 1.5.
	dist := testParams(404)
	dist.NumTransit, dist.NumStub, dist.NumVPs = 4, 8, 4
	add(dist, 6, 99, false, 0, 0, 0)
	// A lazy world whose capped streamed campaign, churned at rate 2,
	// faults stubs in and leaves almost half of them unbuilt.
	lazy := testParams(424242)
	lazy.NumTransit, lazy.NumStub = 6, 60
	lazy.Hierarchical, lazy.LazyStubs = true, true
	add(lazy, 8, 77, false, 1, 40, 30)
	// The same world built eagerly by the hierarchical builder, over UDP.
	hier := lazy
	hier.LazyStubs = false
	add(hier, 8, 77, true, 1, 40, 30)

	f.Fuzz(func(t *testing.T, world []byte, churn uint8, seed int64, udp bool, prefixBudget, bootCap, targetCap uint8) {
		var p gen.Params
		if json.Unmarshal(world, &p) != nil {
			t.Skip("not Params")
		}
		if size, ok := worldSize(p); !ok || size > worldBudget {
			t.Skip("world above the size budget")
		}
		fresh, err := gen.Build(p)
		if err != nil {
			t.Skip("Params that Build rejects")
		}
		in, err := gen.Build(p)
		if err != nil {
			t.Fatalf("second Build of the same Params: %v", err)
		}
		cfg := fuzzConfig(churn, seed, udp, prefixBudget, bootCap, targetCap)
		oracleCfg := cfg
		oracleCfg.DisableFlowCache = true
		want := dumpExactCampaign(t, Run(fresh, oracleCfg))

		check := func(name string, c *Campaign, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := dumpExactCampaign(t, c); got != want {
				t.Fatalf("%s diverged from the cache-off oracle\n%s", name, firstDiff(want, got))
			}
		}
		check("serial cached", Run(in, cfg), nil)
		for _, workers := range []int{1, 2, 3} {
			c, err := RunParallel(in, cfg, ParallelConfig{Workers: workers})
			check(fmt.Sprintf("parallel workers=%d", workers), c, err)
		}
		// The distributed workers are goroutines serving the real socket
		// protocol.
		var workers sync.WaitGroup
		spawn := func(_ int, network, addr string) error {
			workers.Add(1)
			go func() {
				defer workers.Done()
				if conn, err := net.Dial(network, addr); err == nil {
					_ = ServeWorker(conn)
				}
			}()
			return nil
		}
		c, err := RunDistributed(in, cfg, DistConfig{Workers: 2, Spawn: spawn})
		workers.Wait()
		check("distributed workers=2", c, err)
	})
}
