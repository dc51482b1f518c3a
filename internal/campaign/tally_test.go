package campaign_test

import (
	"fmt"
	"testing"

	"wormhole/internal/campaign"
	"wormhole/internal/experiments"
	"wormhole/internal/gen"
)

// invariantTally is the engine-independent part of a tally. The flow
// cache, sweep and fault-in counts depend on which fabric probed what
// (each replica warms its own caches and faults in its own stubs), so
// they are left out.
func invariantTally(c campaign.Counters) campaign.Counters {
	return campaign.Counters{
		Probes:      c.Probes,
		Replies:     c.Replies,
		BudgetHits:  c.BudgetHits,
		LoopDrops:   c.LoopDrops,
		ChurnEvents: c.ChurnEvents,
	}
}

// TestTallyAcrossEngines pins the campaign's accounting across engines:
// on a churned Small world the serial engine, RunParallel at 1, 2 and 8
// workers and RunDistributed at 2 count the same probes, replies, budget
// hits, loop drops and churn events, per shard and in total, and every
// total is the bootstrap's plus the shards'.
func TestTallyAcrossEngines(t *testing.T) {
	in, err := gen.Build(experiments.Small.Params(7))
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.Small.CampaignConfig()
	cfg.ChurnRate, cfg.ChurnSeed = 2, 7
	serial := campaign.Run(in, cfg)
	if serial.ChurnEvents == 0 || serial.Replies == 0 || len(serial.Shards) == 0 {
		t.Fatalf("serial tally is vacuous: %+v over %d shards", invariantTally(serial.Counters), len(serial.Shards))
	}
	runs := map[string]*campaign.Campaign{"serial": serial}
	for _, w := range []int{1, 2, 8} {
		c, err := campaign.RunParallel(in, cfg, campaign.ParallelConfig{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		runs[fmt.Sprintf("workers=%d", w)] = c
	}
	runs["dist=2"] = runDist(t, in, cfg, 2, campaign.ReplicaSnapshot)

	want := invariantTally(serial.Counters)
	for name, c := range runs {
		if got := invariantTally(c.Counters); got != want {
			t.Errorf("%s: total %+v, serial %+v", name, got, want)
		}
		if len(c.Shards) != len(serial.Shards) {
			t.Fatalf("%s: %d shards, serial %d", name, len(c.Shards), len(serial.Shards))
		}
		var shards campaign.Counters
		for i, sh := range c.Shards {
			if got, want := invariantTally(sh.Counters), invariantTally(serial.Shards[i].Counters); got != want {
				t.Errorf("%s: shard %d %+v, serial %+v", name, sh.Shard, got, want)
			}
			shards.Add(sh.Counters)
		}
		if c.BootstrapProbes()+shards.Probes != c.Probes || shards.ChurnEvents != c.ChurnEvents {
			t.Errorf("%s: total is not bootstrap plus shards: %d+%d probes against %d, %d churn events against %d",
				name, c.BootstrapProbes(), shards.Probes, c.Probes, shards.ChurnEvents, c.ChurnEvents)
		}
	}
}
