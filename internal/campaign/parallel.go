package campaign

import (
	"fmt"
	"runtime"
	"time"

	"wormhole/internal/gen"
)

// ParallelConfig tunes the parallel campaign engine.
type ParallelConfig struct {
	// Workers sizes the worker pool; <= 0 selects GOMAXPROCS. Every slot
	// gets a bootstrap partition; the probing phase uses min(Workers,
	// shard count) of them (Campaign.ShardWorkers).
	Workers int
}

// RunParallel executes the campaign on a worker pool: the coordinator
// every engine shares, driving one local slot per pooled replica.
//
//   - Pooled replicas. Worker replicas are acquired from a pool on the
//     Internet (gen.Internet.AcquireReplicas) that survives across
//     campaigns: slot i reuses the same replica — and its warm flow cache
//     — run after run, so steady-state runs build no replicas at all.
//     The same replica serves the slot's bootstrap partition and its
//     shards. A control-plane mutation on the source or a replica
//     invalidates the affected pool entries; churn masks instead of
//     mutating the cache (see netsim's churn.go), so a replica's pristine
//     cache state survives every fail/repair cycle.
//
// Each replica is driven by exactly one goroutine per phase and the
// replicas share nothing — netsim's ownership assertions enforce this.
func RunParallel(in *gen.Internet, cfg Config, pcfg ParallelConfig) (*Campaign, error) {
	workers := pcfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(workers, 1)

	t0 := time.Now()
	replicas, err := in.AcquireReplicas(workers, false)
	if err != nil {
		return nil, fmt.Errorf("campaign: replica pool: %w", err)
	}
	defer in.ReleaseReplicas(replicas)
	e := &engine{in: in, cfg: cfg}
	probers := proberSettingsOf(in.VPs)
	for _, r := range replicas {
		e.slots = append(e.slots, newLocalSlot(r, cfg, probers, true))
	}
	setup := time.Since(t0)

	c, err := e.run()
	if err != nil {
		return nil, err
	}
	c.Phase.Replica = setup
	return c, nil
}
