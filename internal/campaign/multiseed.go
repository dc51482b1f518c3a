package campaign

import (
	"runtime"
	"sync"

	"wormhole/internal/gen"
	"wormhole/internal/reveal"
	"wormhole/internal/stats"
)

// Multi-seed campaigns: each simulated world is single-threaded by
// design, but worlds are independent, so statistical confidence comes
// from running many seeds in parallel — the way the paper spreads its
// measurement across vantage-point teams and two weeks of probing.

// Summary condenses one campaign for cross-seed aggregation.
type Summary struct {
	Seed        int64
	Nodes       int
	Edges       int
	HDNs        int
	Targets     int
	Probes      uint64
	Revelations int
	// HiddenHops is the total LSR count revealed.
	HiddenHops int
	// ByTechnique counts successful revelations per technique.
	ByTechnique map[reveal.Technique]int
	// FTL is the interior tunnel length distribution.
	FTL *stats.Histogram
	// Err carries a generator failure (the slot is then zero-valued).
	Err error
}

// summarize condenses a finished campaign.
func summarize(seed int64, c *Campaign) Summary {
	s := Summary{
		Seed:        seed,
		Nodes:       c.ITDK.NumNodes(),
		Edges:       c.ITDK.NumEdges(),
		HDNs:        len(c.HDNs),
		Targets:     len(c.Targets),
		Probes:      c.Probes,
		ByTechnique: make(map[reveal.Technique]int),
		FTL:         stats.NewHistogram(),
	}
	for _, rev := range c.Revelations() {
		if len(rev.Hops) == 0 {
			continue
		}
		s.Revelations++
		s.HiddenHops += len(rev.Hops)
		s.ByTechnique[rev.Technique]++
		s.FTL.Add(len(rev.Hops))
	}
	return s
}

// RunSeeds generates one world per seed and runs the campaign on each,
// in parallel across CPUs. params.Seed is overridden per slot, and so is
// a cfg.ChurnSeed of 0: each world's churn schedule is then seeded with
// its generator seed, as a single-world campaign's is by default.
func RunSeeds(seeds []int64, params gen.Params, cfg Config) []Summary {
	out := make([]Summary, len(seeds))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(seeds) {
		workers = len(seeds)
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				p := params
				p.Seed = seeds[i]
				in, err := gen.Build(p)
				if err != nil {
					out[i] = Summary{Seed: seeds[i], Err: err}
					continue
				}
				c := cfg
				if c.ChurnSeed == 0 {
					c.ChurnSeed = seeds[i]
				}
				out[i] = summarize(seeds[i], Run(in, c))
			}
		}()
	}
	for i := range seeds {
		work <- i
	}
	close(work)
	wg.Wait()
	return out
}

// MergeFTL pools the tunnel-length distributions of many summaries.
func MergeFTL(sums []Summary) *stats.Histogram {
	h := stats.NewHistogram()
	for _, s := range sums {
		if s.FTL == nil {
			continue
		}
		for _, v := range s.FTL.Values() {
			h.AddN(v, s.FTL.Count(v))
		}
	}
	return h
}
