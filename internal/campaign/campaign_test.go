package campaign

import (
	"testing"
	"time"

	"wormhole/internal/gen"
	"wormhole/internal/reveal"
)

// testParams is the Small-rung world most campaign tests run on.
func testParams(seed int64) gen.Params {
	p := gen.DefaultParams(seed)
	p.NumTier1 = 2
	p.NumTransit = 5
	p.NumStub = 10
	p.NumVPs = 5
	// Force plenty of invisible tunnels so the campaign has work.
	p.MPLSFrac = 1.0
	p.NoPropagateFrac = 0.8
	p.UHPFrac = 0.0
	return p
}

func testInternet(t *testing.T, seed int64) *gen.Internet {
	t.Helper()
	in, err := gen.Build(testParams(seed))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func runSmall(t *testing.T, seed int64) *Campaign {
	t.Helper()
	cfg := DefaultConfig()
	cfg.HDNThreshold = 6
	cfg.BootstrapSpread = 2
	return Run(testInternet(t, seed), cfg)
}

func TestCampaignEndToEnd(t *testing.T) {
	c := runSmall(t, 101)
	if c.ITDK.NumNodes() == 0 {
		t.Fatal("empty bootstrap graph")
	}
	if len(c.HDNs) == 0 {
		t.Fatal("no HDNs found despite invisible meshes")
	}
	if len(c.Targets) == 0 {
		t.Fatal("no targets selected")
	}
	if len(c.Records) != len(c.Targets) {
		t.Fatalf("records %d != targets %d", len(c.Records), len(c.Targets))
	}
	if len(c.Fingerprints) == 0 {
		t.Fatal("no fingerprints collected")
	}
	if c.Probes == 0 {
		t.Fatal("probe accounting broken")
	}
}

func TestCampaignRevealsTunnels(t *testing.T) {
	c := runSmall(t, 103)
	revs := c.Revelations()
	succeeded := 0
	for _, r := range revs {
		if r.Technique != reveal.TechNone {
			succeeded++
			// Validate against ground truth: every revealed hop must be a
			// router of the candidate AS.
			info, ok := c.In.Owner(r.Ingress)
			if !ok {
				t.Fatalf("ingress %s unknown to ground truth", r.Ingress)
			}
			for _, h := range r.Hops {
				hInfo, ok := c.In.Owner(h)
				if !ok {
					t.Errorf("revealed hop %s unknown to ground truth", h)
					continue
				}
				if hInfo.AS != info.AS {
					t.Errorf("revealed hop %s in %s, ingress in %s", h, hInfo.AS.Name, info.AS.Name)
				}
			}
		}
	}
	if succeeded == 0 {
		t.Fatalf("no tunnel revealed among %d candidates", len(revs))
	}
}

// TestRevealedHopsMatchIGPPath cross-validates revelations against the
// generator's ground truth: the revealed LSR sequence must be a real IGP
// path between ingress and egress.
func TestRevealedHopsMatchIGPPath(t *testing.T) {
	c := runSmall(t, 107)
	checked := 0
	for _, r := range c.Revelations() {
		if len(r.Hops) < 2 {
			continue
		}
		// Consecutive revealed hops must be on routers that are IGP
		// neighbors or the same router.
		prev, ok := c.In.Owner(r.Hops[0])
		if !ok {
			continue
		}
		for _, h := range r.Hops[1:] {
			cur, ok := c.In.Owner(h)
			if !ok || cur.AS != prev.AS {
				t.Errorf("revealed path leaves the AS at %s", h)
				break
			}
			if cur.Router != prev.Router {
				d, ok := cur.AS.SPF().Dist[prev.Router][cur.Router]
				if !ok || d > 2 {
					t.Errorf("revealed hops %s -> %s are %d IGP hops apart", prev.Router.Name(), cur.Router.Name(), d)
				}
			}
			prev = cur
		}
		checked++
	}
	if checked == 0 {
		t.Skip("no multi-hop revelation in this seed")
	}
}

func TestCorrectedGraphLowersHDNDegrees(t *testing.T) {
	c := runSmall(t, 109)
	before := c.ObservedTraceGraph()
	after := c.CorrectedGraph()
	if after.NumNodes() < before.NumNodes() {
		t.Fatalf("correction lost nodes: %d -> %d", before.NumNodes(), after.NumNodes())
	}
	// The maximum degree among candidate-AS nodes should not grow, and
	// total nodes should grow (hidden LSRs added).
	if after.NumNodes() == before.NumNodes() && len(c.Revelations()) > 0 {
		t.Log("warning: correction added no nodes (tunnels may be between already-seen routers)")
	}
}

func TestCampaignWithASMapNoise(t *testing.T) {
	in := testInternet(t, 211)
	clean := Run(in, DefaultConfig())

	inNoisy := testInternet(t, 211)
	cfg := DefaultConfig()
	cfg.ASMapNoise = 0.15
	noisy := Run(inNoisy, cfg)

	// The campaign must survive a corrupted IP-to-AS mapping: probing
	// still happens and at least some tunnels are still revealed (same-AS
	// filtering just gets stricter/looser for misattributed endpoints).
	if len(noisy.Records) == 0 {
		t.Fatal("noisy campaign collected nothing")
	}
	succeeded := 0
	for _, rev := range noisy.Revelations() {
		if len(rev.Hops) > 0 {
			succeeded++
		}
	}
	if succeeded == 0 {
		t.Error("noise wiped out every revelation")
	}
	t.Logf("clean: %d revelations, noisy: %d", len(clean.Revelations()), len(noisy.Revelations()))
}

func TestRateLimitedRoutersYieldAnonymousHops(t *testing.T) {
	in := testInternet(t, 223)
	// Rate-limit every router hard: bootstrap probes come in fast bursts,
	// so some hops must go unanswered.
	for _, as := range in.ASes {
		for _, r := range as.Routers() {
			cfg := r.Config()
			cfg.ICMPInterval = 2 * time.Second
			r.SetConfig(cfg)
		}
	}
	c := Run(in, DefaultConfig())
	anon := 0
	for _, rec := range c.Records {
		for _, h := range rec.Trace.Hops {
			if h.Anonymous() {
				anon++
			}
		}
	}
	if anon == 0 {
		t.Error("no anonymous hops despite aggressive rate limiting")
	}
	if len(c.Records) == 0 {
		t.Error("campaign collapsed under rate limiting")
	}
}

func TestCampaignWithMeasuredAliases(t *testing.T) {
	in := testInternet(t, 313)
	cfg := DefaultConfig()
	cfg.MeasuredAliases = true
	c := Run(in, cfg)
	if c.ITDK.NumNodes() == 0 {
		t.Fatal("no graph")
	}
	// With measured aliases the graph has at least as many nodes as with
	// ground truth (unresolved interfaces split).
	truth := Run(testInternet(t, 313), DefaultConfig())
	if c.ITDK.NumNodes() < truth.ITDK.NumNodes() {
		t.Errorf("measured graph smaller than ground truth: %d < %d",
			c.ITDK.NumNodes(), truth.ITDK.NumNodes())
	}
	// The pipeline still reveals tunnels end to end.
	ok := 0
	for _, rev := range c.Revelations() {
		if len(rev.Hops) > 0 {
			ok++
		}
	}
	if ok == 0 {
		t.Error("no revelations with measured aliases")
	}
	t.Logf("measured: %d nodes / %d revelations; truth: %d nodes / %d revelations",
		c.ITDK.NumNodes(), len(c.Revelations()), truth.ITDK.NumNodes(), len(truth.Revelations()))
}

// TestTeamConsistency verifies Sec. 4's partitioning rule: every member
// of a set-A neighbor's neighborhood probes from the same team.
func TestTeamConsistency(t *testing.T) {
	c := runSmall(t, 131)
	// For each set-A anchor N (an HDN neighbor), N and all its neighbors
	// must have been probed from the same vantage point.
	teams := map[string]map[string]bool{} // anchor -> set of VP names
	for _, hdn := range c.HDNs {
		for _, nb := range c.ITDK.Neighbors(hdn) {
			anchor := nb.Name
			for _, rec := range c.Records {
				covered := false
				for _, a := range nb.Addrs {
					if rec.Trace.Dst == a {
						covered = true
					}
				}
				for _, nb2 := range c.ITDK.Neighbors(nb) {
					for _, a := range nb2.Addrs {
						if rec.Trace.Dst == a {
							covered = true
						}
					}
				}
				if covered {
					if teams[anchor] == nil {
						teams[anchor] = map[string]bool{}
					}
					teams[anchor][rec.VP.Host.Name()] = true
				}
			}
		}
	}
	// A neighborhood can legitimately overlap several anchors (shared
	// set-B members), so require that MOST anchors are single-team.
	single, multi := 0, 0
	for _, vps := range teams {
		if len(vps) == 1 {
			single++
		} else {
			multi++
		}
	}
	if single == 0 {
		t.Fatal("no anchor was single-team")
	}
	t.Logf("team consistency: %d single-team anchors, %d overlapping", single, multi)
}

func TestRunSeedsParallel(t *testing.T) {
	p := gen.DefaultParams(0)
	p.NumTier1, p.NumTransit, p.NumStub, p.NumVPs = 2, 4, 8, 4
	p.MPLSFrac, p.NoPropagateFrac, p.UHPFrac = 1.0, 0.7, 0
	seeds := []int64{11, 22, 33, 44, 55, 66}
	sums := RunSeeds(seeds, p, DefaultConfig())
	if len(sums) != len(seeds) {
		t.Fatalf("%d summaries", len(sums))
	}
	totalRev := 0
	for i, s := range sums {
		if s.Err != nil {
			t.Fatalf("seed %d: %v", seeds[i], s.Err)
		}
		if s.Seed != seeds[i] {
			t.Errorf("slot %d carries seed %d", i, s.Seed)
		}
		if s.Nodes == 0 || s.Probes == 0 {
			t.Errorf("seed %d produced an empty summary", s.Seed)
		}
		totalRev += s.Revelations
	}
	if totalRev == 0 {
		t.Error("no revelations across any seed")
	}
	pooled := MergeFTL(sums)
	if pooled.N() != totalRevHops(sums) {
		t.Errorf("pooled FTL n=%d, want %d", pooled.N(), totalRevHops(sums))
	}
	t.Logf("6 seeds: %d revelations, pooled FTL median %d", totalRev, pooled.Median())
}

func totalRevHops(sums []Summary) int {
	n := 0
	for _, s := range sums {
		n += s.Revelations
	}
	return n
}

// TestRunSeedsDeterministicPerSeed: the same seed summarizes identically
// whatever the parallel scheduling.
func TestRunSeedsDeterministicPerSeed(t *testing.T) {
	p := gen.DefaultParams(0)
	p.NumTier1, p.NumTransit, p.NumStub, p.NumVPs = 2, 4, 8, 4
	a := RunSeeds([]int64{99, 77}, p, DefaultConfig())
	b := RunSeeds([]int64{77, 99}, p, DefaultConfig())
	if a[0].Nodes != b[1].Nodes || a[0].Revelations != b[1].Revelations || a[0].Probes != b[1].Probes {
		t.Errorf("seed 99 diverged: %+v vs %+v", a[0], b[1])
	}
	if a[1].Nodes != b[0].Nodes || a[1].Revelations != b[0].Revelations {
		t.Errorf("seed 77 diverged")
	}
}
