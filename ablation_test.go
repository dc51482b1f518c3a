// Ablation benchmarks: each switches off one design element the paper's
// techniques rest on (or varies a campaign knob) and asserts the expected
// consequence while measuring the cost. They document *why* the design is
// what it is.
package wormhole

import (
	"testing"
	"time"

	"wormhole/internal/campaign"
	"wormhole/internal/gen"
	"wormhole/internal/lab"
	"wormhole/internal/reveal"
	"wormhole/internal/router"
)

// BenchmarkAblationMinOnPop shows that the stateless min(IP-TTL, LSE-TTL)
// copy at the penultimate hop is exactly what makes FRPLA work: with it
// the egress shows a +3 asymmetry, without it the signal vanishes.
func BenchmarkAblationMinOnPop(b *testing.B) {
	run := func(minOnPop bool) int {
		pers := router.Cisco
		pers.MinOnPop = minOnPop
		l, err := lab.Build(lab.Options{Scenario: lab.BackwardRecursive, AS2Personality: pers})
		if err != nil {
			b.Fatal(err)
		}
		tr := l.Prober.Traceroute(l.CE2Left)
		for _, h := range tr.Hops {
			if h.Addr == l.PE2Left {
				if s, ok := reveal.FRPLA(h, 255); ok {
					return s.RFA()
				}
			}
		}
		return -99
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		with := run(true)
		without := run(false)
		if with != 3 {
			b.Fatalf("with min-on-pop: RFA = %d, want 3", with)
		}
		if without != 0 {
			b.Fatalf("without min-on-pop: RFA = %d, want 0 (signal gone)", without)
		}
	}
}

// BenchmarkAblationProbeCost compares the probing cost of the two
// revelation techniques on the same 3-LSR tunnel: DPR needs one extra
// trace, BRPR one per hidden hop.
func BenchmarkAblationProbeCost(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dprLab, err := lab.Build(lab.Options{Scenario: lab.ExplicitRoute})
		if err != nil {
			b.Fatal(err)
		}
		brprLab, err := lab.Build(lab.Options{Scenario: lab.BackwardRecursive})
		if err != nil {
			b.Fatal(err)
		}
		before := dprLab.Prober.Sent
		dpr := reveal.Reveal(dprLab.Prober, dprLab.PE1Left, dprLab.PE2Left)
		dprProbes := dprLab.Prober.Sent - before

		before = brprLab.Prober.Sent
		brpr := reveal.Reveal(brprLab.Prober, brprLab.PE1Left, brprLab.PE2Left)
		brprProbes := brprLab.Prober.Sent - before

		if len(dpr.Hops) != 3 || len(brpr.Hops) != 3 {
			b.Fatalf("revelations incomplete: %d/%d hops", len(dpr.Hops), len(brpr.Hops))
		}
		if dprProbes >= brprProbes {
			b.Fatalf("DPR (%d probes) should be cheaper than BRPR (%d probes)", dprProbes, brprProbes)
		}
		if i == 0 {
			b.ReportMetric(float64(dprProbes), "dpr-probes")
			b.ReportMetric(float64(brprProbes), "brpr-probes")
		}
	}
}

// BenchmarkAblationBootstrapSpread varies how many vantage points trace
// each bootstrap target: more spread discovers more of the false mesh
// (higher edge count) at proportional probing cost.
func BenchmarkAblationBootstrapSpread(b *testing.B) {
	build := func() *gen.Internet {
		p := gen.DefaultParams(31)
		p.NumTier1, p.NumTransit, p.NumStub, p.NumVPs = 2, 5, 10, 6
		p.MPLSFrac, p.NoPropagateFrac, p.UHPFrac = 1, 0.8, 0
		in, err := gen.Build(p)
		if err != nil {
			b.Fatal(err)
		}
		return in
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg1 := campaign.DefaultConfig()
		cfg1.BootstrapSpread = 1
		c1 := campaign.Run(build(), cfg1)

		cfg3 := campaign.DefaultConfig()
		cfg3.BootstrapSpread = 3
		c3 := campaign.Run(build(), cfg3)

		if c3.ITDK.NumEdges() < c1.ITDK.NumEdges() {
			b.Fatalf("spread 3 saw fewer edges (%d) than spread 1 (%d)",
				c3.ITDK.NumEdges(), c1.ITDK.NumEdges())
		}
		if c3.Probes <= c1.Probes {
			b.Fatalf("spread 3 cost (%d) not above spread 1 (%d)", c3.Probes, c1.Probes)
		}
		if i == 0 {
			b.ReportMetric(float64(c1.ITDK.NumEdges()), "edges-spread1")
			b.ReportMetric(float64(c3.ITDK.NumEdges()), "edges-spread3")
		}
	}
}

// BenchmarkAblationRetries shows the Attempts knob recovering hops an
// ICMP rate limit silences: P2 sends at most one time-exceeded per
// interval, and back-to-back traces return to it sooner, so a single
// attempt leaves its hop anonymous on every other trace while a retry
// outlasts the interval.
func BenchmarkAblationRetries(b *testing.B) {
	anonHops := func(attempts int) int {
		l, err := lab.Build(lab.Options{Scenario: lab.Default})
		if err != nil {
			b.Fatal(err)
		}
		// Traces to CE2 reach P2 every 66 ms of virtual time, inside its
		// 68 ms interval; an unanswered probe to P2 costs 4 ms, so the
		// first retry arrives after the interval has passed.
		cfg := l.P2.Config()
		cfg.ICMPInterval = 68 * time.Millisecond
		l.P2.SetConfig(cfg)
		l.Prober.Attempts = attempts
		anon := 0
		for i := 0; i < 20; i++ {
			tr := l.Prober.Traceroute(l.CE2Left)
			for _, h := range tr.Hops {
				if h.Anonymous() {
					anon++
				}
			}
		}
		return anon
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one := anonHops(1)
		three := anonHops(3)
		if three >= one {
			b.Fatalf("retries did not reduce anonymous hops: %d -> %d", one, three)
		}
		if i == 0 {
			b.ReportMetric(float64(one), "anon-1try")
			b.ReportMetric(float64(three), "anon-3try")
		}
	}
}

// BenchmarkAblationUHPDefeatsRevelation quantifies the paper's stated
// limitation: flipping the same network from PHP to UHP takes revelation
// success from full to zero.
func BenchmarkAblationUHPDefeatsRevelation(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		php, err := lab.Build(lab.Options{Scenario: lab.BackwardRecursive})
		if err != nil {
			b.Fatal(err)
		}
		uhp, err := lab.Build(lab.Options{Scenario: lab.TotallyInvisible})
		if err != nil {
			b.Fatal(err)
		}
		if got := reveal.Reveal(php.Prober, php.PE1Left, php.PE2Left); len(got.Hops) != 3 {
			b.Fatalf("PHP revelation found %d hops", len(got.Hops))
		}
		if got := reveal.Reveal(uhp.Prober, uhp.PE1Left, uhp.PE2Left); len(got.Hops) != 0 {
			b.Fatalf("UHP revelation found %d hops, want 0", len(got.Hops))
		}
	}
}
