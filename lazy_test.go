// Lazy-fabric tier: the fault-in equivalence goldens. A lazy world
// (gen.Params.LazyStubs) keeps stub ASes as descriptors and constructs
// them on first touch; these tests pin that laziness is unobservable —
// byte-identical campaign output against an eager build of the same
// parameters, across engines and worker counts — and that faulting stubs
// in on leased replicas leaves the replica pool warm. The Giga (~10⁶
// router) rung is opt-in via WORMHOLE_GIGA.
package wormhole

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"wormhole/internal/campaign"
	"wormhole/internal/experiments"
	"wormhole/internal/gen"
	"wormhole/internal/netaddr"
)

// lazyParams is a small hierarchical world with enough stubs that a
// capped streamed campaign leaves most of them untouched.
func lazyParams(seed int64, lazy bool) gen.Params {
	p := gen.DefaultParams(seed)
	p.NumTier1 = 2
	p.NumTransit = 6
	p.NumStub = 200
	p.NumVPs = 5
	p.Hierarchical = true
	p.LazyStubs = lazy
	p.MPLSFrac = 1.0
	p.NoPropagateFrac = 0.8
	return p
}

// streamedConfig is the campaign the equivalence golden runs: streaming
// scheduler, a per-prefix budget, both caps engaged.
func streamedConfig() campaign.Config {
	cfg := campaign.DefaultConfig()
	cfg.HDNThreshold = 6
	cfg.Stream = true
	cfg.PrefixBudget = 2
	cfg.StreamSeed = 77
	cfg.MaxBootstrapTargets = 80
	cfg.MaxTargets = 60
	return cfg
}

// dumpLazyCampaign renders the campaign's deterministic outputs for
// byte comparison across worlds (names and addresses only — node
// indices diverge between eager and lazy fabrics by design).
func dumpLazyCampaign(c *campaign.Campaign) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "targets=%d probes=%d\n", len(c.Targets), c.Probes)
	for i, rec := range c.Records {
		fmt.Fprintf(&sb, "rec %d vp=%s dst=%s reached=%v hops=",
			i, rec.VP.Host.Name(), rec.Trace.Dst, rec.Trace.Reached)
		for _, h := range rec.Trace.Hops {
			fmt.Fprintf(&sb, "[%d %s rttl=%d t=%d c=%d mpls=%d]",
				h.ProbeTTL, h.Addr, h.ReplyTTL, h.ICMPType, h.ICMPCode, len(h.MPLS))
		}
		fmt.Fprintf(&sb, " echoTTL=%d", rec.EgressEchoTTL)
		if rec.Revelation != nil {
			fmt.Fprintf(&sb, " rev=%s->%s %v tech=%s",
				rec.Revelation.Ingress, rec.Revelation.Egress, rec.Revelation.Hops, rec.Revelation.Technique)
		}
		sb.WriteByte('\n')
	}
	var fpa []string
	for a, r := range c.Fingerprints {
		fpa = append(fpa, fmt.Sprintf("fp %s sig=%v class=%v", a, r.Signature, r.Class))
	}
	sort.Strings(fpa)
	sb.WriteString(strings.Join(fpa, "\n"))
	sb.WriteByte('\n')
	return sb.String()
}

func firstDiffLine(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  eager: %s\n  lazy:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line count: %d vs %d", len(wl), len(gl))
}

// TestLazyFaultInEquivalence is the tentpole golden: the same streamed
// campaign on an eager and a lazy build of identical parameters produces
// byte-identical output — serially, and in parallel at 1/2/8 workers —
// while the lazy run leaves most of the stub universe unconstructed.
func TestLazyFaultInEquivalence(t *testing.T) {
	eager, err := gen.Build(lazyParams(424242, false))
	if err != nil {
		t.Fatal(err)
	}
	cfg := streamedConfig()
	oracle := campaign.Run(eager, cfg)
	want := dumpLazyCampaign(oracle)
	if len(oracle.Records) == 0 {
		t.Fatal("oracle campaign yields no records")
	}
	if st := oracle.Lazy; st.Resident != st.Total {
		t.Fatalf("eager world not fully resident: %d of %d", st.Resident, st.Total)
	}

	lazySerialIn, err := gen.Build(lazyParams(424242, true))
	if err != nil {
		t.Fatal(err)
	}
	lc := campaign.Run(lazySerialIn, cfg)
	if got := dumpLazyCampaign(lc); got != want {
		t.Fatalf("lazy serial diverged from eager oracle\n%s", firstDiffLine(want, got))
	}
	st := lc.Lazy
	if lc.FaultIns == 0 {
		t.Fatal("lazy campaign faulted nothing in — laziness not engaged")
	}
	if st.ResidentStubs >= st.TotalStubs {
		t.Fatalf("lazy campaign materialized every stub (%d of %d) — capped streaming should not",
			st.ResidentStubs, st.TotalStubs)
	}
	t.Logf("lazy serial: %d of %d routers resident (%d of %d stubs), %d fault-ins",
		st.Resident, st.Total, st.ResidentStubs, st.TotalStubs, lc.FaultIns)

	for _, pcfg := range []campaign.ParallelConfig{
		{Workers: 1},
		{Workers: 2},
		{Workers: 8},
	} {
		name := fmt.Sprintf("workers=%d", pcfg.Workers)
		in, err := gen.Build(lazyParams(424242, true))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c, err := campaign.RunParallel(in, cfg, pcfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := dumpLazyCampaign(c); got != want {
			t.Errorf("%s: lazy parallel diverged from eager oracle\n%s", name, firstDiffLine(want, got))
		}
	}
}

// TestLazyFaultInTally pins the campaign's fault-in total: on a fresh
// lazy world under churn, c.FaultIns equals the fault-ins the source
// fabric and the W−1 pooled replicas record over their lifetimes, at 1,
// 2 and 8 workers.
func TestLazyFaultInTally(t *testing.T) {
	cfg := streamedConfig()
	cfg.ChurnRate, cfg.ChurnSeed = 2, 5
	for _, workers := range []int{1, 2, 8} {
		in, err := gen.Build(lazyParams(424242, true))
		if err != nil {
			t.Fatal(err)
		}
		c, err := campaign.RunParallel(in, cfg, campaign.ParallelConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		reps, err := in.AcquireReplicas(workers-1, false)
		if err != nil {
			t.Fatal(err)
		}
		want := in.LazyStats().FaultIns
		for _, r := range reps {
			want += r.LazyStats().FaultIns
		}
		in.ReleaseReplicas(reps)
		if c.FaultIns == 0 || c.FaultIns != want {
			t.Errorf("workers=%d: campaign counted %d fault-ins, the fabrics record %d", workers, c.FaultIns, want)
		}
	}
}

// TestLazyMaterializeAllEquivalence pins the construction replay at full
// coverage: materializing a lazy world's entire universe (RouterAddrs
// forces it) yields the same address universe and sampled forwarding
// behaviour as the eager build.
func TestLazyMaterializeAllEquivalence(t *testing.T) {
	eager, err := gen.Build(lazyParams(99, false))
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := gen.Build(lazyParams(99, true))
	if err != nil {
		t.Fatal(err)
	}
	// Compare the universes as sets: RouterAddrs enumerates provider
	// routers' cross-link interfaces in materialization order, which
	// legitimately differs (the lazy build materializes VP stubs first).
	// Forwarding is prefix-based, so enumeration order is not behaviour.
	aa, bb := eager.RouterAddrs(), lazy.RouterAddrs()
	sort.Slice(aa, func(i, j int) bool { return aa[i] < aa[j] })
	sort.Slice(bb, func(i, j int) bool { return bb[i] < bb[j] })
	if len(aa) != len(bb) {
		t.Fatalf("addr universes differ: %d vs %d", len(aa), len(bb))
	}
	for i := range aa {
		if aa[i] != bb[i] {
			t.Fatalf("addr %d differs: %s vs %s", i, aa[i], bb[i])
		}
	}
	if st := lazy.LazyStats(); st.Resident != st.Total {
		t.Fatalf("materializeAll left %d of %d routers unbuilt", st.Resident, st.Total)
	}
	// Probe the sorted universe so line i targets the same address on
	// both worlds.
	sample := func(in *gen.Internet) string {
		var sb strings.Builder
		for vi, vp := range in.VPs {
			for i := 0; i < len(aa); i += 61 {
				tr := vp.Prober.Traceroute(aa[i])
				fmt.Fprintf(&sb, "vp%d %s reached=%v ", vi, aa[i], tr.Reached)
				for _, h := range tr.Hops {
					fmt.Fprintf(&sb, "[%d %s rttl=%d t=%d c=%d mpls=%v]",
						h.ProbeTTL, h.Addr, h.ReplyTTL, h.ICMPType, h.ICMPCode, h.MPLS)
				}
				sb.WriteByte('\n')
			}
		}
		return sb.String()
	}
	want := sample(eager)
	if got := sample(lazy); got != want {
		wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
		for i := 0; i < len(wl) && i < len(gl); i++ {
			if wl[i] != gl[i] {
				t.Fatalf("trace %d diverges:\n  eager %s\n  lazy  %s", i, wl[i], gl[i])
			}
		}
		t.Fatalf("trace counts diverge: %d vs %d lines", len(wl), len(gl))
	}
}

// TestLazyReplicaPoolStaysWarm pins the epoch-guard satellite: faulting
// a stub in on a leased replica is additive materialization, not a
// topology mutation — the replica must be reused on the next
// acquisition, and the source pool must not cold-start.
func TestLazyReplicaPoolStaysWarm(t *testing.T) {
	in, err := gen.Build(lazyParams(31337, true))
	if err != nil {
		t.Fatal(err)
	}
	space := in.ProbeSpace()
	first, err := in.AcquireReplicas(2, false)
	if err != nil {
		t.Fatal(err)
	}
	// Probe a handful of stub anchors on replica 0: most stubs hold no
	// VP, so at least one probe faults a stub in on the replica.
	before := first[0].LazyStats()
	var anchors []netaddr.Addr
	for i := space.Len() - 10; i < space.Len(); i++ {
		anchors = append(anchors, space.Addr(i))
	}
	for _, a := range anchors {
		first[0].VPs[0].Prober.Traceroute(a)
	}
	after := first[0].LazyStats()
	if after.FaultIns == before.FaultIns {
		t.Fatal("replica probes faulted nothing in — test probes the wrong addresses")
	}
	// The source world must not have materialized anything: the fault-in
	// happened on the replica's private fabric.
	if st := in.LazyStats(); st.FaultIns != 0 {
		t.Fatalf("source world faulted %d stubs in from replica probes", st.FaultIns)
	}
	in.ReleaseReplicas(first)
	second, err := in.AcquireReplicas(2, false)
	if err != nil {
		t.Fatal(err)
	}
	if second[0] != first[0] || second[1] != first[1] {
		t.Fatal("fault-in on a leased replica cold-started the pool")
	}
	// The faulted-in state survives pooling: the replica keeps its
	// resident set across lease cycles.
	if st := second[0].LazyStats(); st.FaultIns != after.FaultIns {
		t.Fatalf("pooled replica lost fault-in state: %d vs %d", st.FaultIns, after.FaultIns)
	}
	in.ReleaseReplicas(second)
}

// TestGigaScale is the opt-in ~10⁶-router acceptance run: the lazy
// builder must finish inside its budget with only a sliver of the
// universe resident, and a streamed sampled campaign must complete on
// the default worker pool.
//
//	WORMHOLE_GIGA=1 go test -run TestGigaScale -v .
func TestGigaScale(t *testing.T) {
	if testing.Short() || os.Getenv("WORMHOLE_GIGA") == "" {
		t.Skip("set WORMHOLE_GIGA=1 to run the ~10⁶-router rung")
	}
	start := time.Now()
	in, err := gen.Build(experiments.Giga.Params(2024))
	if err != nil {
		t.Fatal(err)
	}
	buildTime := time.Since(start)
	st := in.LazyStats()
	t.Logf("giga: %d-router universe built in %v, %d resident (%d of %d stubs)",
		st.Total, buildTime, st.Resident, st.ResidentStubs, st.TotalStubs)
	if st.Total < 1_000_000 {
		t.Fatalf("Giga rung too small: %d routers", st.Total)
	}
	if st.Resident*50 > st.Total {
		t.Fatalf("Giga build materialized %d of %d routers — laziness not engaged", st.Resident, st.Total)
	}
	if buildTime > 60*time.Second {
		t.Fatalf("Giga build took %v, budget 60s", buildTime)
	}
	c, err := campaign.RunParallel(in, experiments.Giga.CampaignConfig(), campaign.ParallelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Records) == 0 {
		t.Fatal("no campaign records at Giga scale")
	}
	lz := c.Lazy
	t.Logf("giga campaign: %d records, %d revelations, %d probes; %d of %d routers resident, %d fault-ins (%.0f ms), %d resident across replicas",
		len(c.Records), len(c.Revelations()), c.Probes,
		lz.Resident, lz.Total, c.FaultIns, float64(c.FaultInNS)/1e6, c.ReplicaResident)
	if lz.Resident*50 > lz.Total {
		t.Errorf("Giga campaign materialized %d of %d routers — sampling should touch a sliver", lz.Resident, lz.Total)
	}
}
