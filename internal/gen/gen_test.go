package gen

import (
	"errors"
	"testing"
	"time"

	"wormhole/internal/router"
)

func smallParams(seed int64) Params {
	p := DefaultParams(seed)
	p.NumTier1 = 2
	p.NumTransit = 4
	p.NumStub = 8
	p.NumVPs = 4
	return p
}

func TestBuildSmallInternet(t *testing.T) {
	in, err := Build(smallParams(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(in.ASes) != 14 {
		t.Fatalf("AS count = %d", len(in.ASes))
	}
	if len(in.VPs) != 4 {
		t.Fatalf("VP count = %d", len(in.VPs))
	}
	// Every AS got routers, an SPF, and an aggregate.
	for _, as := range in.ASes {
		if len(as.Routers()) == 0 {
			t.Errorf("%s has no routers", as.Name)
		}
		if as.SPF() == nil {
			t.Errorf("%s has no SPF", as.Name)
		}
		if as.Profile.Tier == Stub && as.Profile.MPLS {
			t.Errorf("%s: stub with MPLS", as.Name)
		}
	}
}

func TestGeneratedInternetRoutes(t *testing.T) {
	in, err := Build(smallParams(11))
	if err != nil {
		t.Fatal(err)
	}
	// Every VP must reach a sample of router loopbacks across the world.
	reached, total := 0, 0
	for _, vp := range in.VPs {
		for _, as := range in.ASes {
			r := as.Routers()[0]
			lo := r.Loopback()
			if lo == nil {
				continue
			}
			total++
			if _, ok := vp.Prober.Ping(lo.Addr, 64); ok {
				reached++
			}
		}
	}
	if total == 0 || reached < total*9/10 {
		t.Fatalf("reachability %d/%d", reached, total)
	}
}

func TestGeneratedTracesTerminate(t *testing.T) {
	in, err := Build(smallParams(13))
	if err != nil {
		t.Fatal(err)
	}
	vp := in.VPs[0]
	ok := 0
	addrs := in.RouterAddrs()
	for i := 0; i < len(addrs); i += 7 {
		tr := vp.Prober.Traceroute(addrs[i])
		if tr.Reached {
			ok++
		}
	}
	if ok == 0 {
		t.Fatal("no trace reached its destination")
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a, err := Build(smallParams(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(smallParams(3))
	if err != nil {
		t.Fatal(err)
	}
	aa, bb := a.RouterAddrs(), b.RouterAddrs()
	if len(aa) != len(bb) {
		t.Fatalf("addr counts differ: %d vs %d", len(aa), len(bb))
	}
	for i := range aa {
		if aa[i] != bb[i] {
			t.Fatalf("addr %d differs: %s vs %s", i, aa[i], bb[i])
		}
	}
	for i := range a.ASes {
		if a.ASes[i].Profile != b.ASes[i].Profile {
			t.Fatalf("AS %d profile differs", i)
		}
	}
}

// TestAddressPlanExhaustion pins that Params whose address plan cannot
// fit come back from Build as an *AddressPlanError, never a panic: a flat
// transit and a lazy stub with more routers than loopback slots, and a
// lone transit with more stub customers than child /20 blocks. Without
// vantage points no lazy stub materializes during Build, so only the
// planner's check stands between that world and a panic at first touch.
func TestAddressPlanExhaustion(t *testing.T) {
	flat := DefaultParams(1)
	flat.TransitCore = [2]int{300, 300}
	lazy := hierParams(1)
	lazy.LazyStubs = true
	lazy.StubRouters = [2]int{300, 300}
	unplanned := lazy
	unplanned.NumVPs = 0
	crowded := hierParams(1)
	crowded.LazyStubs = true
	crowded.NumTransit, crowded.NumStub = 1, 600
	for _, c := range []struct {
		name string
		p    Params
		pool string
	}{
		{"flat", flat, "loopbacks"},
		{"lazy", lazy, "loopbacks"},
		{"lazy without VPs", unplanned, "loopbacks"},
		{"crowded", crowded, "child blocks"},
	} {
		_, err := Build(c.p)
		var pe *AddressPlanError
		if !errors.As(err, &pe) || pe.Pool != c.pool {
			t.Errorf("%s: Build = %v, want an *AddressPlanError for %s", c.name, err, c.pool)
		}
	}
}

// TestBuildRejectsInvalidParams pins that Params the builders cannot
// construct a world from come back from Build as an error before
// construction, where each would panic: shares outside [0, 1] overrun
// stratifiedProfiles' slices, empty or negative core ranges divide by
// zero, an empty stub range reaches rand.Intn, and negative AS counts
// index out of range or size a slice below zero.
func TestBuildRejectsInvalidParams(t *testing.T) {
	for _, c := range []struct {
		name string
		set  func(*Params)
	}{
		{"MPLSFrac 1.5", func(p *Params) { p.MPLSFrac = 1.5 }},
		{"NoPropagateFrac 2", func(p *Params) { p.NoPropagateFrac = 2 }},
		{"UHPFrac 2", func(p *Params) { p.UHPFrac = 2 }},
		{"TEFrac 2", func(p *Params) { p.TEFrac = 2 }},
		{"TransitCore {0,0}", func(p *Params) { p.TransitCore = [2]int{0, 0} }},
		{"TransitCore {-3,-1}", func(p *Params) { p.TransitCore = [2]int{-3, -1} }},
		{"Tier1Core {0,0}", func(p *Params) { p.Tier1Core = [2]int{0, 0} }},
		{"Tier1Core {-3,-1}", func(p *Params) { p.Tier1Core = [2]int{-3, -1} }},
		{"StubRouters {0,0}", func(p *Params) { p.StubRouters = [2]int{0, 0} }},
		{"NumTransit -1", func(p *Params) { p.NumTransit = -1 }},
		{"NumStub -5 hierarchical", func(p *Params) { p.NumStub, p.Hierarchical = -5, true }},
	} {
		p := smallParams(1)
		c.set(&p)
		in, err := Build(p)
		var pe *AddressPlanError
		if err == nil || in != nil || errors.As(err, &pe) {
			t.Errorf("%s: Build = (%v, %v), want a Params error", c.name, in != nil, err)
		}
	}
}

func TestSnapshotReplicatesBuild(t *testing.T) {
	in, err := Build(smallParams(3))
	if err != nil {
		t.Fatal(err)
	}
	replica, err := in.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if replica == in || replica.Net == in.Net {
		t.Fatal("Snapshot returned a shared world, want an independent replica")
	}
	if in.params != smallParams(3) {
		t.Fatal("Build does not keep its parameters verbatim")
	}
	aa, bb := in.RouterAddrs(), replica.RouterAddrs()
	if len(aa) != len(bb) {
		t.Fatalf("addr counts differ: %d vs %d", len(aa), len(bb))
	}
	for i := range aa {
		if aa[i] != bb[i] {
			t.Fatalf("addr %d differs: %s vs %s", i, aa[i], bb[i])
		}
	}
	if len(replica.VPs) != len(in.VPs) {
		t.Fatalf("VP counts differ: %d vs %d", len(replica.VPs), len(in.VPs))
	}
	for i := range in.VPs {
		if in.VPs[i].Host.Addr() != replica.VPs[i].Host.Addr() {
			t.Fatalf("VP %d address differs", i)
		}
	}
	// Independent fabrics: probing the replica advances only its clock.
	before := in.Net.Now()
	replica.VPs[0].Prober.Traceroute(replica.VPs[1].Host.Addr())
	if in.Net.Now() != before {
		t.Fatal("probing the replica advanced the original fabric's clock")
	}
	if replica.Net.Now() == 0 {
		t.Fatal("replica fabric did not run")
	}
}

func TestProfilesFollowSurveyShares(t *testing.T) {
	p := DefaultParams(17)
	p.NumTier1 = 3
	p.NumTransit = 60 // more samples for the shares
	p.NumStub = 10
	p.NumVPs = 2
	in, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	mpls, invisible, total := 0, 0, 0
	for _, as := range in.ASes {
		if as.Profile.Tier == Stub {
			continue
		}
		total++
		if as.Profile.MPLS {
			mpls++
			if !as.Profile.Propagate {
				invisible++
			}
		}
	}
	mplsFrac := float64(mpls) / float64(total)
	if mplsFrac < 0.7 || mplsFrac > 1.0 {
		t.Errorf("MPLS fraction = %.2f, want ~0.87", mplsFrac)
	}
	invFrac := float64(invisible) / float64(mpls)
	if invFrac < 0.25 || invFrac > 0.75 {
		t.Errorf("no-ttl-propagate fraction = %.2f, want ~0.48", invFrac)
	}
}

func TestGroundTruthResolver(t *testing.T) {
	in, err := Build(smallParams(5))
	if err != nil {
		t.Fatal(err)
	}
	as := in.ASes[0]
	r := as.Routers()[0]
	lo := r.Loopback()
	name, asn, ok := in.Resolve(lo.Addr)
	if !ok || name != r.Name() || asn != as.Num {
		t.Errorf("Resolve(%s) = %s,%d,%v", lo.Addr, name, asn, ok)
	}
	if _, _, ok := in.Resolve(0xdeadbeef); ok {
		t.Error("resolved a nonexistent address")
	}
}

func TestVendorPersonalities(t *testing.T) {
	p := smallParams(23)
	p.CiscoFrac, p.JuniperFrac, p.MixedFrac = 0, 1, 0 // force Juniper
	in, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, as := range in.ASes {
		for _, r := range as.Routers() {
			if r.Personality().Name != router.Juniper.Name {
				t.Fatalf("%s: personality %s, want juniper", r.Name(), r.Personality().Name)
			}
			if r.Config().MPLSEnabled && r.Config().LDP != router.LDPHostRoutesOnly {
				t.Fatalf("%s: Juniper router without host-routes LDP", r.Name())
			}
		}
	}
}

func TestTEDetoursInstalled(t *testing.T) {
	p := smallParams(77)
	p.MPLSFrac, p.TEFrac = 1.0, 1.0
	in, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	teASes := 0
	for _, as := range in.ASes {
		if as.Profile.TE {
			teASes++
		}
	}
	if teASes == 0 {
		t.Fatal("no TE ASes despite TEFrac=1")
	}
	// The world must still route end to end with detour tunnels overlaid.
	vp := in.VPs[0]
	reached := 0
	for _, as := range in.ASes {
		lo := as.Routers()[0].Loopback()
		if lo == nil {
			continue
		}
		if _, ok := vp.Prober.Ping(lo.Addr, 64); ok {
			reached++
		}
	}
	if reached < len(in.ASes)*8/10 {
		t.Fatalf("reachability collapsed with TE tunnels: %d/%d", reached, len(in.ASes))
	}
}

func TestCampaignSurvivesTETunnels(t *testing.T) {
	// Full campaign over a TE-heavy world: revelation may fail more often
	// (the paper's advanced configurations) but must not break.
	p := smallParams(79)
	p.MPLSFrac, p.NoPropagateFrac, p.TEFrac = 1.0, 0.8, 1.0
	in, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	// Smoke: trace across the world from every VP.
	for _, vp := range in.VPs {
		for i, dst := range in.RouterAddrs() {
			if i%9 != 0 {
				continue
			}
			vp.Prober.Traceroute(dst)
		}
	}
}

func TestRegionalDelays(t *testing.T) {
	p := smallParams(991)
	p.Regional, p.RegionDelay = true, 50*time.Millisecond
	in, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	// RTTs across the world must spread well beyond the base link jitter.
	vp := in.VPs[0]
	var min, max time.Duration
	for _, as := range in.ASes {
		lo := as.Routers()[0].Loopback()
		if lo == nil {
			continue
		}
		if reply, ok := vp.Prober.Ping(lo.Addr, 64); ok {
			if min == 0 || reply.RTT < min {
				min = reply.RTT
			}
			if reply.RTT > max {
				max = reply.RTT
			}
		}
	}
	if max-min < 20*time.Millisecond {
		t.Errorf("regional delays too flat: min=%v max=%v", min, max)
	}

	// Flat mode stays flat-ish.
	p2 := smallParams(991)
	p2.Regional = false
	in2, err := Build(p2)
	if err != nil {
		t.Fatal(err)
	}
	vp2 := in2.VPs[0]
	var max2 time.Duration
	for _, as := range in2.ASes {
		lo := as.Routers()[0].Loopback()
		if lo == nil {
			continue
		}
		if reply, ok := vp2.Prober.Ping(lo.Addr, 64); ok && reply.RTT > max2 {
			max2 = reply.RTT
		}
	}
	if max2 >= max {
		t.Errorf("flat world (%v) not faster than regional (%v)", max2, max)
	}
}
