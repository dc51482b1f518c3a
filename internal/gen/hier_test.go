package gen

import (
	"fmt"
	"strings"
	"testing"
)

// hierParams forces the streamed hierarchical builder at a size small
// enough for exhaustive trace comparison; auto-selection only kicks in
// above flatASLimit.
func hierParams(seed int64) Params {
	p := DefaultParams(seed)
	p.Hierarchical = true
	p.NumTier1 = 2
	p.NumTransit = 3
	p.NumStub = 12
	p.NumVPs = 4
	return p
}

func TestHierBuildSmall(t *testing.T) {
	in, err := Build(hierParams(31))
	if err != nil {
		t.Fatal(err)
	}
	if len(in.ASes) != 17 {
		t.Fatalf("AS count = %d", len(in.ASes))
	}
	if len(in.VPs) != 4 {
		t.Fatalf("VP count = %d", len(in.VPs))
	}
	for _, as := range in.ASes {
		if len(as.Routers()) == 0 {
			t.Errorf("%s has no routers", as.Name)
		}
		// SPF() must resolve for every AS: eagerly for the core, via the
		// lazy recompute path for streamed stubs.
		res := as.SPF()
		if res == nil {
			t.Errorf("%s has no SPF", as.Name)
			continue
		}
		if _, ok := res.NextHops[as.Routers()[0]]; !ok {
			t.Errorf("%s: SPF does not cover its own routers", as.Name)
		}
		if as.Profile.Tier == Stub && as.Profile.MPLS {
			t.Errorf("%s: stub with MPLS", as.Name)
		}
	}
}

func TestHierDeterministicGeneration(t *testing.T) {
	a, err := Build(hierParams(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(hierParams(3))
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
		if a.ASes[i].Profile != b.ASes[i].Profile || a.ASes[i].Aggregate != b.ASes[i].Aggregate {
			t.Fatalf("AS %d differs", i)
		}
	}
}

// TestHierReachability is the end-to-end contract: every VP reaches
// loopbacks across the whole hierarchy — tier-1s, transits, and stubs
// homed on other transits — through default routes, provider customer
// routes, and the core's valley-free tables.
func TestHierReachability(t *testing.T) {
	in, err := Build(hierParams(7))
	if err != nil {
		t.Fatal(err)
	}
	reached, total := 0, 0
	for _, vp := range in.VPs {
		for _, as := range in.ASes {
			lo := as.Routers()[0].Loopback()
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

// TestHierSnapshotEquivalence extends the snapshot contract to the
// streamed builder: replicas must reproduce the source's traceroute
// behaviour byte-for-byte, including stubs whose source SPF is in each
// of the two modes (eager, lazily recomputable), and a replica recomputes
// SPF state over its own routers.
func TestHierSnapshotEquivalence(t *testing.T) {
	in, err := Build(hierParams(5))
	if err != nil {
		t.Fatal(err)
	}
	// Materialize one stub SPF before the snapshot so a source stub with
	// computed SPF state is snapshot alongside recomputable ones.
	var stub *ASInfo
	for _, as := range in.ASes {
		if as.Profile.Tier == Stub {
			stub = as
			break
		}
	}
	if stub == nil {
		t.Fatal("no stub AS")
	}
	if stub.SPF() == nil {
		t.Fatal("stub SPF recompute failed")
	}

	snap, err := in.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := dumpTraces(in)
	if got := dumpTraces(snap); got != want {
		t.Errorf("snapshot traces diverge from original:\n%s", firstTraceDiff(want, got))
	}

	// The recomputed SPF must reference the snapshot's routers, not the
	// source's.
	snapStub := snap.ASByNum(stub.Num)
	res := snapStub.SPF()
	if res == nil {
		t.Fatal("snapshot stub SPF missing")
	}
	if _, ok := res.NextHops[snapStub.Routers()[0]]; !ok {
		t.Error("snapshot stub SPF does not cover the snapshot's routers")
	}
	if _, ok := res.NextHops[stub.Routers()[0]]; ok && snapStub.Routers()[0] != stub.Routers()[0] {
		t.Error("snapshot stub SPF still references source routers")
	}

	// Independence: mutating the original must not change the snapshot.
	for _, as := range in.ASes {
		for _, r := range as.Routers() {
			r.ClearMPLS()
		}
	}
	if got := dumpTraces(snap); got != want {
		t.Errorf("mutating the original changed the snapshot:\n%s", firstTraceDiff(want, got))
	}
}

func TestHierParamsRoundTrip(t *testing.T) {
	p := hierParams(9)
	in, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if in.params != p {
		t.Fatal("Build does not keep its hierarchical parameters verbatim")
	}
	replica, err := in.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if replica.Net == in.Net {
		t.Fatal("Snapshot returned a shared fabric")
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
}

// TestHierGroundTruth pins the shared address index: Resolve and Owner
// must answer for streamed stubs exactly as they do for core ASes.
func TestHierGroundTruth(t *testing.T) {
	in, err := Build(hierParams(13))
	if err != nil {
		t.Fatal(err)
	}
	for _, as := range in.ASes {
		r := as.Routers()[0]
		lo := r.Loopback()
		if lo == nil {
			continue
		}
		name, asn, ok := in.Resolve(lo.Addr)
		if !ok || name != r.Name() || asn != as.Num {
			t.Errorf("Resolve(%s) = %s,%d,%v, want %s,%d", lo.Addr, name, asn, ok, r.Name(), as.Num)
		}
		info, ok := in.Owner(lo.Addr)
		if !ok || info.Router != r || info.AS != as {
			t.Errorf("Owner(%s) mismatched", lo.Addr)
		}
	}
	if _, _, ok := in.Resolve(0xdeadbeef); ok {
		t.Error("resolved a nonexistent address")
	}
}

// TestLazyFaultInUnderChurn pins where a lazy replica, decoded or
// snapshot, attaches a stub it faults in while churn has a ring link of
// the stub's provider down. materializeStub installs the stub's customer
// routes, and picks the providers' hot-potato egress, through the
// providers' SPF. The source computed that SPF at Build, over the built
// topology; a replica pins it as it is made, over the same topology,
// rather than compute it around the failure at first use, since no
// repair re-attaches a stub. For each non-resident stub and each ring
// link of each of its providers, on fresh worlds: fail the link, fault
// the stub in, reconverge and repair, then compare every provider
// router's route to the stub's aggregate against the source's.
func TestLazyFaultInUnderChurn(t *testing.T) {
	const casesPerSeed = 17
	type churnCase struct {
		si   int32
		cand churnCandidate
	}
	routes := func(w *Internet, c churnCase) string {
		t.Helper()
		ev := cycleEvents(w, c.cand, 0, 1, 2)
		if len(ev) != 3 {
			t.Fatalf("stub %d, AS index %d ring %d: no cycle", c.si, c.cand.as, c.cand.pos)
		}
		d := w.lazy.descs[c.si]
		agg := w.ASes[d.asIndex].Aggregate
		ev[0].Apply()
		w.Net.FaultIn(agg.Addr())
		if !w.lazy.resident.get(int(c.si)) {
			t.Fatalf("stub %d not faulted in", c.si)
		}
		ev[1].Apply()
		ev[2].Apply()
		var sb strings.Builder
		for k := int32(0); k < d.nProv; k++ {
			for _, r := range w.ASes[d.prov[k]].Routers() {
				rt, ok := r.GetRoute(agg)
				if !ok {
					fmt.Fprintf(&sb, "%s: none\n", r.Name())
					continue
				}
				fmt.Fprintf(&sb, "%s: origin %d via %s", r.Name(), rt.Origin, rt.BGPNextHop)
				for _, nh := range rt.NextHops {
					fmt.Fprintf(&sb, " [%s %s]", nh.Out.Addr, nh.Gateway)
				}
				sb.WriteByte('\n')
			}
		}
		return sb.String()
	}
	for _, seed := range []int64{5, 6} {
		p := DefaultParams(seed)
		p.NumTier1, p.NumTransit, p.NumStub = 2, 6, 200
		p.Hierarchical, p.LazyStubs = true, true
		p.MPLSFrac = 1
		plan, err := Build(p)
		if err != nil {
			t.Fatal(err)
		}
		var cases []churnCase
		for si, d := range plan.lazy.descs {
			if plan.lazy.resident.get(si) {
				continue
			}
			for k := int32(0); k < d.nProv; k++ {
				if n := len(plan.ASes[d.prov[k]].Core); n >= 3 {
					for pos := 0; pos < n; pos++ {
						cases = append(cases, churnCase{int32(si), churnCandidate{int(d.prov[k]), pos}})
					}
				}
			}
		}
		if len(cases) < casesPerSeed {
			t.Fatalf("seed %d: %d cases, want at least %d", seed, len(cases), casesPerSeed)
		}
		for _, c := range cases[:casesPerSeed] {
			src, err := Build(p)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := src.EncodeWire()
			if err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeWire(blob)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := src.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			want := routes(src, c)
			for _, r := range []struct {
				name string
				w    *Internet
			}{{"decoded", dec}, {"snapshot", snap}} {
				if got := routes(r.w, c); got != want {
					t.Errorf("seed %d, stub %d, AS index %d ring %d: %s replica attached differently\n got:\n%s want:\n%s",
						seed, c.si, c.cand.as, c.cand.pos, r.name, got, want)
				}
			}
		}
	}
}
