// Scale-ladder tier: contracts that only show up at the Large (~10⁴
// router) hierarchical rung — snapshot structural equality, the
// no-per-router-allocation pin on Snapshot, replica-pool reuse keyed to
// topology generations, and churn resolution against arena-backed
// replicas. The Huge (~10⁵) rung is opt-in via WORMHOLE_HUGE.
package wormhole

import (
	"os"
	"sync"
	"testing"
	"time"

	"wormhole/internal/campaign"
	"wormhole/internal/experiments"
	"wormhole/internal/gen"
)

var (
	largeOnce sync.Once
	largeIn   *gen.Internet
	largeErr  error
)

// largeWorld builds the Large rung once and shares it across the scale
// tests; none of them may mutate it (snapshots and replicas only).
func largeWorld(t *testing.T) *gen.Internet {
	t.Helper()
	largeOnce.Do(func() {
		largeIn, largeErr = gen.Build(experiments.Large.Params(2024))
	})
	if largeErr != nil {
		t.Fatal(largeErr)
	}
	return largeIn
}

// sampleTraces is the promoted structural-equality oracle; the gen wire
// tests and the distributed smoke share the same definition.
func sampleTraces(in *gen.Internet, stride int) string {
	return gen.SampleTraces(in, stride)
}

func routerCount(in *gen.Internet) int {
	n := 0
	for _, as := range in.ASes {
		n += len(as.Core) + len(as.Edge)
	}
	return n
}

// TestLargeSnapshotEquivalence is the structural-equality oracle at the
// Large rung: the snapshot must mirror the source's address universe, AS
// metadata, and sampled traceroute behaviour across all 30 VPs.
func TestLargeSnapshotEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("scale tier")
	}
	in := largeWorld(t)
	if n := routerCount(in); n < 9000 {
		t.Fatalf("Large rung too small: %d routers", n)
	}
	snap, err := in.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.EquivalenceDiff(in, snap, 199); err != nil {
		t.Fatal(err)
	}
}

// TestLargeSnapshotAllocs pins the point of the struct-of-arrays layout:
// Snapshot carves replicas out of a handful of slabs, so its allocation
// count must stay far below one object per router. Per-object cloning
// creeping back in fails this long before the bytes/router gate moves.
func TestLargeSnapshotAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("scale tier")
	}
	in := largeWorld(t)
	routers := routerCount(in)
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := in.Snapshot(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Snapshot at Large: %.0f allocs for %d routers (%.3f/router)",
		allocs, routers, allocs/float64(routers))
	// Measured ~0.07 allocs/router (slabs, VPs, TE remaps); one tenth of
	// an object per router is an order of magnitude of headroom while
	// still failing fast if any per-router clone path returns.
	if allocs > float64(routers)/10 {
		t.Errorf("Snapshot allocates %.0f objects for %d routers — per-router allocation is back",
			allocs, routers)
	}
}

// TestReplicaPoolTopoGenReuse pins the pool's validity protocol: idle
// replicas are reused in stable slot order while the source's topology
// generation stands still, a source mutation reseeds the pool, and a
// replica mutated while leased is dropped at release.
func TestReplicaPoolTopoGenReuse(t *testing.T) {
	in, err := gen.Build(experiments.Small.Params(909))
	if err != nil {
		t.Fatal(err)
	}
	first, err := in.AcquireReplicas(2, false)
	if err != nil {
		t.Fatal(err)
	}
	in.ReleaseReplicas(first)
	second, err := in.AcquireReplicas(2, false)
	if err != nil {
		t.Fatal(err)
	}
	if second[0] != first[0] || second[1] != first[1] {
		t.Fatal("pristine pool did not reuse replicas in slot order")
	}

	// Mutating replica 0's fabric while leased must drop it at release;
	// slot 1's pristine replica survives.
	second[0].Net.InvalidateFlowCache()
	in.ReleaseReplicas(second)
	third, err := in.AcquireReplicas(2, false)
	if err != nil {
		t.Fatal(err)
	}
	if third[0] != first[1] {
		t.Fatal("pristine replica was not reused after a sibling's drop")
	}
	if third[0] == second[0] || third[1] == second[0] {
		t.Fatal("mutated replica re-entered the pool")
	}
	in.ReleaseReplicas(third)

	// A source mutation bumps TopoGen: the whole pool is stale and the
	// next acquisition rebuilds from scratch.
	in.Net.InvalidateFlowCache()
	fourth, err := in.AcquireReplicas(2, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range fourth {
		if r == first[0] || r == first[1] || r == third[1] {
			t.Fatal("pool survived a source TopoGen bump")
		}
	}
	in.ReleaseReplicas(fourth)
}

// TestReplicaPoolLeakReclaim pins the pool's lease accounting: released
// leases return the count to zero, and an abandoned lease is purged when
// the pool reseeds rather than pinning its replica in the lease map
// forever.
func TestReplicaPoolLeakReclaim(t *testing.T) {
	in, err := gen.Build(experiments.Small.Params(311))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := in.AcquireReplicas(3, false)
	if err != nil {
		t.Fatal(err)
	}
	if n := in.LeasedReplicas(); n != 3 {
		t.Fatalf("leased %d after acquire, want 3", n)
	}
	in.ReleaseReplicas(rs)
	if n := in.LeasedReplicas(); n != 0 {
		t.Fatalf("leased %d after release, want 0", n)
	}

	// An abandoned lease (never released at all) must not survive a pool
	// reseed: the source mutation invalidates it, and the reseed purges it.
	if _, err := in.AcquireReplicas(1, false); err != nil {
		t.Fatal(err)
	}
	if n := in.LeasedReplicas(); n != 1 {
		t.Fatalf("leased %d with abandoned lease, want 1", n)
	}
	in.Net.InvalidateFlowCache() // TopoGen bump: next acquire reseeds
	fresh, err := in.AcquireReplicas(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if n := in.LeasedReplicas(); n != 1 {
		t.Fatalf("leased %d after reseed, want 1 (stale lease stranded)", n)
	}
	in.ReleaseReplicas(fresh)
	if n := in.LeasedReplicas(); n != 0 {
		t.Fatalf("leased %d at end, want 0", n)
	}
}

// TestLargeChurnSmoke resolves a churn plan against the Large rung and a
// structural replica of it: identical schedules on both, and a full
// fail → reconverge → repair cycle must leave the replica's forwarding
// behaviour byte-identical to pristine.
func TestLargeChurnSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scale tier")
	}
	in := largeWorld(t)
	plan := gen.BuildChurnPlan(in, 2.0, 4711)
	if plan == nil {
		t.Fatal("no churn plan at Large — core ASes should provide candidates")
	}
	src := plan.EventsFor(in, 3, 400)
	if len(src) == 0 {
		t.Fatal("empty churn schedule")
	}
	snap, err := in.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rep := plan.EventsFor(snap, 3, 400)
	if len(rep) != len(src) {
		t.Fatalf("schedule sizes differ across fabrics: %d vs %d", len(src), len(rep))
	}
	for i := range src {
		if src[i].Tick != rep[i].Tick || src[i].Kind != rep[i].Kind {
			t.Fatalf("event %d differs across fabrics: %s@%d vs %s@%d",
				i, src[i].Kind, src[i].Tick, rep[i].Kind, rep[i].Tick)
		}
	}

	// Replaying the replica's schedule to completion restores pristine
	// forwarding: repair recomputes the IGP and replays the recorded
	// label-plane signalling byte-for-byte.
	before := sampleTraces(snap, 977)
	for _, ev := range rep {
		ev.Apply()
	}
	if after := sampleTraces(snap, 977); after != before {
		t.Error("repaired replica's forwarding diverges from pristine")
	}
}

// TestHugeScale is the opt-in ~10⁵-router acceptance run: the streamed
// builder must finish inside its budget and a sampled parallel campaign
// must complete on the default worker pool.
//
//	WORMHOLE_HUGE=1 go test -run TestHugeScale -v .
func TestHugeScale(t *testing.T) {
	if testing.Short() || os.Getenv("WORMHOLE_HUGE") == "" {
		t.Skip("set WORMHOLE_HUGE=1 to run the ~10⁵-router rung")
	}
	start := time.Now()
	in, err := gen.Build(experiments.Huge.Params(2024))
	if err != nil {
		t.Fatal(err)
	}
	buildTime := time.Since(start)
	n := routerCount(in)
	t.Logf("huge: %d routers built in %v", n, buildTime)
	if n < 90000 {
		t.Fatalf("Huge rung too small: %d routers", n)
	}
	if buildTime > 30*time.Second {
		t.Fatalf("Huge build took %v, budget 30s", buildTime)
	}
	c, err := campaign.RunParallel(in, experiments.Huge.CampaignConfig(), campaign.ParallelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Records) == 0 {
		t.Fatal("no campaign records at Huge scale")
	}
	t.Logf("huge campaign: %d records, %d revelations, %d probes",
		len(c.Records), len(c.Revelations()), c.Probes)
}
