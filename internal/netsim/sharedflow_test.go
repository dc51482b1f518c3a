package netsim

import (
	"sync"
	"testing"
	"time"

	"wormhole/internal/packet"
)

// seedFlowEntry plants a locally recorded reply into n's cache and dirty
// set, the state FlowProbe/FlowFinish would leave behind, without running
// a fabric. The empty Network passes the purity scan, so FlowLookup
// behaves exactly as on a real quiescent replica.
func seedFlowEntry(t *testing.T, n *Network, key FlowKey, ttl uint8, obs ProbeObs) {
	t.Helper()
	f := &n.flows
	if !f.enabled {
		t.Fatal("seedFlowEntry: cache not enabled")
	}
	e := f.entries[key]
	if e == nil {
		if f.entries == nil {
			f.entries = make(map[FlowKey]*flowEntry)
		}
		e = &flowEntry{}
		f.entries[key] = e
	}
	e.valid[ttl>>6] |= 1 << (ttl & 63)
	if int(ttl) >= len(e.replies) {
		grown := make([]ProbeObs, int(ttl)+1)
		copy(grown, e.replies)
		e.replies = grown
	}
	e.replies[ttl] = obs
	if f.shared != nil && !f.sharedOwner {
		if f.dirty == nil {
			f.dirty = make(map[FlowKey]*flowEntry)
		}
		f.dirty[key] = e
	}
}

func sharedKey(i int) FlowKey {
	return FlowKey{Src: 0x0a000001, Dst: 0x0a0000ff, A: uint16(i), B: 33434}
}

func sharedObs(i int, ttl uint8) ProbeObs {
	return ProbeObs{Answered: true, From: 0x0a000002, ReplyTTL: 250 - ttl, ICMPType: 11, Advance: time.Duration(i+1) * time.Millisecond}
}

// TestSharedFlowTablePublishUnion checks that publishing the same flow
// from two workers that observed different TTLs unions the replies
// instead of last-writer-wins, and that a third subscriber adopts the
// merged entry on a single lookup.
func TestSharedFlowTablePublishUnion(t *testing.T) {
	owner := New(1)
	owner.SetFlowCacheEnabled(true)
	table := owner.OwnSharedFlowCache()

	mk := func() *Network {
		n := New(1)
		n.SetFlowCacheEnabled(true)
		n.AttachSharedFlowCache(table)
		return n
	}
	a, b, c := mk(), mk(), mk()

	key := sharedKey(0)
	seedFlowEntry(t, a, key, 3, sharedObs(0, 3))
	seedFlowEntry(t, b, key, 5, sharedObs(0, 5))
	// Publish a first, then b: b's merge must keep a's TTL 3.
	table.Publish(a)
	table.Publish(b)
	if table.Len() != 1 {
		t.Fatalf("table has %d flows, want 1", table.Len())
	}

	for _, ttl := range []uint8{3, 5} {
		obs, ok := c.FlowLookup(key, ttl)
		if !ok {
			t.Fatalf("subscriber missed ttl %d after union publish", ttl)
		}
		want := sharedObs(0, ttl)
		if obs.Answered != want.Answered || obs.From != want.From ||
			obs.ReplyTTL != want.ReplyTTL || obs.Advance != want.Advance {
			t.Fatalf("ttl %d: got %+v want %+v", ttl, obs, want)
		}
	}
	st := c.FlowCacheStats()
	// TTL 3 consulted the shared table and adopted the whole entry; TTL 5
	// was then a plain local hit.
	if st.SharedHits != 1 || st.Hits != 2 || st.Misses != 0 {
		t.Fatalf("subscriber stats %+v, want 2 hits (1 shared), 0 misses", st)
	}
	if _, ok := c.FlowLookup(key, 9); ok {
		t.Fatal("unrecorded ttl served")
	}
}

// TestSharedFlowTableOwnerFlushDetaches checks the staleness protocol: a
// mutation on the owner opens a new epoch and subscribed replicas detach
// on their next lookup instead of adopting stale replies.
func TestSharedFlowTableOwnerFlushDetaches(t *testing.T) {
	owner := New(1)
	owner.SetFlowCacheEnabled(true)
	table := owner.OwnSharedFlowCache()

	rep := New(1)
	rep.SetFlowCacheEnabled(true)
	rep.AttachSharedFlowCache(table)
	seedFlowEntry(t, rep, sharedKey(1), 4, sharedObs(1, 4))
	table.Publish(rep)
	v0 := table.Version()

	gen0 := owner.TopoGen()
	owner.InvalidateFlowCache() // the router mutated() hook
	if owner.TopoGen() != gen0+1 {
		t.Fatal("owner mutation did not advance TopoGen")
	}
	if table.Version() != v0+1 || table.Len() != 0 {
		t.Fatalf("owner mutation: version %d len %d, want %d and 0", table.Version(), table.Len(), v0+1)
	}

	// A fresh subscriber of the old epoch must detach, not hit.
	stale := New(1)
	stale.SetFlowCacheEnabled(true)
	stale.AttachSharedFlowCache(table)
	owner.InvalidateFlowCache() // bump again so stale's version is old
	if _, ok := stale.FlowLookup(sharedKey(1), 4); ok {
		t.Fatal("stale subscriber served a flushed reply")
	}
	if stale.SharedFlowCache() != nil {
		t.Fatal("stale subscriber did not detach")
	}

	// The stale-epoch re-release window: a replica with an unpublished
	// dirty set whose release (Publish) races an owner Flush must never
	// leak its recordings into the new epoch — whichever side wins the
	// table mutex, the post-flush epoch stays empty. Run under -race by
	// TestRaceTier.
	late := New(1)
	late.SetFlowCacheEnabled(true)
	late.AttachSharedFlowCache(table)
	seedFlowEntry(t, late, sharedKey(3), 5, sharedObs(3, 5))
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); owner.InvalidateFlowCache() }()
	go func() { defer wg.Done(); table.Publish(late) }()
	wg.Wait()
	if table.Len() != 0 {
		t.Fatalf("stale publish leaked %d entries into the flushed epoch", table.Len())
	}

	// Sequential replay of the losing interleaving, so the skip-and-detach
	// path is pinned deterministically: flush first, then release.
	late2 := New(1)
	late2.SetFlowCacheEnabled(true)
	late2.AttachSharedFlowCache(table)
	seedFlowEntry(t, late2, sharedKey(4), 6, sharedObs(4, 6))
	owner.InvalidateFlowCache()
	table.Publish(late2)
	if table.Len() != 0 {
		t.Fatalf("post-flush publish leaked %d entries", table.Len())
	}
	if late2.SharedFlowCache() != nil {
		t.Fatal("stale publisher stayed attached")
	}
}

// TestSharedFlowTableReplicaMutationDetaches checks the asymmetric rule:
// a mutated replica detaches without flushing, and what it published
// while pristine keeps serving its siblings.
func TestSharedFlowTableReplicaMutationDetaches(t *testing.T) {
	owner := New(1)
	owner.SetFlowCacheEnabled(true)
	table := owner.OwnSharedFlowCache()

	rep := New(1)
	rep.SetFlowCacheEnabled(true)
	rep.AttachSharedFlowCache(table)
	seedFlowEntry(t, rep, sharedKey(2), 6, sharedObs(2, 6))
	table.Publish(rep)
	v0 := table.Version()

	rep.InvalidateFlowCache()
	if rep.SharedFlowCache() != nil {
		t.Fatal("mutated replica still attached")
	}
	if table.Version() != v0 || table.Len() != 1 {
		t.Fatalf("replica mutation flushed the table: version %d len %d", table.Version(), table.Len())
	}

	sib := New(1)
	sib.SetFlowCacheEnabled(true)
	sib.AttachSharedFlowCache(table)
	if _, ok := sib.FlowLookup(sharedKey(2), 6); !ok {
		t.Fatal("sibling lost the pristine-era reply")
	}
}

// TestSharedFlowTableConcurrency hammers the table from many replica
// goroutines — seeding, publishing their own dirty sets, adopting, and
// re-attaching after detach — while the owner's goroutine flushes epochs
// (the mid-campaign mutation path). Run under -race by TestRaceTier, this
// is the shared-cache concurrency proof: readers only ever see published
// epochs, writers only their own fabric plus the mutex-guarded swap.
func TestSharedFlowTableConcurrency(t *testing.T) {
	owner := New(1)
	owner.SetFlowCacheEnabled(true)
	table := owner.OwnSharedFlowCache()

	const (
		workers = 4
		iters   = 300
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		// The owner mutates mid-campaign every so often; every flush must
		// strand the subscribers safely.
		for i := 0; i < 25; i++ {
			owner.InvalidateFlowCache()
			time.Sleep(time.Millisecond)
		}
		close(stop)
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := New(1)
			n.SetFlowCacheEnabled(true)
			n.AttachSharedFlowCache(table)
			for i := 0; i < iters; i++ {
				if n.SharedFlowCache() == nil {
					// Detached by an owner flush observed mid-lookup:
					// re-subscribe at the current epoch, as a fresh campaign
					// would.
					n.SetFlowCacheEnabled(false)
					n.SetFlowCacheEnabled(true)
					n.AttachSharedFlowCache(table)
				}
				key := sharedKey(w*iters + i)
				seedFlowEntry(t, n, key, uint8(1+i%12), sharedObs(i, uint8(1+i%12)))
				table.Publish(n)
				// Look up this worker's and (maybe) another worker's flows.
				n.FlowLookup(key, uint8(1+i%12))
				n.FlowLookup(sharedKey(((w+1)%workers)*iters+i), uint8(1+i%12))
			}
		}(w)
	}
	<-stop
	wg.Wait()

	// Post-quiescence sanity: a fresh subscriber can still adopt whatever
	// epoch survived the churn.
	n := New(1)
	n.SetFlowCacheEnabled(true)
	n.AttachSharedFlowCache(table)
	key := sharedKey(0xbeef)
	seedFlowEntry(t, n, key, 7, sharedObs(7, 7))
	table.Publish(n)
	sib := New(1)
	sib.SetFlowCacheEnabled(true)
	sib.AttachSharedFlowCache(table)
	if _, ok := sib.FlowLookup(key, 7); !ok {
		t.Fatal("post-churn publish not visible to a fresh subscriber")
	}
}

// TestSweepBeginSharedAdoption pins how a sweep decision adopts from the
// shared table: a flow with no local memo adopts the published entry, and
// counts the adoption, when that closes the trace; a flow whose local
// memo already covers the trace leaves the published entry alone; and an
// entry that adds no reply is neither adopted nor counted.
func TestSweepBeginSharedAdoption(t *testing.T) {
	owner := New(1)
	owner.SetFlowCacheEnabled(true)
	table := owner.OwnSharedFlowCache()
	mk := func() *Network {
		n := New(1)
		n.SetFlowCacheEnabled(true)
		n.SetSweepEnabled(true)
		n.AttachSharedFlowCache(table)
		return n
	}
	reached := ProbeObs{Answered: true, From: 0x0a0000ff, ReplyTTL: 60, ICMPType: packet.ICMPEchoReply}
	covered, short := sharedKey(7), sharedKey(8)
	pub := mk()
	seedFlowEntry(t, pub, covered, 1, sharedObs(7, 1))
	seedFlowEntry(t, pub, covered, 2, reached)
	seedFlowEntry(t, pub, covered, 5, sharedObs(7, 5)) // past the reached TTL
	seedFlowEntry(t, pub, short, 1, sharedObs(8, 1))
	table.Publish(pub)

	cold := mk()
	if cold.SweepBegin(covered, 1, 30) {
		t.Fatal("walk requested for a flow the published epoch covers")
	}
	if got := cold.FlowCacheStats().SharedHits; got != 1 {
		t.Fatalf("cold adoption counted %d times, want 1", got)
	}

	warm := mk()
	seedFlowEntry(t, warm, covered, 1, sharedObs(7, 1))
	seedFlowEntry(t, warm, covered, 2, reached)
	if warm.SweepBegin(covered, 1, 30) {
		t.Fatal("walk requested for a locally covered flow")
	}
	if e := warm.flows.entries[covered]; e.valid[0]&(1<<5) != 0 || e.touchAll {
		t.Fatal("locally covered flow adopted the published entry")
	}
	if got := warm.FlowCacheStats().SharedHits; got != 0 {
		t.Fatalf("covered flow counted %d adoptions, want 0", got)
	}

	partial := mk()
	seedFlowEntry(t, partial, short, 1, sharedObs(8, 1))
	if !partial.SweepBegin(short, 1, 30) {
		t.Fatal("uncovered flow skipped its walk")
	}
	if e := partial.flows.entries[short]; e.touchAll {
		t.Fatal("published entry that adds no reply was adopted")
	}
	if got := partial.FlowCacheStats().SharedHits; got != 0 {
		t.Fatalf("adoption that added no reply counted %d times", got)
	}
}
