package netsim

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// This file implements the cross-fabric flow-reply table. Structurally
// identical replicas of one fabric (see gen.Internet.Snapshot) compute
// identical replies for identical flow keys, so the memoized (flow, TTL)
// observations of FlowCache — though not its trajectories, whose steps
// hold fabric-local interface pointers — are shareable: worker N can hit
// on a reply worker M already paid for.
//
// The table is read-mostly by construction. Readers (FlowCache lookups on
// the replica fabrics' own goroutines) only ever see immutable state: an
// epoch, once published through the atomic pointer, is never written
// again. Writers batch. A replica accumulates its fresh recordings in a
// private dirty set and the campaign folds every worker's dirty set into
// one copy-on-write epoch at a phase barrier, when all fabrics are
// quiescent. Entries already present are unioned reply-by-reply — two
// workers probing the same flow at different TTLs both contribute — and
// since all replicas are structurally identical, overlapping observations
// are identical and the union is order-independent.
//
// Staleness is handled by versioning, keyed to the owner fabric's
// topology. The owner's InvalidateFlowCache (the router mutated() hook)
// calls Flush, which installs an empty epoch with a new version; replicas
// carry the version they subscribed at and self-detach on the first
// lookup that observes a newer epoch. A mutated *replica* detaches
// without flushing: the replies it published while still pristine were
// computed on the shared topology and remain valid for its siblings.

// sharedEpoch is one immutable-after-publish generation of the table.
type sharedEpoch struct {
	version uint64
	entries map[FlowKey]*sharedFlowEntry
}

// sharedFlowEntry mirrors flowEntry's reply memo without the trajectory:
// a 256-bit TTL presence set and the replies it indexes. Immutable after
// publish; reply MPLS stacks are shared read-only across all adopters.
type sharedFlowEntry struct {
	valid   [4]uint64
	replies []ProbeObs

	// touched/touchAll carry the publishing replica's provenance (see
	// flowcache.go): the node indices the recorded activity visited.
	// Structurally identical replicas index nodes identically, so the
	// sets are meaningful fabric-wide. ScopedFlush evicts intersecting
	// entries; deviance windows refuse to adopt them.
	touched  []int32
	touchAll bool
}

// SharedFlowTable is a topology-keyed, read-mostly reply table shared by
// a family of structurally identical fabrics. Obtain the owner side with
// Network.OwnSharedFlowCache and subscribe replicas with
// Network.AttachSharedFlowCache.
type SharedFlowTable struct {
	mu  sync.Mutex // serializes Publish/Flush
	cur atomic.Pointer[sharedEpoch]
}

// NewSharedFlowTable returns an empty table at version 1.
func NewSharedFlowTable() *SharedFlowTable {
	t := &SharedFlowTable{}
	t.cur.Store(&sharedEpoch{version: 1, entries: map[FlowKey]*sharedFlowEntry{}})
	return t
}

// Version returns the current epoch version.
func (t *SharedFlowTable) Version() uint64 { return t.cur.Load().version }

// Len returns the number of flows in the current epoch.
func (t *SharedFlowTable) Len() int { return len(t.cur.Load().entries) }

// Flush installs an empty epoch with a new version and returns it.
// Replicas subscribed to older versions self-detach on their next lookup.
// The table's owner calls this from InvalidateFlowCache when its topology
// mutates.
func (t *SharedFlowTable) Flush() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	ep := &sharedEpoch{version: t.cur.Load().version + 1, entries: map[FlowKey]*sharedFlowEntry{}}
	t.cur.Store(ep)
	return ep.version
}

// ScopedFlush removes the entries whose provenance intersects the scope
// bitmap (or is unknown), keeping the epoch version: the survivors were
// recorded over routers the mutation did not touch and remain valid, so
// subscribed replicas stay attached and warm. The table's owner calls it
// from a scoped invalidation (churn.go) instead of Flush. A no-op when
// nothing matches.
func (t *SharedFlowTable) ScopedFlush(bits []uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.cur.Load()
	victims := 0
	for _, se := range cur.entries {
		if se.touchAll || se.touched == nil || intersectsBits(se.touched, bits) {
			victims++
		}
	}
	if victims == 0 {
		return
	}
	entries := make(map[FlowKey]*sharedFlowEntry, len(cur.entries)-victims)
	for k, se := range cur.entries {
		if se.touchAll || se.touched == nil || intersectsBits(se.touched, bits) {
			continue
		}
		entries[k] = se
	}
	t.cur.Store(&sharedEpoch{version: cur.version, entries: entries})
}

// Publish folds the unpublished recordings of the given fabrics into one
// new copy-on-write epoch (same version: the topology has not changed).
// Fabrics that detached or subscribed to a stale version are skipped and
// detached outright. Callers must hold all the fabrics quiescent — the
// campaign calls this from the coordinating goroutine at a phase barrier
// — but concurrent readers of the table itself are safe throughout. With
// every dirty set empty (the steady state of a warm worker pool) this is
// a no-op, as it is when every dirty entry has since been retired by a
// scoped eviction.
func (t *SharedFlowTable) Publish(nets ...*Network) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.cur.Load()
	total := 0
	for _, n := range nets {
		f := &n.flows
		if f.shared != t || f.sharedOwner {
			continue
		}
		if f.sharedVer != cur.version {
			f.shared = nil
			f.dirty = nil
			continue
		}
		for k := range f.dirty {
			// Entries a scoped eviction retired since they were recorded
			// are not published: liveEntry deletes them from dirty too.
			n.liveEntry(k)
		}
		total += len(f.dirty)
	}
	if total == 0 {
		return
	}
	entries := make(map[FlowKey]*sharedFlowEntry, len(cur.entries)+total)
	for k, se := range cur.entries {
		entries[k] = se
	}
	for _, n := range nets {
		f := &n.flows
		if f.shared != t || f.sharedOwner || f.sharedVer != cur.version {
			continue
		}
		for k, e := range f.dirty {
			if e.valid == ([4]uint64{}) || e.tainted {
				// Tainted entries recorded against a deviated topology; the
				// dirty-mark gate already excludes them, this is the
				// publish-side backstop.
				continue
			}
			ne := &sharedFlowEntry{valid: e.valid, touchAll: e.touchAll}
			ne.replies = append([]ProbeObs(nil), e.replies...)
			ne.touched = append([]int32(nil), e.touched...)
			if prev := entries[k]; prev != nil {
				// Union, never overwrite: another worker may have published
				// TTLs this one never probed (and vice versa). Where both
				// observed a TTL the replies are identical by construction.
				mergeReplies(&ne.valid, &ne.replies, prev.valid, prev.replies)
				if prev.touchAll || prev.touched == nil || ne.touched == nil {
					ne.touched, ne.touchAll = nil, true
				} else {
					ne.touched = unionTouched(ne.touched, prev.touched)
				}
			}
			entries[k] = ne
		}
		f.dirty = nil
	}
	t.cur.Store(&sharedEpoch{version: cur.version, entries: entries})
}

// OwnSharedFlowCache returns the shared reply table keyed to this
// fabric's topology, creating it on first call. The owner never publishes
// its local cache or reads the table; its role is to flush epochs when
// its topology mutates, keeping subscribers from adopting stale replies.
func (n *Network) OwnSharedFlowCache() *SharedFlowTable {
	f := &n.flows
	if f.shared == nil || !f.sharedOwner {
		t := NewSharedFlowTable()
		f.shared = t
		f.sharedOwner = true
		f.sharedVer = t.Version()
		f.dirty = nil
	}
	return f.shared
}

// AttachSharedFlowCache subscribes this fabric to t at its current
// version. The fabric must be a pristine structural replica of t's owner;
// any local mutation afterwards detaches it (see InvalidateFlowCache).
func (n *Network) AttachSharedFlowCache(t *SharedFlowTable) {
	f := &n.flows
	f.shared = t
	f.sharedOwner = false
	f.sharedVer = t.Version()
	f.dirty = nil
}

// SharedFlowCache returns the table this fabric owns or subscribes to,
// or nil.
func (n *Network) SharedFlowCache() *SharedFlowTable { return n.flows.shared }

// mergeReplies folds the (valid, replies) observations missing from dst
// into it, growing dst's reply slice in place (its backing is zeroed at
// allocation and never shrinks, so an exposed tail is clean). Slots dst
// already has are left untouched.
func mergeReplies(dstValid *[4]uint64, dstReplies *[]ProbeObs, valid [4]uint64, replies []ProbeObs) {
	if len(replies) > len(*dstReplies) {
		if len(replies) <= cap(*dstReplies) {
			*dstReplies = (*dstReplies)[:len(replies)]
		} else {
			grown := make([]ProbeObs, len(replies), 2*len(replies))
			copy(grown, *dstReplies)
			*dstReplies = grown
		}
	}
	d := *dstReplies
	for w := 0; w < 4; w++ {
		add := valid[w] &^ dstValid[w]
		for add != 0 {
			b := bits.TrailingZeros64(add)
			add &^= 1 << uint(b)
			d[w*64+b] = replies[w*64+b]
		}
		dstValid[w] |= valid[w]
	}
}
