package netsim

import (
	"math"
	"sort"
)

// This file implements the churn engine: a deterministic, seeded schedule
// of control-plane events (link failures, IGP reconvergence, LSP
// re-signalling, repairs) injected into a running campaign, plus the
// delta-invalidation machinery that keeps the flow cache warm across
// those events.
//
// # Scheduling
//
// Events are scheduled in probe ticks, not virtual time: the prober calls
// ChurnTick once per probe, immediately before injection, and an event
// fires when the probe count reaches its Tick. Two runs that issue the
// same probe sequence therefore mutate the fabric at exactly the same
// probe boundaries — the property the equivalence-under-churn tests pin
// down. A cached run and the uncached oracle answer every probe
// identically by induction: identical replies imply an identical probe
// sequence, so events fire at identical boundaries and every probe sees
// identical topology.
//
// # Delta-invalidation
//
// Outside churn, any router mutation flushes the world
// (InvalidateFlowCache): correct, and cheap when mutations only happen
// between campaigns. During a churn window that would cold-start every
// cache on every flap, so churnFire brackets each event's Apply in a
// *batch*: every router that mutates reports itself through
// InvalidateFlowCacheScoped and is collected into a scope bitmap instead
// of flushing. When Apply returns, exactly the flow entries and reply
// shapes whose recorded activity (forward trajectory and reply path — the
// touched set, see flowcache.go) intersects the scope are evicted, and
// everything else stays warm. The fabric-wide topoGen is deliberately not
// bumped: a schedule always closes with a repair that restores the
// original control plane byte-for-byte, so a fabric that ends its shard
// content-pristine may be re-pooled warm.
//
// Eviction is generation-stamped, so an event costs O(|scope|) rather
// than a scan of the whole cache. evictScope advances the fabric's
// eviction generation and stamps it on every node in scope (scopeGen).
// Each flow entry and reply shape carries the generation it was last
// validated at, and its one accessor (liveEntry, liveShape) settles the
// eviction on read: a current stamp is live; otherwise the artifact is
// evicted if any node in its touched set was stamped later (or its
// provenance is unknown), and restamped if not. Since touched sets only
// grow on artifacts validated in the current generation, and events fire
// only between probes, that read sees the same set every eviction since
// the stamp would have scanned: an artifact is served exactly when the
// eager scan would have kept it. Evicted artifacts linger in their maps
// until read or overwritten, bounded by the key space.
//
// # Deviance windows
//
// Between a failure and its repair the fabric deviates from the pristine
// topology its shared reply table is keyed to. The window's node scope is
// tracked in a deviance bitmap: while any window is open, shared-table
// entries touching it are not adopted, and locally recorded entries
// touching it are tainted (never published). The repair event's eviction
// scope covers the window, so every deviant-era entry is evicted before
// the next publish barrier.

// ChurnEvent is one scheduled control-plane mutation.
type ChurnEvent struct {
	// Tick is the probe count at which the event fires: immediately
	// before the Tick-th probe (0-based) issued after ChurnBegin.
	Tick uint64
	// Kind labels the event for stats and debugging ("fail",
	// "reconverge", "repair").
	Kind string
	// Dev tracks the fabric's deviation from its pristine topology: +1
	// opens a deviance window (failure), -1 closes one (a repair that
	// restores pristine state), 0 leaves it unchanged (reconvergence
	// inside a window).
	Dev int
	// DevScope lists the nodes whose behaviour may differ from pristine
	// while the window this event opens stays open. Consulted only when
	// Dev != 0.
	DevScope []Node
	// EvictScope lists nodes whose cached flows must be evicted even if
	// Apply does not mutate them directly (e.g. both endpoints of a
	// failed link, which drops packets without touching a FIB). Routers
	// mutated by Apply are collected automatically.
	EvictScope []Node
	// Apply performs the mutation (link flips, IGP recomputation, LSP
	// re-signalling) against this fabric.
	Apply func()
}

// churnState is the per-fabric engine state, embedded by value in Network
// so replicas start quiescent.
type churnState struct {
	events     []ChurnEvent
	next       int
	tick       uint64
	active     bool
	flushWorld bool
	fired      uint64

	// batching brackets an event's Apply: mutations accumulate into the
	// batch scope instead of flushing the world. batchAll falls back to a
	// full flush when a mutation cannot be attributed to a known node.
	batching  bool
	batchAll  bool
	batchBits []uint64
	batchList []int32

	// devBits marks nodes inside an open deviance window; devCount is
	// the number of open windows.
	devBits  []uint64
	devCount int
}

// ChurnBegin arms the engine with a schedule for the probes that follow.
// flushWorld selects the baseline invalidation strategy — every event
// flushes the world — instead of delta-invalidation; it exists so the
// benchmark can measure one against the other on identical schedules. A
// nil schedule leaves the engine inert.
func (n *Network) ChurnBegin(events []ChurnEvent, flushWorld bool) {
	c := &n.churn
	c.events = events
	c.next = 0
	c.tick = 0
	c.active = len(events) > 0
	c.flushWorld = flushWorld
	c.devCount = 0
	for i := range c.devBits {
		c.devBits[i] = 0
	}
}

// ChurnTick advances the probe clock by one and fires every event whose
// tick has arrived. The prober calls it immediately before each probe.
func (n *Network) ChurnTick() {
	c := &n.churn
	if !c.active {
		return
	}
	for c.next < len(c.events) && c.events[c.next].Tick <= c.tick {
		n.churnFire(&c.events[c.next])
		c.next++
	}
	if c.next == len(c.events) {
		c.active = false
	}
	c.tick++
}

// ChurnEnd force-fires any events the probe count never reached (short
// shards), so a schedule that ends in repair always leaves the fabric
// content-pristine, then disarms the engine.
func (n *Network) ChurnEnd() {
	c := &n.churn
	for c.next < len(c.events) {
		n.churnFire(&c.events[c.next])
		c.next++
	}
	c.active = false
	c.events = nil
}

// ChurnFired returns the number of events applied so far, cumulative
// across schedules.
func (n *Network) ChurnFired() uint64 { return n.churn.fired }

// ChurnDeviant reports whether a deviance window is open: the fabric's
// control plane differs from the pristine topology it was built with.
// Replica pools refuse to re-pool a deviant fabric.
func (n *Network) ChurnDeviant() bool { return n.churn.devCount != 0 }

// churnFire applies one event under the armed invalidation strategy and
// maintains the deviance window bookkeeping.
func (n *Network) churnFire(ev *ChurnEvent) {
	c := &n.churn
	if c.flushWorld {
		if ev.Apply != nil {
			ev.Apply()
		}
		n.InvalidateFlowCache()
	} else {
		c.batching = true
		c.batchAll = false
		for _, i := range c.batchList {
			clearBit(c.batchBits, i)
		}
		c.batchList = c.batchList[:0]
		for _, nd := range ev.EvictScope {
			n.batchNode(nd)
		}
		if ev.Apply != nil {
			ev.Apply()
		}
		c.batching = false
		if c.batchAll {
			n.InvalidateFlowCache()
		} else if len(c.batchList) > 0 {
			n.evictScope(c.batchBits, c.batchList)
		}
	}
	switch {
	case ev.Dev > 0:
		c.devCount++
		for _, nd := range ev.DevScope {
			if i, ok := n.nodeIdx[nd]; ok {
				setBit(&c.devBits, i)
			}
		}
	case ev.Dev < 0:
		c.devCount--
		for _, nd := range ev.DevScope {
			if i, ok := n.nodeIdx[nd]; ok {
				clearBit(c.devBits, i)
			}
		}
	}
	c.fired++
}

// batchNode adds a node to the in-progress event batch scope.
func (n *Network) batchNode(nd Node) {
	c := &n.churn
	if c.batchAll {
		return
	}
	i, ok := n.nodeIdx[nd]
	if !ok {
		c.batchAll = true
		return
	}
	w, b := int(i>>6), uint(i&63)
	for w >= len(c.batchBits) {
		c.batchBits = append(c.batchBits, 0)
	}
	if c.batchBits[w]&(1<<b) == 0 {
		c.batchBits[w] |= 1 << b
		c.batchList = append(c.batchList, i)
	}
}

// InvalidateFlowCacheScoped is the delta-invalidation entry point routers
// call from their mutation hooks. Inside a fault-in bracket the mutation
// is swallowed entirely (see BeginFaultIn). Inside a churn batch it is
// collected into the event's eviction scope; outside one it falls back to
// the full flush, so mutations between campaigns keep their pre-churn
// semantics exactly.
func (n *Network) InvalidateFlowCacheScoped(nd Node) {
	if n.faultInDepth > 0 {
		return
	}
	if !n.churn.batching {
		n.InvalidateFlowCache()
		return
	}
	n.batchNode(nd)
}

// BeginFaultIn opens a fault-in bracket: until the matching EndFaultIn,
// router mutation hooks neither flush the flow cache nor bump topoGen.
//
// The bracket exists for lazy-fabric materialization (gen's fault-in
// stubs). Materializing a stub is purely *additive* from the cache's
// point of view: the new routers and links are clean (no loss, no rate
// limiting — purity is preserved), and the only mutations on
// already-built routers are customer routes for the stub's fresh address
// block. The fault-in hook fires before the first probe toward that
// block, so no cached trajectory, reply shape, or shared-table entry can
// reference it — there is nothing to evict, and suppressing the flush
// keeps every warm cache (and the TopoGen-keyed replica pool) intact.
// The mutating routers' local route caches are still flushed by their
// own mutation hooks, which is all the correctness the new routes need.
func (n *Network) BeginFaultIn() { n.faultInDepth++ }

// EndFaultIn closes the bracket opened by BeginFaultIn.
func (n *Network) EndFaultIn() {
	if n.faultInDepth > 0 {
		n.faultInDepth--
	}
}

// ScopeGen returns the eviction generation of the last scoped
// invalidation whose scope covered the node, or 0 if none has. Each scoped
// invalidation advances the fabric's eviction generation by one, so under
// delta-invalidation the fabric-wide TopoGen splits into these per-node
// stamps; TopoGen itself still counts whole-fabric flushes only.
func (n *Network) ScopeGen(nd Node) uint64 {
	i, ok := n.nodeIdx[nd]
	if !ok || int(i) >= len(n.scopeGen) {
		return 0
	}
	return uint64(n.scopeGen[i])
}

// evictScope evicts every cached artifact whose touched set intersects the
// scope (given as a bitmap and as its index list) or is unknown, in
// O(|scope|): it advances the eviction generation and stamps it on the
// scope's nodes, leaving flow entries and reply shapes to be retired by
// their accessors on read. What is O(1) or read by other goroutines is
// evicted here and now: the in-flight recording is poisoned, the hot
// lookup is dropped, and — when this fabric owns a shared table — the
// table's matching entries go, because subscribers read its copy-on-write
// epochs concurrently. Only a fabric whose cache is on counts the
// eviction: with the cache off there is nothing to evict, and
// FlowCacheStats stays zero. Purity is unaffected by churn (link state is
// not a purity input), so no re-scan is scheduled, and the fabric-wide
// topoGen stays put.
func (n *Network) evictScope(bits []uint64, list []int32) {
	f := &n.flows
	if f.rec.active {
		f.rec.bad = true
	}
	if n.evictGen == math.MaxUint32 {
		// The generation space is exhausted: fall back to the full flush,
		// which drops every stamped artifact, and restart the stamps.
		n.InvalidateFlowCache()
		n.evictGen = 0
		clear(n.scopeGen)
		return
	}
	n.evictGen++
	for _, i := range list {
		if int(i) >= len(n.scopeGen) {
			n.scopeGen = append(n.scopeGen, make([]uint32, int(i)+1-len(n.scopeGen))...)
		}
		n.scopeGen[i] = n.evictGen
	}
	f.hotE, f.hotOK = nil, false
	if f.enabled {
		f.stats.Invalidations++
	}
	if f.shared != nil && f.sharedOwner {
		f.shared.ScopedFlush(bits)
	}
	// A subscribed replica stays attached: the entries it published while
	// pristine remain valid for its siblings, and its local deviations are
	// retired by the stamps above.
}

// evicted reports whether a scoped eviction has retired an artifact
// stamped at gen with the given provenance: unknown provenance is retired
// by any eviction since the stamp, known provenance by one whose scope
// covered a node of touched. It reads only, so concurrent readers of an
// idle fabric may call it.
func (n *Network) evicted(gen uint32, touched []int32, touchAll bool) bool {
	if gen == n.evictGen {
		return false
	}
	if touchAll || touched == nil {
		return true
	}
	sg := n.scopeGen
	for _, i := range touched {
		if int(i) < len(sg) && sg[i] > gen {
			return true
		}
	}
	return false
}

// liveEntry is the read path for flow entries: the entry cached under key,
// or nil if there is none or a scoped eviction has retired it. A retired
// entry is deleted, from the dirty set too; a surviving one is restamped
// with the current generation, so the next read costs one comparison.
// UDP aliases share their master's entry by pointer, and with it the
// stamp.
func (n *Network) liveEntry(key FlowKey) *flowEntry {
	f := &n.flows
	e := f.entries[key]
	if e == nil || e.gen == n.evictGen {
		return e
	}
	if n.evicted(e.gen, e.touched, e.touchAll) {
		delete(f.entries, key)
		delete(f.dirty, key)
		return nil
	}
	e.gen = n.evictGen
	return e
}

// addEntry creates an empty entry under key, stamped with the current
// generation.
func (n *Network) addEntry(key FlowKey) *flowEntry {
	f := &n.flows
	if f.entries == nil {
		f.entries = make(map[FlowKey]*flowEntry)
	}
	e := &flowEntry{gen: n.evictGen}
	f.entries[key] = e
	return e
}

// liveShape is the read path for learned reply shapes, with liveEntry's
// semantics: a shape a scoped eviction has retired is deleted and
// reported absent, a surviving one restamped.
func (n *Network) liveShape(k shapeKey) (replyShape, bool) {
	f := &n.flows
	sh, ok := f.shapes[k]
	if !ok || sh.gen == n.evictGen {
		return sh, ok
	}
	if n.evicted(sh.gen, sh.touched, sh.touchAll) {
		delete(f.shapes, k)
		return replyShape{}, false
	}
	sh.gen = n.evictGen
	f.shapes[k] = sh
	return sh, true
}

// ---- touched-set primitives ----

func setBit(bits *[]uint64, i int32) {
	w := int(i >> 6)
	for w >= len(*bits) {
		*bits = append(*bits, 0)
	}
	(*bits)[w] |= 1 << uint(i&63)
}

func clearBit(bits []uint64, i int32) {
	w := int(i >> 6)
	if w < len(bits) {
		bits[w] &^= 1 << uint(i&63)
	}
}

// intersectsBits reports whether any index in touched is set in bits.
func intersectsBits(touched []int32, bits []uint64) bool {
	for _, i := range touched {
		w := int(i >> 6)
		if w < len(bits) && bits[w]&(1<<uint(i&63)) != 0 {
			return true
		}
	}
	return false
}

// sortedTouched returns a sorted copy of an unsorted (already unique)
// touch list.
func sortedTouched(tl []int32) []int32 {
	out := append([]int32(nil), tl...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// unionTouched merges two sorted unique index lists into a fresh one.
func unionTouched(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// touchedCovers reports whether the sorted set have (or haveAll) contains
// every index in tl. The steady state of a warm cache — re-recording a
// trajectory over nodes the entry already covers — passes this test and
// allocates nothing.
func touchedCovers(have []int32, haveAll bool, tl []int32) bool {
	if haveAll {
		return true
	}
	for _, v := range tl {
		lo, hi := 0, len(have)
		for lo < hi {
			mid := (lo + hi) / 2
			if have[mid] < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == len(have) || have[lo] != v {
			return false
		}
	}
	return true
}

// applyTouched folds a finished recording's touch list into the entry's
// touched set (union: a fast-forward only re-records frontier-onward, and
// the old prefix's nodes stay relevant).
func applyTouched(e *flowEntry, tl []int32, ok bool) {
	if !ok {
		e.touched, e.touchAll = nil, true
		return
	}
	if e.touchAll || touchedCovers(e.touched, false, tl) {
		return
	}
	e.touched = unionTouched(e.touched, sortedTouched(tl))
}

// adoptTouched folds a shared entry's provenance into a local entry on
// adoption.
func adoptTouched(e *flowEntry, se *sharedFlowEntry) {
	if se.touchAll || se.touched == nil {
		e.touched, e.touchAll = nil, true
		return
	}
	if e.touchAll || touchedCovers(e.touched, false, se.touched) {
		return
	}
	e.touched = unionTouched(e.touched, se.touched)
}

// taintCheck marks the entry tainted when its recording overlapped an
// open deviance window: the observation may be specific to the deviated
// topology and must never be published to a shared table. (Eviction at
// repair already removes such entries locally; the taint is the publish-
// side guarantee.)
func (n *Network) taintCheck(e *flowEntry, tlOK bool) {
	c := &n.churn
	if c.devCount == 0 {
		return
	}
	if !tlOK || e.touchAll || intersectsBits(e.touched, c.devBits) {
		e.tainted = true
	}
}
