package netsim

// This file implements the churn engine: a deterministic, seeded schedule
// of control-plane events (link failures, IGP reconvergence, LSP
// re-signalling, repairs) injected into a running campaign, plus the
// masking rule that keeps the flow cache warm across those events.
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
// # Masking
//
// Outside churn, any router mutation flushes the world
// (InvalidateFlowCache): correct, and cheap when mutations only happen
// between campaigns. Churn events instead mask. Each event brackets its
// Apply in a batch: every router that mutates reports itself through
// InvalidateFlowCacheScoped and joins the event's scope, with the nodes
// its EvictScope names. Cached state then splits in two:
//
//   - Pristine: the flow entries and reply shapes in the cache's main
//     maps, each recorded while no node of its touched set (the nodes
//     its recorded activity visited, see flowcache.go) deviated from the
//     built topology. No event ever evicts them.
//   - Window-era: entries recorded while a deviance window (fail →
//     repair) is open whose touched set crosses a masked node. They live
//     in a per-window map that the next event drops.
//
// While a window is open the mask is every node an event since the first
// window opened put in scope. A pristine artifact is served only if its
// touched set misses the mask (unknown provenance never does); a fresh
// recording that misses it is pristine too, and joins the main maps. When
// the last open window closes, the mask clears and everything it hid is
// served again without a live probe — provided every masked node lies in
// the DevScope of a window that opened since, whose repair restores it;
// otherwise the cache flushes instead. An event that mutates anything
// while no window is open flushes.
//
// The rule is exact because events fire only between probes, so a
// probe's whole drain sees one control plane, and because the schedule's
// repair restores the AS's control plane byte for byte: a node outside
// the mask behaves as built, so a drain that touched only such nodes
// observed exactly what it would have on the pristine fabric, and after
// the repair every masked node behaves as built again. The fabric-wide
// topoGen moves only on flushes, so a fabric that ends its shard
// content-pristine may be re-pooled warm.

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
	// while the window this event opens stays open: the nodes its repair
	// vouches to restore. Consulted only when Dev > 0.
	DevScope []Node
	// EvictScope lists nodes to mask even if Apply does not mutate them
	// directly (e.g. both endpoints of a failed link, which drops packets
	// without touching a FIB). Routers mutated by Apply are collected
	// automatically.
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
	// batch scope instead of flushing the world. batchAll records a
	// mutation that cannot be attributed to a known node.
	batching bool
	batchAll bool
	batch    nodeSet

	// devCount is the number of open deviance windows. While one is open,
	// mask holds every node an event put in scope and restore the DevScope
	// of every window opened; unvouched records an unattributable
	// mutation, which no repair vouches for.
	devCount  int
	mask      nodeSet
	restore   nodeSet
	unvouched bool
}

// ChurnBegin arms the engine with a schedule for the probes that follow.
// flushWorld selects the baseline invalidation strategy — every event
// flushes the world — instead of masking; it exists so the benchmark can
// measure one against the other on identical schedules. A nil schedule
// leaves the engine inert. Deviance windows belong to the fabric, not the
// schedule: one a previous schedule left open stays open, mask and all,
// since its nodes still deviate until a repair closes it.
func (n *Network) ChurnBegin(events []ChurnEvent, flushWorld bool) {
	c := &n.churn
	c.events = events
	c.next = 0
	c.tick = 0
	c.active = len(events) > 0
	c.flushWorld = flushWorld
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
func (n *Network) ChurnDeviant() bool { return n.churn.devCount > 0 }

// churnFire applies one event under the armed invalidation strategy and
// maintains the deviance windows.
func (n *Network) churnFire(ev *ChurnEvent) {
	c := &n.churn
	if ev.Dev > 0 {
		c.devCount++
		for _, nd := range ev.DevScope {
			if i, ok := n.nodeIdx[nd]; ok {
				c.restore.add(i)
			}
		}
	}
	if c.flushWorld {
		if ev.Apply != nil {
			ev.Apply()
		}
		n.InvalidateFlowCache()
	} else {
		c.batching = true
		c.batchAll = false
		c.batch.reset()
		for _, nd := range ev.EvictScope {
			n.batchNode(nd)
		}
		if ev.Apply != nil {
			ev.Apply()
		}
		c.batching = false
		n.maskBatch()
	}
	if ev.Dev < 0 && c.devCount > 0 {
		c.devCount--
		if c.devCount == 0 {
			// The last window closes: its repairs restored every node they
			// vouch for, so the mask lifts — unless it covers a node no
			// window vouched for, which only a flush can clear.
			if c.unvouched || !c.restore.covers(c.mask.list) {
				n.flush()
			}
			c.mask.reset()
			c.restore.reset()
			c.unvouched = false
		}
	}
	c.fired++
}

// maskBatch settles one event's batch: it drops the window-era map (its
// recordings saw the control plane this event just changed) and, while a
// window is open, adds the batch to the mask. An unattributable mutation,
// or any mutation with no window open, flushes instead. Only a fabric
// whose cache is on counts the event as an invalidation: with the cache
// off there is nothing to invalidate, and FlowCacheStats stays zero.
// Purity is unaffected by churn (link state is not a purity input), so no
// re-scan is scheduled.
func (n *Network) maskBatch() {
	c := &n.churn
	f := &n.flows
	clear(f.window)
	f.hotE, f.hotOK = nil, false
	if f.rec.active {
		f.rec.bad = true
	}
	if f.enabled {
		f.stats.Invalidations++
	}
	switch {
	case c.batchAll:
		n.flush()
		c.unvouched = c.devCount > 0
	case c.devCount == 0:
		if len(c.batch.list) > 0 {
			n.flush()
		}
	default:
		for _, i := range c.batch.list {
			c.mask.add(i)
		}
	}
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
	c.batch.add(i)
}

// InvalidateFlowCacheScoped is the churn-aware invalidation entry point
// routers call from their mutation hooks. Inside a fault-in bracket the
// mutation is swallowed entirely (see BeginFaultIn). Inside a churn batch
// it joins the event's scope; outside one it falls back to the full
// flush, so mutations between campaigns keep their pre-churn semantics
// exactly.
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
// point of view: the new routers are clean (no rate limiting — purity is
// preserved), and the only mutations on
// already-built routers are customer routes for the stub's fresh address
// block. The fault-in hook fires before the first probe toward that
// block, so no cached trajectory or reply shape can reference it — there
// is nothing to invalidate, and suppressing the flush keeps every warm
// cache (and the TopoGen-keyed replica pool) intact. The mutating
// routers' local route caches are still flushed by their own mutation
// hooks, which is all the correctness the new routes need.
func (n *Network) BeginFaultIn() { n.faultInDepth++ }

// EndFaultIn closes the bracket opened by BeginFaultIn.
func (n *Network) EndFaultIn() {
	if n.faultInDepth > 0 {
		n.faultInDepth--
	}
}

// masking reports whether a deviance window has masked any node, which
// routes the flow cache through its window-era paths.
func (c *churnState) masking() bool { return len(c.mask.list) > 0 }

// masked reports whether a pristine artifact with this provenance must not
// be served now: the mask is up and the artifact touched a masked node, or
// its provenance is unknown.
func (n *Network) masked(touched []int32, touchAll bool) bool {
	c := &n.churn
	if !c.masking() {
		return false
	}
	return touchAll || touched == nil || c.mask.meets(touched)
}

// ---- touched-set primitives ----

// nodeSet is a set of fabric node indices: a bitmap for membership plus
// the insertion-order list that makes clearing O(|set|).
type nodeSet struct {
	bits []uint64
	list []int32
}

func (s *nodeSet) add(i int32) {
	w, b := int(i>>6), uint(i&63)
	for w >= len(s.bits) {
		s.bits = append(s.bits, 0)
	}
	if s.bits[w]&(1<<b) == 0 {
		s.bits[w] |= 1 << b
		s.list = append(s.list, i)
	}
}

func (s *nodeSet) has(i int32) bool {
	w := int(i >> 6)
	return w < len(s.bits) && s.bits[w]&(1<<uint(i&63)) != 0
}

// meets reports whether any index in touched is in the set.
func (s *nodeSet) meets(touched []int32) bool {
	for _, i := range touched {
		if s.has(i) {
			return true
		}
	}
	return false
}

// covers reports whether every index in list is in the set.
func (s *nodeSet) covers(list []int32) bool {
	for _, i := range list {
		if !s.has(i) {
			return false
		}
	}
	return true
}

func (s *nodeSet) reset() {
	for _, i := range s.list {
		s.bits[int(i>>6)] &^= 1 << uint(i&63)
	}
	s.list = s.list[:0]
}

// union appends to list every index of add it lacks, marking through s,
// which must be empty and is left empty. Touched lists are unsorted and
// repeat-free, and they only grow, by appending, so a capacity-clipped
// view of a list's prefix (windowEntry) never sees a later append.
func (s *nodeSet) union(list, add []int32) []int32 {
	for _, i := range list {
		s.add(i)
	}
	for _, i := range add {
		if !s.has(i) {
			s.add(i)
			list = append(list, i)
		}
	}
	s.reset()
	return list
}

// holds reports whether list contains every index of sub, marking
// through s, which must be empty and is left empty.
func (s *nodeSet) holds(list, sub []int32) bool {
	for _, i := range list {
		s.add(i)
	}
	ok := s.covers(sub)
	s.reset()
	return ok
}

// fold merges an artifact's provenance — a finished drain's touch list,
// another entry's or a reply shape's touched set, or unknown — into the
// entry's touched set. A fast-forward re-records only frontier-onward, so
// what earlier recordings touched stays relevant: the set only grows.
func (f *FlowCache) fold(e *flowEntry, touched []int32, touchAll bool) {
	switch {
	case touchAll:
		e.touched, e.touchAll = nil, true
	case !e.touchAll:
		e.touched = f.marks.union(e.touched, touched)
	}
}
