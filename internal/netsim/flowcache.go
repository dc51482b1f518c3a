package netsim

import (
	"math/bits"
	"slices"
	"time"

	"wormhole/internal/netaddr"
	"wormhole/internal/packet"
)

// This file implements the fabric's flow-trajectory cache. Forwarding in
// the simulated data plane is a pure function of the flow key (src, dst,
// protocol, transport flow fields) while the control plane is static, so
// the first probe on a flow records its trajectory — the ordered
// (ingress iface, arrival offset, packet-header snapshot) steps — and
// later probes either replay a memoized (flow, TTL) → reply observation in
// O(1) or fast-forward to the recorded frontier and resume live simulation
// there, turning an L-hop traceroute from O(L²) into O(L) router visits.
//
// Correctness rests on three pillars:
//
//   - Purity. The cache only engages when every node is deterministic
//     (hosts, or routers reporting FlowCacheable); down links are fine
//     (they drop deterministically). A Trace hook also disables it, since
//     tracing must observe every delivery.
//
//   - TTL lineage. Every TTL field in flight is either an affine function
//     of the probe's initial TTL (propagated) or a constant seeded from
//     255 / an OS personality value. Routers label each field via
//     packet.Lineage, so a recorded snapshot can be patched for a probe
//     with a different initial TTL by adding the delta to propagated
//     fields only. Branches that compare a propagated against a constant
//     TTL (min-on-pop and RFC 3443 propagation) are the one place where a
//     larger initial TTL could diverge from the recording; routers report
//     them through NoteTTLMin, which turns each comparison into an
//     absolute upper bound on the initial TTLs the trajectory stays valid
//     for. Monotone checks (expiry, >0 guards) need no bound: a larger
//     initial TTL only raises propagated values, so a check that passed
//     during recording passes for every fast-forwarded probe.
//
//   - Invalidation. Any control-plane mutation (FIB/LFIB/bindings/OS
//     personality) flushes the cache through InvalidateFlowCache — the
//     same hooks that flush the per-router route caches — and poisons an
//     in-flight recording, so a mutation mid-drain can never leak a stale
//     step into the cache. Inside a churn event the flush narrows to a
//     mask (churn.go): pristine state stays cached, and while a deviance
//     window is open every read and recording takes the window-era paths
//     here (windowLookup, windowEntry, keepPristine).
//
// Timing is exact, not approximate: step offsets are virtual-time deltas
// from injection, link delays are TTL-independent, and a memoized reply
// advances the clock by precisely the drain time the live run consumed,
// so RTTs, virtual-elapsed accounting, and Sent/Recv counters are
// byte-identical with the uncached path.

// FlowCacheable gates the flow cache on node determinism: a node that is
// not a Host must implement it and return true for the cache to engage.
// Routers return false when rate-limited ICMP generation makes their
// replies time-dependent.
type FlowCacheable interface {
	FlowCacheable() bool
}

// FlowKey identifies a forwarding equivalence class: all packets sharing
// it follow the same trajectory. A and B carry the transport flow fields
// the routers hash (ICMP: identifier, 0; UDP: source port, destination
// port).
type FlowKey struct {
	Src, Dst netaddr.Addr
	Proto    packet.Protocol
	A, B     uint16
}

// ProbeObs is a memoized probe outcome: everything the prober derives
// from a reply (or its absence), plus the virtual time the drain consumed
// so a replay advances the clock exactly as the live run did. The MPLS
// stack aliases the adopted reply's RFC 4950 extension stack and is
// shared read-only by every replay.
type ProbeObs struct {
	Answered bool
	From     netaddr.Addr
	ReplyTTL uint8
	ICMPType uint8
	ICMPCode uint8
	MPLS     packet.LabelStack
	Advance  time.Duration
}

// FlowCacheStats counts cache outcomes. Hits are memoized replies served
// without touching the event loop; FastForwards are probes resumed at a
// recorded frontier (ICMP Paris's cold path: past a trace's first probe,
// each cold probe resumes where the previous one expired); Misses ran
// fully live (and recorded).
type FlowCacheStats struct {
	Hits         uint64
	Misses       uint64
	FastForwards uint64
	// Invalidations counts control-plane mutations that flushed the
	// cache, plus one per churn event, whether it masked or flushed.
	Invalidations uint64
}

// Sub returns the per-field difference s − o (campaign phase deltas).
func (s FlowCacheStats) Sub(o FlowCacheStats) FlowCacheStats {
	return FlowCacheStats{
		Hits:          s.Hits - o.Hits,
		Misses:        s.Misses - o.Misses,
		FastForwards:  s.FastForwards - o.FastForwards,
		Invalidations: s.Invalidations - o.Invalidations,
	}
}

// Add accumulates o into s field by field (shard merges).
func (s *FlowCacheStats) Add(o FlowCacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.FastForwards += o.FastForwards
	s.Invalidations += o.Invalidations
}

// trajStep is one recorded delivery of the (marked) forward packet: the
// ingress interface, the virtual-time offset from injection, and the
// packet headers as delivered, with their TTL lineage.
type trajStep struct {
	to      *Iface
	offset  time.Duration
	ip      packet.IPv4
	mpls    packet.LabelStack
	lineage uint32
}

// flowEntry holds one flow's state: the frontier of the most recent live
// (or resumed) probe — the last delivery of its marked packet, where the
// t0 probe expired or was answered, normalized to t0 — plus the per-TTL
// reply memo. maxTTL is the largest initial TTL the recorded trajectory
// is proven valid for (accumulated from NoteTTLMin bounds). A recording
// keeps the frontier alone, the one step the fast-forward rebuilds.
type flowEntry struct {
	t0     uint8
	maxTTL uint8
	steps  []trajStep

	// valid is a 256-bit presence set over probe TTLs. replies is dense:
	// one reply per memoized TTL, in TTL order, at the TTL's rank in valid.
	valid   [4]uint64
	replies []ProbeObs

	// touched lists, unsorted and without repeats, the fabric node
	// indices this entry's recorded activity — forward trajectories and
	// reply paths alike — has ever visited. It only grows, by appending.
	// While a churn deviance window is open (churn.go) a pristine entry is
	// served only if this set misses the mask; nil with touchAll unset
	// means unknown provenance, which never does.
	touched  []int32
	touchAll bool
}

// flowRec is the in-flight recording state for the probe currently being
// drained. bad poisons the recording (budget exhaustion or a mid-drain
// invalidation); a poisoned probe is neither recorded nor memoized.
type flowRec struct {
	active bool
	bad    bool
	entry  *flowEntry
	key    FlowKey
	start  time.Duration
}

// FlowCache is the per-fabric cache state, embedded by value in Network
// so snapshot replicas start with it disabled and empty.
type FlowCache struct {
	enabled  bool
	pure     bool
	needScan bool
	// entries holds the pristine flow entries; window holds the ones
	// recorded over a masked node while a deviance window is open
	// (churn.go), valid until the next event drops the map.
	entries map[FlowKey]*flowEntry
	window  map[FlowKey]*flowEntry
	stats   FlowCacheStats
	rec     flowRec

	// hotKey/hotE memoize the last FlowLookup so the FlowProbe that
	// follows a miss reuses the entry without re-hashing the key. hotE may
	// be nil (flow never seen); hotOK distinguishes that from "no lookup
	// cached". Cleared on invalidation.
	hotKey FlowKey
	hotE   *flowEntry
	hotOK  bool

	// touch is the touch scratch for the recording in flight: the set of
	// node indices the drain has delivered to. tAll flags a delivery that
	// could not be attributed to a registered node, degrading the
	// recording's provenance to "unknown". marks is the empty bitmap that
	// touched-set merges and cover checks mark through.
	touch nodeSet
	tAll  bool
	marks nodeSet
}

// SetFlowCacheEnabled turns the flow-trajectory cache on or off. Enabling
// schedules a purity scan (performed lazily on the next probe); disabling
// drops all cached state.
func (n *Network) SetFlowCacheEnabled(on bool) {
	f := &n.flows
	f.enabled = on
	f.needScan = on
	if !on {
		f.entries = nil
		f.window = nil
		f.rec = flowRec{}
		f.hotE, f.hotOK = nil, false
	}
}

// FlowCacheStats returns the cache counters.
func (n *Network) FlowCacheStats() FlowCacheStats { return n.flows.stats }

// InvalidateFlowCache flushes every memoized trajectory and reply, poisons
// any in-flight recording, and schedules a purity re-scan.
// Routers call it from the same mutation hooks that flush their route
// caches. It also advances the fabric's topology generation.
func (n *Network) InvalidateFlowCache() {
	n.flush()
	if n.flows.enabled {
		n.flows.stats.Invalidations++
	}
}

// flush is InvalidateFlowCache without the count, for churn events, which
// count once whether they mask or flush. An open deviance window keeps
// its mask: recordings made after the flush may still cross nodes the
// window's repair has yet to restore.
func (n *Network) flush() {
	n.topoGen++
	f := &n.flows
	if !f.enabled {
		return
	}
	f.entries = nil
	f.window = nil
	f.hotE, f.hotOK = nil, false
	f.needScan = true
	if f.rec.active {
		f.rec.bad = true
	}
}

// TopoGen returns the fabric's control-plane mutation counter. Two reads
// returning the same value bracket a window with no topology mutations.
func (n *Network) TopoGen() uint64 { return n.topoGen }

// flowActive reports whether the cache may serve or record this probe,
// running the deferred purity scan if one is pending.
func (n *Network) flowActive() bool {
	f := &n.flows
	if !f.enabled || n.Trace != nil {
		return false
	}
	if f.needScan {
		f.pure = n.flowPure()
		f.needScan = false
	}
	return f.pure
}

// flowPure verifies the fabric is deterministic per flow key: every node
// either a Host or a node that reports itself cacheable.
func (n *Network) flowPure() bool {
	for _, nd := range n.nodes {
		if _, ok := nd.(*Host); ok {
			continue
		}
		fc, ok := nd.(FlowCacheable)
		if !ok || !fc.FlowCacheable() {
			return false
		}
	}
	return true
}

// FlowLookup serves a memoized reply for (key, ttl) if one exists. On a
// hit the caller replays it: advance the clock by obs.Advance and account
// the probe exactly as the live path would.
func (n *Network) FlowLookup(key FlowKey, ttl uint8) (ProbeObs, bool) {
	if !n.flowActive() {
		return ProbeObs{}, false
	}
	f := &n.flows
	if n.churn.masking() {
		return n.windowLookup(key, ttl)
	}
	e := f.entries[key]
	f.hotKey, f.hotE, f.hotOK = key, e, true
	if e == nil || !e.has(ttl) {
		f.stats.Misses++
		return ProbeObs{}, false
	}
	f.stats.Hits++
	return e.reply(ttl), true
}

// windowLookup is FlowLookup while a deviance window has masked nodes:
// the flow's window-era entry answers first, then its pristine entry if
// the entry's touched set misses the mask.
func (n *Network) windowLookup(key FlowKey, ttl uint8) (ProbeObs, bool) {
	f := &n.flows
	e := f.window[key]
	if e == nil || !e.has(ttl) {
		e = f.entries[key]
		if e == nil || !e.has(ttl) || n.masked(e.touched, e.touchAll) {
			f.stats.Misses++
			return ProbeObs{}, false
		}
	}
	f.stats.Hits++
	return e.reply(ttl), true
}

// has reports whether the entry memoizes a reply for ttl.
func (e *flowEntry) has(ttl uint8) bool { return e.valid[ttl>>6]&(1<<(ttl&63)) != 0 }

// rank returns where ttl's reply sits in the dense memo: the number of
// memoized TTLs below it.
func (e *flowEntry) rank(ttl uint8) int {
	w := int(ttl >> 6)
	r := bits.OnesCount64(e.valid[w] & (1<<(ttl&63) - 1))
	for _, v := range e.valid[:w] {
		r += bits.OnesCount64(v)
	}
	return r
}

// reply returns the memoized reply for ttl, which must be present.
func (e *flowEntry) reply(ttl uint8) ProbeObs { return e.replies[e.rank(ttl)] }

// AdvanceClock moves virtual time forward by d: the memo-replay
// counterpart of the drain a live probe would have performed.
func (n *Network) AdvanceClock(d time.Duration) { n.clock += d }

// FlowProbe injects a marked probe through the cache: when the flow has a
// recorded trajectory valid for this initial TTL, the probe fast-forwards
// to the frontier and resumes live simulation there; otherwise it runs
// fully live. Either way the trajectory is (re)recorded and the caller
// must complete the probe with FlowFinish. Returns the virtual time
// consumed, exactly as Inject would. The packet must be unlabeled with
// IP.TTL == ttl, as built by the prober.
func (n *Network) FlowProbe(out *Iface, pkt *packet.Packet, key FlowKey, ttl uint8) time.Duration {
	if !n.flowActive() {
		return n.Inject(out, pkt)
	}
	f := &n.flows
	var e *flowEntry
	switch {
	case n.churn.masking():
		e = n.windowEntry(key)
	case f.hotOK && f.hotKey == key:
		e = f.hotE
	default:
		e = f.entries[key]
	}
	if e == nil {
		e = f.putEntry(key, &flowEntry{})
	}
	start := n.clock
	pkt.Mark = 1
	if len(e.steps) > 0 && ttl > e.t0 && ttl <= e.maxTTL {
		// Fast-forward: reconstruct the packet as it was delivered at the
		// frontier, patched for this probe's larger initial TTL, carrying
		// the current probe's transport layer and IP identifier (constant
		// along the path, and the source of the reply-match token).
		f.stats.FastForwards++
		fr := &e.steps[len(e.steps)-1]
		delta := ttl - e.t0
		id := pkt.IP.ID
		pkt.IP = fr.ip
		pkt.IP.ID = id
		pkt.Lineage = fr.lineage
		if pkt.LineageIP() {
			pkt.IP.TTL += delta
		}
		if len(fr.mpls) > 0 {
			// A plain copy, not pooled storage: the probe packet is the
			// prober's (never pool-released), so a pooled stack would leak
			// out of the free list.
			pkt.MPLS = append(pkt.MPLS[:0], fr.mpls...)
			for i := range pkt.MPLS {
				if pkt.Lineage&(1<<uint(i)) != 0 {
					pkt.MPLS[i].TTL += delta
				}
			}
		}
		// The resumed run re-records the frontier in place, rebased to this
		// probe's t0; offsets stay measured from injection, since link
		// delays are TTL-independent.
		e.steps = e.steps[:0]
		e.t0 = ttl
		f.rec = flowRec{active: true, entry: e, key: key, start: start}
		n.touchRemote(out)
		n.seq++
		n.queue.push(event{at: start + fr.offset, seq: n.seq, to: fr.to, pkt: pkt})
		n.Run()
		return n.clock - start
	}
	// Full live run, recorded from scratch. (The miss was already counted
	// by the FlowLookup that preceded this call.)
	e.steps = e.steps[:0]
	e.t0 = ttl
	e.maxTTL = 255
	pkt.SetLineageIP(true)
	f.rec = flowRec{active: true, entry: e, key: key, start: start}
	n.touchRemote(out)
	return n.Inject(out, pkt)
}

// FlowFinish completes the probe begun by FlowProbe, memoizing its
// outcome for (the recording's) TTL unless the recording was poisoned by
// a budget-exhausted drain or a mid-drain invalidation.
func (n *Network) FlowFinish(ttl uint8, obs ProbeObs) {
	f := &n.flows
	rec := f.rec
	if !rec.active {
		return
	}
	e := rec.entry
	f.rec = flowRec{}
	if rec.bad {
		// Poisoned: the steps may reflect pre-mutation state (or a loop hit
		// the budget); discard so every later probe re-runs live.
		f.touchReset()
		e.steps = e.steps[:0]
		return
	}
	tl, tlOK := f.takeTouched()
	f.fold(e, tl, !tlOK)
	memoize(e, ttl, obs)
	if n.churn.masking() {
		n.keepPristine(rec.key, e, ttl, obs)
	}
	f.touchReset()
}

// putEntry files e as the flow's pristine entry.
func (f *FlowCache) putEntry(key FlowKey, e *flowEntry) *flowEntry {
	if f.entries == nil {
		f.entries = make(map[FlowKey]*flowEntry)
	}
	f.entries[key] = e
	return e
}

// windowEntry returns the entry a probe records into while a deviance
// window has masked nodes: the flow's window-era entry, else a fresh one,
// seeded with the frontier of the flow's pristine entry when that entry
// may be served, so the probe can still fast-forward. A pristine entry is
// never written mid-window — a recording may yet cross a masked node.
func (n *Network) windowEntry(key FlowKey) *flowEntry {
	f := &n.flows
	if e := f.window[key]; e != nil {
		return e
	}
	e := &flowEntry{}
	if p := f.entries[key]; p != nil && len(p.steps) > 0 && !n.masked(p.touched, p.touchAll) {
		fr := p.steps[len(p.steps)-1]
		fr.mpls = append(packet.LabelStack(nil), fr.mpls...)
		e.steps = append(e.steps, fr)
		e.t0, e.maxTTL = p.t0, p.maxTTL
		// The pristine provenance, shared: touched sets only grow by
		// appending, and the clipped capacity sends this entry's first
		// append to a fresh array instead of the pristine one's spare room.
		e.touched = p.touched[:len(p.touched):len(p.touched)]
	}
	if f.window == nil {
		f.window = make(map[FlowKey]*flowEntry)
	}
	f.window[key] = e
	return e
}

// keepPristine files a recording finished while a deviance window has
// masked nodes. One whose entry crossed a masked node stays window-era,
// for the next event to drop. Any other saw only nodes that behave as
// built, so its observation is pristine: it joins the flow's pristine
// entry, or on first contact the whole window entry becomes that entry.
func (n *Network) keepPristine(key FlowKey, e *flowEntry, ttl uint8, obs ProbeObs) {
	if n.masked(e.touched, e.touchAll) {
		return
	}
	f := &n.flows
	p := f.entries[key]
	if p == nil {
		f.putEntry(key, e)
		delete(f.window, key)
		return
	}
	f.fold(p, e.touched, false)
	memoize(p, ttl, obs)
}

// memoize stores obs as the (entry, ttl) reply, overwriting one already
// there.
func memoize(e *flowEntry, ttl uint8, obs ProbeObs) {
	w, b := ttl>>6, uint64(1)<<(ttl&63)
	i := e.rank(ttl)
	if e.valid[w]&b != 0 {
		e.replies[i] = obs
		return
	}
	e.valid[w] |= b
	e.replies = slices.Insert(e.replies, i, obs)
}

// record captures one delivery of the marked forward packet, reusing the
// step slot (and its label-stack capacity) left by previous recordings so
// steady-state recording allocates nothing. Each delivery overwrites the
// last: the frontier is the only step read back.
func (f *FlowCache) record(to *Iface, at time.Duration, pkt *packet.Packet) {
	e := f.rec.entry
	if cap(e.steps) > 0 {
		e.steps = e.steps[:1]
	} else {
		e.steps = append(e.steps, trajStep{})
	}
	st := &e.steps[0]
	st.to = to
	st.offset = at - f.rec.start
	st.ip = pkt.IP
	st.lineage = pkt.Lineage
	st.mpls = append(st.mpls[:0], pkt.MPLS...)
}

// touchDelivery records that the drain being recorded delivered to this
// interface's owner. The union over a drain is the probe's touched set:
// the nodes whose state could have influenced its outcome (on a pure
// fabric, a node never delivered to cannot have).
func (n *Network) touchDelivery(to *Iface) {
	f := &n.flows
	if f.tAll {
		return
	}
	idx := to.ownerIdx
	if idx == 0 {
		i, ok := n.nodeIdx[to.Owner]
		if !ok {
			f.tAll = true
			return
		}
		idx = i + 1
		to.ownerIdx = idx
	}
	f.touch.add(idx - 1)
}

// touchRemote seeds the touch scratch with the first hop a probe is
// injected toward, so even a probe whose packet dies on the wire (down
// link) leaves a non-empty — and therefore maskable — provenance.
func (n *Network) touchRemote(out *Iface) {
	if out == nil || out.Link == nil {
		return
	}
	n.touchDelivery(out.Link.other(out))
}

// takeTouched returns the recording's touch scratch as a borrowed,
// unsorted view; ok is false when some delivery could not be attributed.
// Callers copy what they keep and then call touchReset.
func (f *FlowCache) takeTouched() ([]int32, bool) {
	return f.touch.list, !f.tAll
}

// touchReset clears the touch scratch for the next recording.
func (f *FlowCache) touchReset() {
	f.touch.reset()
	f.tAll = false
}

// NoteTTLMin bounds the current recording's validity across a min(a, b)
// comparison of TTLs with the given lineages. Mixed comparisons are the
// only sites where a larger initial TTL can flip a branch the recording
// took: a propagated value grows one-for-one with the initial TTL while a
// constant stays put, so each comparison yields an absolute upper bound
// on initial TTLs for which the recorded branch (and therefore the
// trajectory) remains valid. Same-lineage comparisons and monotone checks
// are unaffected and need no call.
func (n *Network) NoteTTLMin(a, b uint8, aProp, bProp bool) {
	f := &n.flows
	if !f.rec.active {
		return
	}
	t0 := int(f.rec.entry.t0)
	switch {
	case aProp && !bProp && a < b:
		// a (propagated) won; it keeps winning upward while t0+Δ+(a-t0) < b.
		// Downward it only shrinks further, so no floor.
		noteMaxT(f, t0+int(b)-int(a)-1)
	case bProp && !aProp && a >= b:
		// b (propagated) won; it keeps winning upward while its grown value
		// ≤ a. Downward it only shrinks further, so no floor.
		noteMaxT(f, t0+int(a)-int(b))
	}
	// A constant winner stays the winner as the initial TTL grows: upward
	// is monotone-safe, and the fast-forward never replays downward.
}

// noteMaxT tightens the recording's upper validity bound (frontier
// fast-forward to larger initial TTLs).
func noteMaxT(f *FlowCache, maxT int) {
	if maxT > 255 {
		return
	}
	if maxT < 0 {
		maxT = 0
	}
	if uint8(maxT) < f.rec.entry.maxTTL {
		f.rec.entry.maxTTL = uint8(maxT)
	}
}
