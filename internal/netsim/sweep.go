package netsim

import (
	"slices"
	"time"

	"wormhole/internal/netaddr"
	"wormhole/internal/packet"
)

// This file implements the single-injection TTL sweep for UDP Paris
// port-cycle slots. A UDP trace cycles its destination port per probe, so
// its probes are distinct flows and the flow cache's frontier
// fast-forward (flowcache.go) — which serves ICMP Paris, whose constant
// flow identifier keeps one flow per trace — finds nothing to extend. But
// on a pure fabric all probes of one slot traverse the same trajectory,
// so one walk at TTL=MaxTTL records everything the slot needs:
//
//   - Walk. SweepWalk injects a single marked probe at the trace's
//     MaxTTL and records every delivery — interface, arrival offset,
//     headers, TTL lineage — through the same machinery the flow cache
//     uses, plus the NoteTTLMin *floor* each snapshot is valid down to.
//
//   - Derivation. deriveSlot scans the recorded trajectory for a smaller
//     TTL, patching propagated TTL fields down by the delta (the affine
//     model of packet.Lineage, run in reverse). The scan finds where that
//     probe expires: the first step whose patched top LSE TTL reaches 1,
//     or whose patched IP TTL reaches 1 at a plain-IP transit router. A
//     probe that passes every step follows the walk to its terminal and
//     inherits the walk's observation.
//
//   - Reply shapes. What a time-exceeded looks like from a given expiry
//     context — replying address, return TTL, whether RFC 4950 labels
//     are attached, and the virtual time the reply takes to come home —
//     is a pure function of (ingress iface, label stack, vantage point,
//     destination, flow id, branch class): the quote varies per probe
//     but nothing on the return path reads it beyond the flow hash.
//     NoteExpiry (hooked into the router's reply generators) captures
//     that context on every live expiry of a swept slot; once the shape
//     is known, a derived TTL's reply is composed arithmetically — no
//     event simulation at all — with its RFC 4950 stack rebuilt from the
//     recorded snapshot patched by lineage.
//
// TTLs whose expiry is ambiguous (a mid-processing expiry, a NoteTTLMin
// floor violation, or a shape not yet learned) fall back to live
// simulation — resumed at the step *before* the scan's expiry point when
// the prefix is trusted, so even the fallback is O(1) in path length.
// Conservatism rule: the scan only composes when the expiry provably
// happens on arrival (patched top == 1, or patched IP == 1 outside a
// tunnel); anything else runs live, and the live run teaches the shape
// table for next time.
//
// The sweep lives inside the flow cache: it engages only while the cache
// is active (same purity rules, same mutation hooks), stores walks as
// ordinary cache entries, and is independently switchable off. With the
// cache off no probe sweeps, so a cache-off fabric is the per-probe
// oracle for both probe methods.

// SweepCounters counts sweep-engine outcomes.
type SweepCounters struct {
	// Walks counts full-TTL sweep walks injected.
	Walks uint64
	// Replies counts per-TTL observations synthesized from a walk without
	// any event-loop simulation (terminal inheritances and composed
	// expiries).
	Replies uint64
	// Fallbacks counts probes that ran live although their flow had a
	// swept trajectory (ambiguous expiry, unlearned reply shape, floor
	// violation), plus walks poisoned mid-drain.
	Fallbacks uint64
	// Bypasses counts traces whose walk was skipped by the adaptive
	// yield heuristic: a learned reach hint said the trace would derive
	// too few replies to pay for the walk, so it ran per-probe.
	Bypasses uint64
	// Aliases counts flow keys served by pointer from another slot's
	// master walk after branch validation (UDP port-cycle slots whose
	// flow hash reproduces every ECMP decision the walk recorded).
	Aliases uint64
}

// SweepStats holds the sweep counters by probe modality. Only UDP Paris
// walks — one trajectory per (flow, destination, port-cycle slot class),
// aliasing the slots that share a branch class — so UDP is the only
// modality; ICMP Paris's cold path is the flow cache's fast-forward,
// counted in FlowCacheStats.FastForwards.
type SweepStats struct {
	UDP SweepCounters
}

// Total folds the modalities into one counter set.
func (s SweepStats) Total() SweepCounters { return s.UDP }

// Sub returns the per-field difference s − o (campaign phase deltas).
func (s SweepStats) Sub(o SweepStats) SweepStats {
	return SweepStats{UDP: s.UDP.sub(o.UDP)}
}

// Add accumulates o into s field by field (shard merges).
func (s *SweepStats) Add(o SweepStats) {
	s.UDP.add(o.UDP)
}

func (c SweepCounters) sub(o SweepCounters) SweepCounters {
	return SweepCounters{
		Walks:     c.Walks - o.Walks,
		Replies:   c.Replies - o.Replies,
		Fallbacks: c.Fallbacks - o.Fallbacks,
		Bypasses:  c.Bypasses - o.Bypasses,
		Aliases:   c.Aliases - o.Aliases,
	}
}

func (c *SweepCounters) add(o SweepCounters) {
	c.Walks += o.Walks
	c.Replies += o.Replies
	c.Fallbacks += o.Fallbacks
	c.Bypasses += o.Bypasses
	c.Aliases += o.Aliases
}

// shapeKey identifies a reply-synthesis context: the interface the probe
// expired on, the label stack it carried (labels only — TTLs are the
// probe-varying part), and the flow fields the reply's trip home can
// observe. The probe's destination is part of the key even though the
// reply never travels there: an expiring LSR forwards its time-exceeded
// by the *probe's* LFIB entry, picking among ECMP next-hops by the
// probe's flow hash — which covers the destination — so two flows
// expiring at the same (iface, stack) can ride different LSP branches.
// Stacks deeper than the inline array are not memoized.
//
// id is the UDP source port (the Paris flow identifier) and port the slot
// component: the probe's cycling destination port changes the flow hash,
// so two slots expiring at the same (iface, stack) can ride different LSP
// branches home — the shape is only a pure function of the context once
// the slot is in the key. Raw ports would fragment learning across the
// 128-port cycle, so the key holds the flow's *canonical* branch-class
// port (flowEntry.port): every slot whose hash reproduces the walk's
// recorded ECMP decisions shares the trajectory, the reply ride, and
// therefore the shape.
type shapeKey struct {
	in     *Iface
	vp     netaddr.Addr
	dst    netaddr.Addr
	id     uint16
	port   uint16
	depth  uint8
	labels [4]uint32
}

// replyShape is everything needed to compose the observation of an
// expiry at a known context: the reply's identity fields and the virtual
// time from expiry to the drain going idle (zero for suppressed
// replies), plus the provenance of the probe that taught it — a composed
// reply's validity depends on the reply path's routers, which the
// forward trajectory alone does not cover.
type replyShape struct {
	shapeObs
	touched  []int32
	touchAll bool
}

// shapeObs is the comparable core of a replyShape; two probes expiring
// at the same context on a pure fabric always produce the same one.
type shapeObs struct {
	answered bool
	from     netaddr.Addr
	replyTTL uint8
	icmpType uint8
	icmpCode uint8
	hasMPLS  bool
	retDelay time.Duration
}

// SetSweepEnabled turns the single-injection TTL sweep on or off. The
// sweep engages only while the flow cache is active too. Disabling drops
// every learned reply shape, the reach hints, and the master-walk index.
func (n *Network) SetSweepEnabled(on bool) {
	f := &n.flows
	f.sweepEnabled = on
	if !on {
		f.resetSweep()
	}
}

// resetSweep drops the sweep engine's derived state: learned reply
// shapes, reach hints, the master-walk index and the in-flight walk's
// branch scratch.
func (f *FlowCache) resetSweep() {
	f.shapes = nil
	f.hints = nil
	f.masters = nil
	f.recBranches = f.recBranches[:0]
}

// SweepStats returns the sweep counters.
func (n *Network) SweepStats() SweepStats { return n.flows.sweep }

// sweepActive reports whether the sweep may engage: only where the flow
// cache itself may serve and record.
func (n *Network) sweepActive() bool {
	return n.flows.sweepEnabled && n.flowActive()
}

// NoteExpiry captures the context of a marked UDP probe's TTL expiry, at
// the entry of the router's reply generators (before any suppression
// decision — the resulting observation, answered or not, is the shape).
// Routers call it for both IP and LSE expiries; ICMP recordings teach the
// sweep engine nothing and are filtered out here.
func (n *Network) NoteExpiry(in *Iface, pkt *packet.Packet) {
	f := &n.flows
	if !f.sweepEnabled || !f.rec.active || f.rec.expSeen || pkt.Mark == 0 || f.rec.key.Proto != packet.ProtoUDP {
		return
	}
	f.rec.expSeen = true
	f.rec.expOff = n.clock - f.rec.start
	key, ok := shapeKeyOf(in, pkt)
	if !ok {
		f.rec.expDeep = true
		return
	}
	f.rec.expKey = key
}

// NoteLocalDelivery records that a marked probe was consumed locally by a
// router (which answers before any IP TTL check): the walk's terminal is
// then exempt from the scan's transit expiry rule.
func (n *Network) NoteLocalDelivery(pkt *packet.Packet) {
	f := &n.flows
	if !f.rec.active || pkt.Mark == 0 {
		return
	}
	f.rec.localSeen = true
}

// shapeKeyOf builds the synthesis-context key for the marked probe of a
// UDP recording about to expire, leaving the canonical port to
// learnShape. ok is false for stacks too deep to memoize inline.
func shapeKeyOf(in *Iface, pkt *packet.Packet) (shapeKey, bool) {
	k := shapeKey{in: in, vp: pkt.IP.Src, dst: pkt.IP.Dst, id: pkt.UDP.SrcPort, depth: uint8(len(pkt.MPLS))}
	if len(pkt.MPLS) > len(k.labels) {
		return shapeKey{}, false
	}
	for i, lse := range pkt.MPLS {
		k.labels[i] = lse.Label
	}
	return k, true
}

// shapeKeyAt rebuilds the synthesis-context key from a recorded step and
// the flow it belongs to. The transport id is the flow key's A field, the
// UDP source port shapeKeyOf read from the live packet. port is the
// owning entry's canonical branch-class port, matching the patch
// learnShape applies on the learning side.
func shapeKeyAt(st *trajStep, key FlowKey, port uint16) (shapeKey, bool) {
	k := shapeKey{in: st.to, vp: key.Src, dst: key.Dst, id: key.A, port: port, depth: uint8(len(st.mpls))}
	if len(st.mpls) > len(k.labels) {
		return shapeKey{}, false
	}
	for i, lse := range st.mpls {
		k.labels[i] = lse.Label
	}
	return k, true
}

// learnShape stores the reply shape of the expiry captured during the
// finished recording, if any, stamped with the recording's touched set
// (tl is the borrowed scratch view; the copy taken here is the shape's
// own). Re-learning a shape whose observation and provenance are already
// covered is a no-op, keeping the steady state allocation-free.
//
// Shapes are keyed on the canonical branch-class port, which only exists
// once the flow has a completed master walk: the walk itself and its
// resumed fallback probes learn, plain recordings (bypassed traces, ICMP
// probes, every probe recorded while a churn window masks nodes) do not.
// shapeKeyOf left the port zero. Every shape is therefore pristine.
func (n *Network) learnShape(rec *flowRec, obs ProbeObs, tl []int32, tlOK bool) {
	f := &n.flows
	e := rec.entry
	if !f.sweepEnabled || !rec.expSeen || rec.expDeep || e == nil || !e.swept {
		return
	}
	rec.expKey.port = e.port
	so := shapeObs{
		answered: obs.Answered,
		from:     obs.From,
		replyTTL: obs.ReplyTTL,
		icmpType: obs.ICMPType,
		icmpCode: obs.ICMPCode,
		hasMPLS:  len(obs.MPLS) > 0,
		retDelay: obs.Advance - rec.expOff,
	}
	if prev, ok := f.shapes[rec.expKey]; ok && prev.shapeObs == so &&
		(prev.touchAll || tlOK && f.marks.holds(prev.touched, tl)) {
		return
	}
	if f.shapes == nil {
		f.shapes = make(map[shapeKey]replyShape)
	}
	sh := replyShape{shapeObs: so}
	if tlOK {
		sh.touched = slices.Clone(tl)
	} else {
		sh.touchAll = true
	}
	f.shapes[rec.expKey] = sh
}

// SweepBegin decides whether the UDP port-cycle slot key, probed by a
// trace over [first, max], needs a walk: true means the caller should
// inject one via SweepWalk and complete it with SweepFinish. False means
// the sweep is inactive here (cache off, impure fabric, not a UDP slot,
// or a churn window masking nodes), the slot already has or shares a
// master walk, or its memo already covers the TTLs the trace will probe
// (up to the first destination-reached reply).
func (n *Network) SweepBegin(key FlowKey, first, max uint8) bool {
	f := &n.flows
	if key.Proto != packet.ProtoUDP || first > max || !n.sweepActive() || f.rec.active || n.churn.masking() {
		return false
	}
	e := f.entries[key]
	if e == nil {
		e = n.udpAlias(key)
	}
	if e != nil && e.swept {
		// This slot already has (or shares) a master walk; gaps in its
		// coverage are served lazily or fall back per probe — re-walking
		// the same trajectory cannot close them.
		return false
	}
	if e != nil && e.coveredTrace(first, max) {
		return false
	}
	if h, ok := f.hints[hintKey{src: key.Src, dst: key.Dst}]; ok && int(h)-int(first)+1 <= sweepBypassYield {
		// Adaptive bypass: a previous trace of this (vp, destination)
		// reached at TTL h, so this trace expects at most h-first+1
		// derived replies — too few to pay for a full-depth walk plus its
		// backward scans. The trace runs per-probe, which is always
		// byte-identical; the hint only spends or saves time.
		f.sweep.UDP.Bypasses++
		return false
	}
	return true
}

// coveredTrace reports whether the memo already answers every probe a
// traceroute over [first, max] would send: contiguous coverage from
// first up to a destination-reached reply or max.
func (e *flowEntry) coveredTrace(first, max uint8) bool {
	// Covered TTLs are contiguous, so their replies sit side by side.
	i := e.rank(first)
	for t := int(first); t <= int(max); t, i = t+1, i+1 {
		if !e.has(uint8(t)) {
			return false
		}
		obs := &e.replies[i]
		if obs.Answered && (obs.ICMPType == packet.ICMPEchoReply || obs.ICMPType == packet.ICMPDestUnreach) {
			return true
		}
	}
	return true
}

// SweepWalk injects the single sweep probe (built by the prober at the
// trace's MaxTTL) and records its full trajectory. The virtual time the
// walk consumed is returned for the caller's observation but rolled back
// off the clock: the walk is bookkeeping, not a probe, and clock parity
// with the per-probe oracle requires it to be time-free. The caller must
// complete the walk with SweepFinish.
func (n *Network) SweepWalk(out *Iface, pkt *packet.Packet, key FlowKey) time.Duration {
	f := &n.flows
	e := f.entries[key]
	if e == nil {
		e = f.putEntry(key, &flowEntry{})
	}
	f.hotKey, f.hotE, f.hotOK = key, e, true
	e.steps = e.steps[:0]
	e.t0 = pkt.IP.TTL
	e.maxTTL = 255
	e.swept = false
	e.terminalLocal = false
	e.tailMinT = 0
	pkt.Mark = 1
	pkt.SetLineageIP(true)
	f.sweep.UDP.Walks++
	f.recBranches = f.recBranches[:0]
	start := n.clock
	f.rec = flowRec{active: true, walk: true, entry: e, key: key, start: start}
	n.touchRemote(out)
	n.Transmit(out, pkt)
	n.Run()
	elapsed := n.clock - start
	n.clock = start
	return elapsed
}

// SweepFinish completes the walk begun by SweepWalk: it memoizes the
// walk's own observation at its TTL, marks the trajectory swept, stamps
// the walk's ECMP decisions and canonical port, and indexes it as a
// master for sibling slots. Lower TTLs are derived lazily, on lookup
// (deriveSlot): the expiry shapes for a fresh destination are learned by
// this very trace's fallback probes, so an eager pass here would run
// before any shape exists and permanently miss.
func (n *Network) SweepFinish(key FlowKey, obs ProbeObs) {
	f := &n.flows
	rec := f.rec
	if !rec.active {
		return
	}
	e := rec.entry
	f.rec = flowRec{}
	if rec.bad {
		// Poisoned walk (budget exhaustion or mid-drain invalidation): the
		// trace falls back to per-probe simulation.
		f.touchReset()
		f.recBranches = f.recBranches[:0]
		e.steps = e.steps[:0]
		e.swept = false
		f.sweep.UDP.Fallbacks++
		return
	}
	e.swept = true
	e.terminalLocal = rec.localSeen
	e.tailMinT = rec.minT
	// Stamp the walk's ECMP decision list and resolve the branch class's
	// canonical port before any shape is learned from this recording, then
	// index the walk so sibling slots can alias it.
	e.branches = append(e.branches[:0], f.recBranches...)
	f.recBranches = f.recBranches[:0]
	e.port = canonPort(key, e.branches)
	n.registerMaster(key)
	tl, tlOK := f.takeTouched()
	n.learnShape(&rec, obs, tl, tlOK)
	f.fold(e, tl, !tlOK)
	f.touchReset()
	memoize(e, e.t0, obs)
}

// scanKind classifies what the backward scan proved about a derived TTL.
type scanKind uint8

const (
	// scanInvalid: the trajectory is not trusted at this TTL (NoteTTLMin
	// floor violated, or the TTL is not below the walk's).
	scanInvalid scanKind = iota
	// scanReach: the probe passes every recorded step and inherits the
	// walk's terminal observation.
	scanReach
	// scanExpire: the probe expires at (or while being processed just
	// before) step; exact means provably on arrival at step.
	scanExpire
)

type scanResult struct {
	kind  scanKind
	step  int
	exact bool
}

// sweepScan walks the recorded trajectory with every propagated TTL
// field patched down to the derived TTL and finds the first step whose
// expiry checks fire. Monotonicity does the heavy lifting: shrinking the
// initial TTL only lowers propagated values, so a check that fails first
// at step k cannot have fired earlier, and the recorded branch decisions
// hold down to each step's NoteTTLMin floor.
func (n *Network) sweepScan(e *flowEntry, ttl uint8) scanResult {
	d := int(e.t0) - int(ttl)
	if d <= 0 || len(e.steps) == 0 {
		return scanResult{kind: scanInvalid}
	}
	for k := range e.steps {
		st := &e.steps[k]
		if ttl < st.minT {
			return scanResult{kind: scanInvalid}
		}
		if _, isHost := st.to.Owner.(*Host); isHost {
			// Hosts answer or drop without ever checking a TTL.
			continue
		}
		last := k == len(e.steps)-1
		if len(st.mpls) > 0 {
			top := int(st.mpls[0].TTL)
			if packet.LineageLSEPropagated(st.lineage, 0) {
				top -= d
			}
			ip := int(st.ip.TTL)
			if packet.LineageIPPropagated(st.lineage) {
				ip -= d
			}
			underBad := false
			for i := 1; i < len(st.mpls); i++ {
				if packet.LineageLSEPropagated(st.lineage, i) && int(st.mpls[i].TTL)-d <= 0 {
					underBad = true
				}
			}
			if top <= 1 || ip <= 0 || underBad {
				// Exact only for a provable arrival expiry of the top LSE;
				// an exhausted inner field means the true expiry hides in
				// this or an earlier step's label processing — live decides.
				return scanResult{kind: scanExpire, step: k, exact: top == 1 && ip >= 1 && !underBad}
			}
		} else if !(last && e.terminalLocal) {
			ip := int(st.ip.TTL)
			if packet.LineageIPPropagated(st.lineage) {
				ip -= d
			}
			if ip <= 1 {
				return scanResult{kind: scanExpire, step: k, exact: ip == 1}
			}
		}
	}
	if ttl < e.tailMinT {
		return scanResult{kind: scanInvalid}
	}
	return scanResult{kind: scanReach}
}

// composeExpiry synthesizes the observation of a provable arrival expiry
// at step k from its learned reply shape, rebuilding the RFC 4950 quoted
// stack from the recorded snapshot patched down by the TTL delta.
func (n *Network) composeExpiry(e *flowEntry, key FlowKey, k int, ttl uint8) (ProbeObs, bool) {
	st := &e.steps[k]
	sk, ok := shapeKeyAt(st, key, e.port)
	if !ok {
		return ProbeObs{}, false
	}
	f := &n.flows
	sh, ok := f.shapes[sk]
	if !ok || n.masked(sh.touched, sh.touchAll) {
		return ProbeObs{}, false
	}
	// The composed reply's validity now also rests on the reply path the
	// shape was learned over: fold its provenance into the entry so a
	// churn mask covering only the return path still hides this flow.
	f.fold(e, sh.touched, sh.touchAll)
	obs := ProbeObs{
		Answered: sh.answered,
		From:     sh.from,
		ReplyTTL: sh.replyTTL,
		ICMPType: sh.icmpType,
		ICMPCode: sh.icmpCode,
		Advance:  st.offset + sh.retDelay,
	}
	if sh.hasMPLS {
		d := e.t0 - ttl
		stack := make(packet.LabelStack, len(st.mpls))
		copy(stack, st.mpls)
		for i := range stack {
			if packet.LineageLSEPropagated(st.lineage, i) {
				stack[i].TTL -= d
			}
		}
		obs.MPLS = stack
	}
	return obs, true
}

// sweepResume runs one probe of a swept flow live without disturbing the
// walk: resumed at the step before the scan's expiry point when the
// prefix is trusted, injected from the vantage point otherwise. The
// observation is memoized by the caller's FlowFinish as usual (and the
// expiry's shape learned), so the gap closes for the next trace.
func (n *Network) sweepResume(out *Iface, pkt *packet.Packet, e *flowEntry, key FlowKey, ttl uint8) time.Duration {
	f := &n.flows
	f.sweep.UDP.Fallbacks++
	start := n.clock
	pkt.Mark = 1
	f.rec = flowRec{active: true, resume: true, entry: e, key: key, start: start}
	n.touchRemote(out)
	if sc := n.sweepScan(e, ttl); sc.kind == scanExpire && sc.step > 0 {
		fr := &e.steps[sc.step-1]
		d := e.t0 - ttl
		id := pkt.IP.ID
		pkt.IP = fr.ip
		pkt.IP.ID = id
		pkt.Lineage = fr.lineage
		if pkt.LineageIP() {
			pkt.IP.TTL -= d
		}
		// A plain copy, not pooled storage: the probe packet is the
		// prober's (never pool-released), so a pooled stack would leak out
		// of the free list.
		pkt.MPLS = append(pkt.MPLS[:0], fr.mpls...)
		for i := range pkt.MPLS {
			if packet.LineageLSEPropagated(pkt.Lineage, i) {
				pkt.MPLS[i].TTL -= d
			}
		}
		n.seq++
		n.queue.push(event{at: start + fr.offset, seq: n.seq, to: fr.to, pkt: pkt})
		n.Run()
		return n.clock - start
	}
	return n.Inject(out, pkt)
}

// ---- UDP port-cycle slots ----
//
// A UDP Paris probe cycles its destination port over the 128 ports above
// UDPBasePort, changing the ECMP flow hash per probe: no single walk
// covers a whole UDP trace. But the hash only
// *matters* where a router actually fans out. A walk records every ECMP
// decision it takes (router.notedNextHop/notedLabelHop → NoteFlowBranch)
// as (fan-out, index) pairs; any other slot whose own hash reproduces
// every recorded index takes the identical trajectory — forward path,
// reply rides at expiring LSRs (the time-exceeded is forwarded by the
// probe's own LFIB entry and hash, the same decision the walk recorded at
// that router's switch stage), and terminal delivery — so its flow key is
// aliased to the master's entry by pointer. One walk covers a whole
// branch class of the cycle; with no fan-outs on the path, one walk
// covers all 128 slots.

// UDPBasePort is the classic traceroute destination-port base; probes
// cycle over the udpCycle ports above it, one slot per probe token.
const UDPBasePort = 33434

// udpCycle is the length of the destination-port cycle.
const udpCycle = 128

// sweepBypassYield is the adaptive-bypass threshold: a trace whose reach
// hint promises at most this many derived replies skips the walk and
// runs per-probe. At or below this depth the walk's full-path drain plus
// its backward scans cost more than the handful of live probes it would
// replace (the shallow re-traces of the campaign's bootstrap).
const sweepBypassYield = 3

// maxFlowMasters caps the master walks indexed per (vp, destination,
// source port): beyond it new walks still memoize for their own slot but
// are not offered for aliasing, bounding the per-lookup validation scan.
// A path with b binary fan-outs has at most 2^b branch classes, so real
// topologies saturate far below the cap.
const maxFlowMasters = 16

// hintKey indexes the reach-depth hints the adaptive bypass consults.
type hintKey struct {
	src, dst netaddr.Addr
}

// branchRec is one recorded ECMP decision of a master walk: the probe's
// flow hash selected index idx of an n-way fan-out. Decisions are
// deduplicated by fan-out width — on one walk the hash is constant, so
// equal widths always yield equal indices.
type branchRec struct {
	n, idx uint16
}

// NoteFlowBranch records an ECMP decision taken while forwarding the
// marked walk probe of an in-flight UDP sweep recording. Routers call it
// from their hop-selection sites; everything else (ICMP recordings,
// resumed fallbacks, unmarked traffic) is filtered out here or by the
// caller's Mark check.
func (n *Network) NoteFlowBranch(fan, idx uint16) {
	f := &n.flows
	if !f.sweepEnabled || !f.rec.active || f.rec.resume || f.rec.key.Proto != packet.ProtoUDP {
		return
	}
	for _, b := range f.recBranches {
		if b.n == fan {
			return
		}
	}
	f.recBranches = append(f.recBranches, branchRec{n: fan, idx: idx})
}

// slotHash computes the ECMP flow hash a probe of this flow would carry
// with the given destination port — the same packet.FlowHash the routers
// apply, over a synthetic header.
func slotHash(key FlowKey, port uint16) uint32 {
	udp := packet.UDP{SrcPort: key.A, DstPort: port}
	pkt := packet.Packet{
		IP:  packet.IPv4{Src: key.Src, Dst: key.Dst, Protocol: key.Proto},
		UDP: &udp,
	}
	return packet.FlowHash(&pkt)
}

// slotSatisfies reports whether a destination port's flow hash reproduces
// every ECMP decision in the recorded branch list.
func slotSatisfies(key FlowKey, port uint16, branches []branchRec) bool {
	if len(branches) == 0 {
		return true
	}
	h := slotHash(key, port)
	for _, b := range branches {
		if uint16(h%uint32(b.n)) != b.idx {
			return false
		}
	}
	return true
}

// canonPort resolves a branch class to its canonical port: the lowest
// cycle port satisfying every recorded branch. The walking slot itself
// always satisfies its own decisions, so the scan cannot come up empty.
// Canonical ports are stable across traces and walks — they depend only
// on the branch signature and the flow's hashed fields — which is what
// lets reply shapes learned under one slot serve every slot of the class.
func canonPort(key FlowKey, branches []branchRec) uint16 {
	if len(branches) == 0 {
		return UDPBasePort
	}
	for s := 0; s < udpCycle; s++ {
		if p := uint16(UDPBasePort + s); slotSatisfies(key, p, branches) {
			return p
		}
	}
	return key.B
}

// registerMaster indexes a completed UDP walk under its port-erased base
// key so sibling slots can find it for aliasing.
func (n *Network) registerMaster(key FlowKey) {
	f := &n.flows
	bk := key
	bk.B = 0
	mks := f.masters[bk]
	for _, mk := range mks {
		if mk == key {
			return
		}
	}
	if len(mks) >= maxFlowMasters {
		return
	}
	if f.masters == nil {
		f.masters = make(map[FlowKey][]FlowKey)
	}
	f.masters[bk] = append(mks, key)
}

// udpAlias resolves a missing flow key against the flow's master walks:
// on a branch-class match the master's entry is adopted by pointer, so
// the alias shares the trajectory, the memoized replies, and — because
// masking reads the shared entry's provenance — the same churn fate.
// Masters whose walks were poisoned are pruned here, lazily.
func (n *Network) udpAlias(key FlowKey) *flowEntry {
	f := &n.flows
	if len(f.masters) == 0 || !n.sweepActive() {
		return nil
	}
	bk := key
	bk.B = 0
	mks := f.masters[bk]
	if len(mks) == 0 {
		return nil
	}
	kept := mks[:0]
	var found *flowEntry
	for _, mk := range mks {
		me := f.entries[mk]
		if me == nil || !me.swept {
			continue
		}
		kept = append(kept, mk)
		if found == nil && slotSatisfies(key, key.B, me.branches) {
			found = me
		}
	}
	if len(kept) == 0 {
		delete(f.masters, bk)
	} else {
		f.masters[bk] = kept
	}
	if found == nil {
		return nil
	}
	f.entries[key] = found
	f.sweep.UDP.Aliases++
	return found
}

// deriveSlot synthesizes the (key, ttl) observation from a swept UDP
// trajectory on demand: it inherits the walk's observation where the
// probe provably follows the whole trajectory, composes a reply where the
// expiry point and shape are provable, and leaves a gap (live fallback)
// everywhere else. Laziness is load-bearing, not an optimization: the
// reply shapes for a fresh destination are learned by the first trace's
// own fallback probes, after its SweepFinish has run, so only a
// per-lookup derivation ever sees them. The result is memoized, so each
// (slot class, TTL) pays the scan once.
func (n *Network) deriveSlot(e *flowEntry, key FlowKey, ttl uint8) (ProbeObs, bool) {
	if !e.swept || ttl >= e.t0 || !e.has(e.t0) {
		return ProbeObs{}, false
	}
	f := &n.flows
	sc := n.sweepScan(e, ttl)
	switch {
	case sc.kind == scanReach:
		obs := e.reply(e.t0)
		memoize(e, ttl, obs)
		f.sweep.UDP.Replies++
		n.learnReachHint(key, ttl, &obs)
		return obs, true
	case sc.kind == scanExpire && sc.exact:
		if comp, ok := n.composeExpiry(e, key, sc.step, ttl); ok {
			memoize(e, ttl, comp)
			f.sweep.UDP.Replies++
			return comp, true
		}
	}
	return ProbeObs{}, false
}

// learnReachHint remembers the TTL at which a (vp, destination) pair's
// UDP probes reach the destination, feeding SweepBegin's adaptive bypass;
// ICMP probes, which never walk, teach nothing. Hints are heuristic: they
// steer walk-or-not decisions only, never bytes, so churn never masks
// them — a stale hint after reconvergence costs at most a suboptimal walk
// decision until relearned.
func (n *Network) learnReachHint(key FlowKey, ttl uint8, obs *ProbeObs) {
	f := &n.flows
	if !f.sweepEnabled || key.Proto != packet.ProtoUDP || !obs.Answered ||
		(obs.ICMPType != packet.ICMPEchoReply && obs.ICMPType != packet.ICMPDestUnreach) {
		return
	}
	if f.hints == nil {
		f.hints = make(map[hintKey]uint8)
	}
	f.hints[hintKey{src: key.Src, dst: key.Dst}] = ttl
}
