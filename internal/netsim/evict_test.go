package netsim

import (
	"math"
	"testing"
	"time"
	"unsafe"

	"wormhole/internal/netaddr"
	"wormhole/internal/packet"
)

// TestEvictionStampsFitPadding pins the cost of generation-stamped
// eviction: the uint32 stamps live in padding, so neither cached artifact
// grows.
func TestEvictionStampsFitPadding(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(flowEntry{}); got != 192 {
		t.Errorf("flowEntry is %d bytes, want 192", got)
	}
	if got := unsafe.Sizeof(replyShape{}); got != 56 {
		t.Errorf("replyShape is %d bytes, want 56", got)
	}
}

// TestScopedEvictionSparesLaterReach pins the ordering the generation
// stamps must respect: an eviction covering a node that an entry reaches
// only after the eviction leaves the entry in place, exactly as the eager
// scan did (the scan saw the entry's touched set as it was at the event).
func TestScopedEvictionSparesLaterReach(t *testing.T) {
	net, hosts := churnHosts(t, 2)
	net.SetFlowCacheEnabled(true)
	k := sharedKey(60)
	seedFlowEntry(t, net, k, 4, sharedObs(0, 4))
	touchOf(t, net, net.liveEntry(k), hosts[0])

	net.ChurnBegin([]ChurnEvent{{Tick: 0, Kind: "fail", EvictScope: []Node{hosts[1]}}}, false)
	net.ChurnTick()
	net.ChurnEnd()

	// The entry is re-recorded over hosts[1] after the event.
	e := net.liveEntry(k)
	if e == nil {
		t.Fatal("entry disjoint from the scope was evicted")
	}
	applyTouched(e, []int32{net.nodeIdx[hosts[1]]}, true)
	if net.liveEntry(k) == nil {
		t.Fatal("entry evicted by an event that preceded its reach into the scope")
	}
	if _, ok := net.FlowLookup(k, 4); !ok {
		t.Fatal("surviving entry not served")
	}

	// The next event covering hosts[1] does evict it.
	net.ChurnBegin([]ChurnEvent{{Tick: 0, Kind: "fail", EvictScope: []Node{hosts[1]}}}, false)
	net.ChurnTick()
	net.ChurnEnd()
	if net.liveEntry(k) != nil {
		t.Fatal("entry survived an event covering a node it had reached")
	}
}

// TestEvictGenWrapFallsBackToFlush pins the wrap-around rule: when the
// eviction generation is exhausted, a scoped eviction degrades to the full
// flush and the stamps restart, so no artifact can outlive an eviction
// through a recycled generation.
func TestEvictGenWrapFallsBackToFlush(t *testing.T) {
	net, hosts := churnHosts(t, 2)
	net.SetFlowCacheEnabled(true)
	net.evictGen = math.MaxUint32 - 1
	k := sharedKey(61)
	seedFlowEntry(t, net, k, 4, sharedObs(0, 4))
	touchOf(t, net, net.liveEntry(k), hosts[0])

	fire := func(nd Node) {
		net.ChurnBegin([]ChurnEvent{{Tick: 0, Kind: "fail", EvictScope: []Node{nd}}}, false)
		net.ChurnTick()
		net.ChurnEnd()
	}
	fire(hosts[1]) // the last generation: a plain scoped eviction
	if net.evictGen != math.MaxUint32 || net.liveEntry(k) == nil {
		t.Fatalf("scoped eviction at generation %d lost a disjoint entry", net.evictGen)
	}
	gen0 := net.TopoGen()
	fire(hosts[1]) // no generation left: full flush
	if net.TopoGen() != gen0+1 {
		t.Fatalf("wrap did not fall back to the full flush: TopoGen %d -> %d", gen0, net.TopoGen())
	}
	if net.evictGen != 0 || net.ScopeGen(hosts[1]) != 0 {
		t.Fatalf("stamps not restarted: generation %d, node stamp %d", net.evictGen, net.ScopeGen(hosts[1]))
	}
	if net.liveEntry(k) != nil {
		t.Fatal("entry survived the wrap-around flush")
	}

	// Stamping resumes from zero and scoped eviction works as before.
	seedFlowEntry(t, net, k, 4, sharedObs(0, 4))
	touchOf(t, net, net.liveEntry(k), hosts[0])
	fire(hosts[0])
	if net.ScopeGen(hosts[0]) != 1 || net.liveEntry(k) != nil {
		t.Fatalf("post-wrap eviction: node stamp %d, entry live %v", net.ScopeGen(hosts[0]), net.liveEntry(k) != nil)
	}
}

// eagerEvict is scoped eviction as a scan of the whole cache: every flow
// entry and reply shape whose touched set intersects the scope, or whose
// provenance is unknown, is deleted on the spot. It is the oracle the
// generation-stamped evictScope must be indistinguishable from. It does
// not advance the eviction generation, so a fabric evicted only through it
// serves every artifact it still holds.
func eagerEvict(n *Network, nodes []Node) {
	var bits []uint64
	for _, nd := range nodes {
		setBit(&bits, n.nodeIdx[nd])
	}
	f := &n.flows
	if f.rec.active {
		f.rec.bad = true
	}
	for k, e := range f.entries {
		if e.touchAll || e.touched == nil || intersectsBits(e.touched, bits) {
			delete(f.entries, k)
			delete(f.dirty, k)
		}
	}
	f.hotE, f.hotOK = nil, false
	for k, sh := range f.shapes {
		if sh.touchAll || sh.touched == nil || intersectsBits(sh.touched, bits) {
			delete(f.shapes, k)
		}
	}
	if f.enabled {
		f.stats.Invalidations++
	}
	if f.shared != nil && f.sharedOwner {
		f.shared.ScopedFlush(bits)
	}
}

// The fuzzed key space, all UDP swept master walks: four single-slot
// flows, each with one reply shape keyed on its single recorded step, and
// four port-cycle slots of one base flow, which alias each other's
// master walks.
const (
	evictHosts  = 6
	evictShaped = 4
	evictSlots  = 4
	evictT0     = 32
)

func evictKey(i int) FlowKey {
	if i < evictShaped {
		return FlowKey{Src: 0x0a000001, Dst: 0x0a0000ff, Proto: packet.ProtoUDP, A: uint16(i), B: UDPBasePort}
	}
	return FlowKey{Src: 0x0a000001, Dst: 0x0a0000fe, Proto: packet.ProtoUDP, A: 7, B: uint16(UDPBasePort + i - evictShaped)}
}

// evictSide is one fabric of the differential pair, subscribed to a
// shared table of its own so Publish has somewhere to go.
type evictSide struct {
	net   *Network
	hosts []*Host
	table *SharedFlowTable
	lazy  bool
}

func newEvictSide(t *testing.T, lazy bool) *evictSide {
	net, hosts := churnHosts(t, evictHosts)
	net.SetFlowCacheEnabled(true)
	net.SetSweepEnabled(true)
	owner := New(1)
	owner.SetFlowCacheEnabled(true)
	table := owner.OwnSharedFlowCache()
	net.AttachSharedFlowCache(table)
	return &evictSide{net: net, hosts: hosts, table: table, lazy: lazy}
}

// touches decodes a provenance spec: the low two bits select unknown
// (0: an unattributed delivery), known but empty (1), or the subset of the
// hosts in the high six bits.
func (s *evictSide) touches(spec byte) ([]int32, bool) {
	switch spec & 3 {
	case 0:
		return nil, false
	case 1:
		return nil, true
	}
	var tl []int32
	for h := 0; h < evictHosts; h++ {
		if spec>>2&(1<<h) != 0 {
			tl = append(tl, s.net.nodeIdx[s.hosts[h]])
		}
	}
	return tl, true
}

// evictShapeKey is the shape key of a shaped flow's single step.
func (s *evictSide) evictShapeKey(i int) shapeKey {
	k := evictKey(i)
	st := trajStep{to: s.hosts[i%evictHosts].If}
	sk, _ := shapeKeyAt(&st, k, canonPort(k, nil))
	return sk
}

func evictObs(ttl, variant uint8) ProbeObs {
	return ProbeObs{Answered: true, From: netaddr.Addr(0x0a000100 + uint32(variant)), ReplyTTL: 250 - ttl, ICMPType: 11, Advance: time.Duration(ttl) * time.Millisecond}
}

// record mirrors FlowFinish: the entry (validated, or created) gains the
// recording's provenance and memoizes the reply. A fresh entry becomes a
// swept master walk with one step onto its host.
func (s *evictSide) record(ki int, ttl uint8, spec byte) {
	n := s.net
	k := evictKey(ki)
	e := n.liveEntry(k)
	if e == nil {
		e = n.addEntry(k)
		e.t0 = evictT0
		e.steps = []trajStep{{to: s.hosts[ki%evictHosts].If, offset: time.Millisecond}}
		e.swept = true
		e.port = canonPort(k, nil)
		n.registerMaster(k)
	}
	tl, ok := s.touches(spec)
	applyTouched(e, tl, ok)
	n.memoize(e, k, ttl, evictObs(ttl, 0), false)
}

// learn mirrors a resumed probe of a shaped flow teaching the reply shape
// of the flow's step. Only a live swept entry learns: an absent one, or
// one adopted from the shared table without a trajectory, teaches
// nothing.
func (s *evictSide) learn(ki int, variant uint8, spec byte) {
	n := s.net
	k := evictKey(ki)
	sk := s.evictShapeKey(ki)
	tl, ok := s.touches(spec)
	obs := evictObs(1, variant)
	obs.Advance = 3 * time.Millisecond
	rec := flowRec{entry: n.liveEntry(k), key: k, expSeen: true, expOff: time.Millisecond, expKey: sk}
	n.learnShape(&rec, obs, tl, ok)
}

// compose derives a shaped flow's reply from its step's shape, folding
// the shape's provenance into the (validated) entry as deriveSlot does.
func (s *evictSide) compose(ki int, ttl uint8) (ProbeObs, bool) {
	n := s.net
	k := evictKey(ki)
	e := n.liveEntry(k)
	if e == nil || len(e.steps) == 0 {
		// Absent, or adopted from the shared table without a trajectory.
		return ProbeObs{}, false
	}
	obs, ok := n.composeExpiry(e, k, 0, ttl)
	if ok {
		n.memoize(e, k, ttl, obs, true)
	}
	return obs, ok
}

func (s *evictSide) evict(nodes []Node) {
	if !s.lazy {
		eagerEvict(s.net, nodes)
		return
	}
	s.net.ChurnBegin([]ChurnEvent{{Tick: 0, Kind: "fail", EvictScope: nodes}}, false)
	s.net.ChurnTick()
	s.net.ChurnEnd()
}

// servedEntry is what the side's cache would serve for key, without
// disturbing it: the lazy side is judged by the read-only staleness test
// its accessor applies.
func (s *evictSide) servedEntry(k FlowKey) *flowEntry {
	e := s.net.flows.entries[k]
	if e == nil || s.net.evicted(e.gen, e.touched, e.touchAll) {
		return nil
	}
	return e
}

func (s *evictSide) servedShape(k shapeKey) (replyShape, bool) {
	sh, ok := s.net.flows.shapes[k]
	if !ok || s.net.evicted(sh.gen, sh.touched, sh.touchAll) {
		return replyShape{}, false
	}
	return sh, true
}

// FuzzScopedEviction is the differential fuzzer for generation-stamped
// eviction. Each input is a sequence of 4-byte operations — record an
// entry or a reply shape with a given provenance (unknown included), grow
// a validated entry's provenance by re-recording it or composing from a
// shape, alias a UDP slot onto a master walk, fire a scoped eviction, read
// through FlowLookup, Publish to the shared table — applied to two
// fabrics: one evicting through churn events (the production path) and
// one through eagerEvict. After every operation both must serve exactly
// the same entries, shapes, dirty marks and replies, with the same
// counters.
func FuzzScopedEviction(f *testing.F) {
	// Seeds: the late-reach case (record over host 0, evict host 1, grow
	// into host 1, read, evict host 1 again); an unknown-provenance entry
	// and an empty-set shape under a disjoint eviction; a UDP master and
	// its alias evicted through the alias; a dirty entry and its shape
	// evicted before Publish, then read; a published entry evicted
	// locally and re-adopted from the table.
	f.Add([]byte{0, 0, 3, 0x06, 4, 2, 0, 0, 0, 0, 3, 0x0a, 5, 0, 3, 0, 4, 2, 0, 0, 5, 0, 3, 0})
	f.Add([]byte{0, 1, 3, 0, 1, 1, 0, 1, 4, 32, 0, 0, 5, 1, 3, 0, 2, 1, 5, 0})
	f.Add([]byte{0, 4, 31, 0x0a, 3, 1, 0, 0, 0, 5, 31, 0x12, 4, 4, 0, 0, 5, 4, 31, 0, 5, 5, 31, 0})
	f.Add([]byte{0, 2, 6, 0x22, 1, 2, 0, 0x22, 2, 2, 3, 0, 4, 8, 0, 0, 6, 0, 0, 0, 5, 2, 6, 0})
	f.Add([]byte{0, 0, 3, 0x06, 6, 0, 0, 0, 4, 1, 0, 0, 5, 0, 3, 0, 2, 0, 1, 0, 6, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		lazy, eager := newEvictSide(t, true), newEvictSide(t, false)
		sides := [2]*evictSide{lazy, eager}
		for step := 0; len(data) >= 4 && step < 64; step++ {
			op, a, b, c := data[0], data[1], data[2], data[3]
			data = data[4:]
			switch op % 7 {
			case 0:
				for _, s := range sides {
					s.record(int(a)%(evictShaped+evictSlots), 1+b%evictT0, c)
				}
			case 1:
				for _, s := range sides {
					s.learn(int(a)%evictShaped, b%2, c)
				}
			case 2:
				ol, okl := lazy.compose(int(a)%evictShaped, 1+b%(evictT0-1))
				oe, oke := eager.compose(int(a)%evictShaped, 1+b%(evictT0-1))
				if okl != oke || !sameObs(ol, oe) {
					t.Fatalf("step %d: compose lazy (%+v, %v), eager (%+v, %v)", step, ol, okl, oe, oke)
				}
			case 3:
				for _, s := range sides {
					if k := evictKey(evictShaped + int(a)%evictSlots); s.net.liveEntry(k) == nil {
						s.net.udpAlias(k)
					}
				}
			case 4:
				for _, s := range sides {
					var nodes []Node
					for h := 0; h < evictHosts; h++ {
						if a&(1<<h) != 0 {
							nodes = append(nodes, s.hosts[h])
						}
					}
					if nodes == nil {
						nodes = []Node{s.hosts[int(b)%evictHosts]}
					}
					s.evict(nodes)
				}
			case 5:
				k := evictKey(int(a) % (evictShaped + evictSlots))
				ol, okl := lazy.net.FlowLookup(k, 1+b%evictT0)
				oe, oke := eager.net.FlowLookup(k, 1+b%evictT0)
				if okl != oke || !sameObs(ol, oe) {
					t.Fatalf("step %d: FlowLookup(%d, %d) lazy (%+v, %v), eager (%+v, %v)", step, a, b, ol, okl, oe, oke)
				}
			case 6:
				lazy.table.Publish(lazy.net)
				eager.table.Publish(eager.net)
				compareTables(t, step, lazy.table, eager.table)
			}
			compareServed(t, step, lazy, eager)
		}
	})
}

func sameObs(a, b ProbeObs) bool {
	return a.Answered == b.Answered && a.From == b.From && a.ReplyTTL == b.ReplyTTL &&
		a.ICMPType == b.ICMPType && a.ICMPCode == b.ICMPCode && a.Advance == b.Advance &&
		len(a.MPLS) == len(b.MPLS)
}

// sameEntry compares what two entries serve and the provenance that
// decides their eviction.
func sameEntry(a, b *flowEntry) bool {
	if a.valid != b.valid || a.touchAll != b.touchAll || a.tainted != b.tainted ||
		a.swept != b.swept || (a.touched == nil) != (b.touched == nil) || len(a.touched) != len(b.touched) {
		return false
	}
	for i := range a.touched {
		if a.touched[i] != b.touched[i] {
			return false
		}
	}
	for t := 0; t < 256; t++ {
		if a.valid[t>>6]&(1<<(uint(t)&63)) != 0 && !sameObs(a.replies[t], b.replies[t]) {
			return false
		}
	}
	return true
}

func compareServed(t *testing.T, step int, lazy, eager *evictSide) {
	t.Helper()
	var el, ee [evictShaped + evictSlots]*flowEntry
	for i := range el {
		k := evictKey(i)
		el[i], ee[i] = lazy.servedEntry(k), eager.servedEntry(k)
		if (el[i] == nil) != (ee[i] == nil) {
			t.Fatalf("step %d: key %d served lazily %v, eagerly %v", step, i, el[i] != nil, ee[i] != nil)
		}
		if el[i] != nil && !sameEntry(el[i], ee[i]) {
			t.Fatalf("step %d: key %d lazy entry %+v, eager %+v", step, i, *el[i], *ee[i])
		}
		_, dl := lazy.net.flows.dirty[k]
		_, de := eager.net.flows.dirty[k]
		if el[i] != nil && dl != de {
			t.Fatalf("step %d: key %d dirty lazily %v, eagerly %v", step, i, dl, de)
		}
		for j := 0; j < i; j++ {
			if el[i] != nil && el[j] != nil && (el[i] == el[j]) != (ee[i] == ee[j]) {
				t.Fatalf("step %d: keys %d and %d alias lazily %v, eagerly %v", step, j, i, el[i] == el[j], ee[i] == ee[j])
			}
		}
	}
	for i := 0; i < evictShaped; i++ {
		shl, okl := lazy.servedShape(lazy.evictShapeKey(i))
		she, oke := eager.servedShape(eager.evictShapeKey(i))
		if okl != oke {
			t.Fatalf("step %d: shape %d served lazily %v, eagerly %v", step, i, okl, oke)
		}
		if okl && (shl.shapeObs != she.shapeObs || shl.touchAll != she.touchAll || len(shl.touched) != len(she.touched)) {
			t.Fatalf("step %d: shape %d lazy %+v, eager %+v", step, i, shl, she)
		}
	}
	if l, e := lazy.net.FlowCacheStats(), eager.net.FlowCacheStats(); l != e {
		t.Fatalf("step %d: cache stats lazy %+v, eager %+v", step, l, e)
	}
	if l, e := lazy.net.SweepStats(), eager.net.SweepStats(); l != e {
		t.Fatalf("step %d: sweep stats lazy %+v, eager %+v", step, l, e)
	}
}

func compareTables(t *testing.T, step int, lt, et *SharedFlowTable) {
	t.Helper()
	le, ee := lt.cur.Load().entries, et.cur.Load().entries
	if len(le) != len(ee) {
		t.Fatalf("step %d: published %d entries lazily, %d eagerly", step, len(le), len(ee))
	}
	for k, l := range le {
		e := ee[k]
		if e == nil || !sameEntry(&flowEntry{valid: l.valid, replies: l.replies, touched: l.touched, touchAll: l.touchAll},
			&flowEntry{valid: e.valid, replies: e.replies, touched: e.touched, touchAll: e.touchAll}) {
			t.Fatalf("step %d: published entry %+v differs: lazy %+v, eager %+v", step, k, l, e)
		}
	}
}
