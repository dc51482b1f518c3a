package netsim

import (
	"testing"
	"time"

	"wormhole/internal/netaddr"
	"wormhole/internal/packet"
)

// churnHosts builds a fabric with n registered hosts (no links) so churn
// scopes can be expressed over real nodes.
func churnHosts(t *testing.T, n int) (*Network, []*Host) {
	t.Helper()
	net := New(1)
	p := netaddr.MustParsePrefix("10.9.0.0/24")
	hosts := make([]*Host, n)
	for i := range hosts {
		hosts[i] = NewHost("ch", p.Nth(uint64(i+1)), p)
		net.AddNode(hosts[i])
	}
	return net, hosts
}

// touchOf stamps a flow entry's provenance (white-box: what FlowFinish
// computes from the touch scratch of a real drain).
func touchOf(t *testing.T, net *Network, e *flowEntry, nodes ...Node) {
	t.Helper()
	for _, nd := range nodes {
		i, ok := net.nodeIdx[nd]
		if !ok {
			t.Fatalf("node %s not registered", nd.Name())
		}
		e.touched = append(e.touched, i)
	}
	e.touched = sortedTouched(e.touched)
}

// TestChurnTickSchedule pins the probe-tick contract: events fire
// immediately before the probe whose 0-based index reaches their Tick,
// in order, ChurnEnd force-fires the remainder, and deviance windows
// open and close with the Dev field.
func TestChurnTickSchedule(t *testing.T) {
	net, hosts := churnHosts(t, 2)
	var fired []string
	ev := func(tick uint64, kind string, dev int) ChurnEvent {
		return ChurnEvent{
			Tick: tick, Kind: kind, Dev: dev,
			DevScope: []Node{hosts[0]},
			Apply:    func() { fired = append(fired, kind) },
		}
	}
	net.ChurnBegin([]ChurnEvent{ev(2, "fail", 1), ev(2, "reconverge", 0), ev(5, "repair", -1)}, false)

	for i := 0; i < 4; i++ {
		net.ChurnTick()
	}
	if len(fired) != 2 || fired[0] != "fail" || fired[1] != "reconverge" {
		t.Fatalf("after 4 ticks fired %v, want [fail reconverge]", fired)
	}
	if !net.ChurnDeviant() {
		t.Fatal("deviance window not open after fail")
	}
	if got := net.ChurnFired(); got != 2 {
		t.Fatalf("ChurnFired = %d, want 2", got)
	}

	net.ChurnEnd()
	if len(fired) != 3 || fired[2] != "repair" {
		t.Fatalf("ChurnEnd fired %v, want trailing repair", fired)
	}
	if net.ChurnDeviant() {
		t.Fatal("deviance window still open after repair")
	}
	if got := net.ChurnFired(); got != 3 {
		t.Fatalf("ChurnFired = %d, want 3", got)
	}
	// Disarmed: further ticks are free and fire nothing.
	net.ChurnTick()
	if net.ChurnFired() != 3 {
		t.Fatal("disarmed engine fired an event")
	}
}

// TestChurnScopedEviction pins delta-invalidation: an event whose scope
// covers one node evicts exactly the entries touching it, advances only
// that node's scope generation, and leaves the fabric-wide TopoGen — and
// therefore pooled-replica validity — untouched.
func TestChurnScopedEviction(t *testing.T) {
	net, hosts := churnHosts(t, 3)
	net.SetFlowCacheEnabled(true)

	kA, kB := sharedKey(10), sharedKey(11)
	seedFlowEntry(t, net, kA, 4, sharedObs(0, 4))
	seedFlowEntry(t, net, kB, 4, sharedObs(1, 4))
	touchOf(t, net, net.flows.entries[kA], hosts[0], hosts[1])
	touchOf(t, net, net.flows.entries[kB], hosts[2])

	gen0 := net.TopoGen()
	net.ChurnBegin([]ChurnEvent{{Tick: 0, Kind: "fail", EvictScope: []Node{hosts[1]}}}, false)
	net.ChurnTick()
	net.ChurnEnd()

	if net.liveEntry(kA) != nil {
		t.Fatal("entry touching the scope survived")
	}
	if net.liveEntry(kB) == nil {
		t.Fatal("disjoint entry was evicted")
	}
	if net.TopoGen() != gen0 {
		t.Fatalf("scoped eviction bumped TopoGen %d -> %d", gen0, net.TopoGen())
	}
	if net.ScopeGen(hosts[1]) != 1 || net.ScopeGen(hosts[2]) != 0 {
		t.Fatalf("scope generations: h1=%d h2=%d, want 1 and 0",
			net.ScopeGen(hosts[1]), net.ScopeGen(hosts[2]))
	}

	// Unknown provenance is always in scope.
	kC := sharedKey(12)
	seedFlowEntry(t, net, kC, 4, sharedObs(2, 4))
	net.ChurnBegin([]ChurnEvent{{Tick: 0, Kind: "fail", EvictScope: []Node{hosts[2]}}}, false)
	net.ChurnTick()
	net.ChurnEnd()
	if net.liveEntry(kC) != nil {
		t.Fatal("unknown-provenance entry dodged a churn scope")
	}
}

// TestChurnFlushWorldBaseline pins the baseline mode: every event is a
// whole-fabric flush (TopoGen advances, everything evicted).
func TestChurnFlushWorldBaseline(t *testing.T) {
	net, hosts := churnHosts(t, 2)
	net.SetFlowCacheEnabled(true)
	k := sharedKey(20)
	seedFlowEntry(t, net, k, 4, sharedObs(0, 4))
	touchOf(t, net, net.flows.entries[k], hosts[1])

	gen0 := net.TopoGen()
	net.ChurnBegin([]ChurnEvent{{Tick: 0, Kind: "fail", EvictScope: []Node{hosts[0]}}}, true)
	net.ChurnTick()
	net.ChurnEnd()
	if net.TopoGen() != gen0+1 {
		t.Fatalf("flush-world event did not bump TopoGen: %d -> %d", gen0, net.TopoGen())
	}
	if len(net.flows.entries) != 0 {
		t.Fatal("flush-world event left entries behind")
	}
}

// TestScopedFlushSharedTable pins the shared-table side of
// delta-invalidation: a scoped flush removes exactly the published
// entries whose provenance intersects the scope (or is unknown), keeps
// the epoch version so subscribers stay attached, and is a no-op when
// nothing matches.
func TestScopedFlushSharedTable(t *testing.T) {
	owner, hosts := churnHosts(t, 3)
	owner.SetFlowCacheEnabled(true)
	table := owner.OwnSharedFlowCache()

	rep := New(1)
	rep.SetFlowCacheEnabled(true)
	rep.AttachSharedFlowCache(table)
	// Replicas are structurally identical, so provenance indices transfer;
	// here we stamp them against the owner's node index directly.
	kA, kB, kC := sharedKey(30), sharedKey(31), sharedKey(32)
	seedFlowEntry(t, rep, kA, 4, sharedObs(0, 4))
	seedFlowEntry(t, rep, kB, 4, sharedObs(1, 4))
	seedFlowEntry(t, rep, kC, 4, sharedObs(2, 4))
	touchOf(t, owner, rep.flows.entries[kA], hosts[0])
	touchOf(t, owner, rep.flows.entries[kB], hosts[2])
	// kC keeps nil provenance: unknown, must be evicted by any scope.
	table.Publish(rep)
	v0 := table.Version()

	var bits []uint64
	setBit(&bits, owner.nodeIdx[hosts[0]])
	table.ScopedFlush(bits)
	if table.Version() != v0 {
		t.Fatalf("ScopedFlush changed the version %d -> %d", v0, table.Version())
	}
	if table.Len() != 1 {
		t.Fatalf("table has %d entries after scoped flush, want 1 survivor", table.Len())
	}

	// The survivor still serves a fresh subscriber.
	sib := New(1)
	sib.SetFlowCacheEnabled(true)
	sib.AttachSharedFlowCache(table)
	if _, ok := sib.FlowLookup(kB, 4); !ok {
		t.Fatal("surviving entry not served")
	}
	if _, ok := sib.FlowLookup(kA, 4); ok {
		t.Fatal("evicted entry still served")
	}

	// Disjoint scope: nothing matches, the epoch is untouched.
	ep0 := table.cur.Load()
	var none []uint64
	setBit(&none, owner.nodeIdx[hosts[1]])
	table.ScopedFlush(none)
	if table.cur.Load() != ep0 {
		t.Fatal("no-op scoped flush installed a new epoch")
	}
}

// TestChurnDevianceGatesSharedAdoption pins the deviance window: while a
// window is open, shared entries overlapping it (or of unknown
// provenance) are not adopted, disjoint ones still are, and local
// recordings overlapping the window are tainted and never published.
func TestChurnDevianceGatesSharedAdoption(t *testing.T) {
	owner, hosts := churnHosts(t, 3)
	owner.SetFlowCacheEnabled(true)
	table := owner.OwnSharedFlowCache()

	pub := New(1)
	pub.SetFlowCacheEnabled(true)
	pub.AttachSharedFlowCache(table)
	kIn, kOut := sharedKey(40), sharedKey(41)
	seedFlowEntry(t, pub, kIn, 4, sharedObs(0, 4))
	seedFlowEntry(t, pub, kOut, 4, sharedObs(1, 4))
	touchOf(t, owner, pub.flows.entries[kIn], hosts[0])
	touchOf(t, owner, pub.flows.entries[kOut], hosts[2])
	table.Publish(pub)

	// A replica mid-deviance: the window covers hosts[0]. Adoption indices
	// are fabric-local, so the replica must host the same node layout —
	// reuse the owner fabric itself as the reader (self-subscription is
	// what the serial engine does).
	reader, rhosts := churnHosts(t, 3)
	reader.SetFlowCacheEnabled(true)
	reader.AttachSharedFlowCache(table)
	reader.ChurnBegin([]ChurnEvent{
		{Tick: 0, Kind: "fail", Dev: 1, DevScope: []Node{rhosts[0]}, EvictScope: []Node{rhosts[0]}},
		{Tick: 99, Kind: "repair", Dev: -1, DevScope: []Node{rhosts[0]}, EvictScope: []Node{rhosts[0]}},
	}, false)
	reader.ChurnTick()

	if _, ok := reader.FlowLookup(kIn, 4); ok {
		t.Fatal("adopted a shared entry overlapping the open deviance window")
	}
	if _, ok := reader.FlowLookup(kOut, 4); !ok {
		t.Fatal("refused a shared entry disjoint from the window")
	}

	// A local recording overlapping the window is tainted: simulate what
	// FlowFinish computes.
	kLocal := sharedKey(42)
	seedFlowEntry(t, reader, kLocal, 5, sharedObs(2, 5))
	e := reader.flows.entries[kLocal]
	touchOf(t, reader, e, rhosts[0])
	reader.taintCheck(e, true)
	if !e.tainted {
		t.Fatal("deviant-window recording not tainted")
	}
	table.Publish(reader)
	if _, ok := table.cur.Load().entries[kLocal]; ok {
		t.Fatal("tainted entry was published")
	}

	// ChurnEnd force-fires the repair; the window closes and adoption
	// resumes.
	reader.ChurnEnd()
	if reader.ChurnDeviant() {
		t.Fatal("window still open")
	}
	if _, ok := reader.FlowLookup(kIn, 4); !ok {
		t.Fatal("post-repair adoption still refused")
	}
}

// TestChurnMidDrainPoisonsRecording pins the in-flight guard: a scoped
// eviction firing while a recording is active poisons it, exactly like a
// full invalidation would, so a mutation mid-drain can never leak a
// stale step into the cache.
func TestChurnMidDrainPoisonsRecording(t *testing.T) {
	net, hosts := churnHosts(t, 2)
	net.SetFlowCacheEnabled(true)
	f := &net.flows
	f.rec = flowRec{active: true, entry: &flowEntry{}, key: sharedKey(50), start: time.Duration(0)}
	net.ChurnBegin([]ChurnEvent{{Tick: 0, Kind: "fail", EvictScope: []Node{hosts[0]}}}, false)
	net.ChurnTick()
	if !f.rec.bad {
		t.Fatal("scoped eviction did not poison the in-flight recording")
	}
	net.ChurnEnd()
}

// TestChurnEvictsReplyShapes pins reply-shape eviction under churn. A
// learned shape carries the provenance of the probe that taught it —
// forward path to the expiry plus the reply's path home — which the
// trajectories of the flows composing from it do not cover. The fixture
// is a swept UDP slot trajectory r0 → r1 → host with t0 5, so a probe at
// TTL 2 expires exactly on arrival at r1 and composes from r1's shape,
// and a shape taught over the reply path r0, r1, r2.
func TestChurnEvictsReplyShapes(t *testing.T) {
	cases := []struct {
		name     string
		scope    int  // index into nodes: r0, r1, r2 (reply path), r3 (elsewhere)
		empty    bool // the shape's provenance is empty
		composes bool
	}{
		{name: "reply-path-scope", scope: 2, composes: false},
		{name: "disjoint-scope", scope: 3, composes: true},
		{name: "empty-provenance", scope: 3, empty: true, composes: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := New(1)
			var nodes [4]*cacheableNode
			for i := range nodes {
				nodes[i] = &cacheableNode{ok: true}
				nodes[i].ifc = &Iface{Owner: nodes[i], Name: "in", Addr: netaddr.AddrFrom4(10, 1, 0, byte(i+1))}
				net.AddNode(nodes[i])
			}
			p := netaddr.MustParsePrefix("10.2.0.0/24")
			h := NewHost("dst", p.Nth(1), p)
			net.AddNode(h)
			net.SetFlowCacheEnabled(true)
			net.SetSweepEnabled(true)
			idx := func(nd Node) int32 { return net.nodeIdx[nd] }

			key := FlowKey{Src: netaddr.AddrFrom4(10, 0, 0, 1), Dst: h.If.Addr, Proto: packet.ProtoUDP, A: 0x77, B: UDPBasePort}
			var lin packet.Packet
			lin.SetLineageIP(true)
			ip := func(ttl uint8) packet.IPv4 {
				return packet.IPv4{Src: key.Src, Dst: key.Dst, Protocol: packet.ProtoUDP, TTL: ttl}
			}
			e := &flowEntry{t0: 5, maxTTL: 255, swept: true, port: canonPort(key, nil), steps: []trajStep{
				{to: nodes[0].ifc, offset: time.Millisecond, ip: ip(5), lineage: lin.Lineage},
				{to: nodes[1].ifc, offset: 2 * time.Millisecond, ip: ip(4), lineage: lin.Lineage},
				{to: h.If, offset: 3 * time.Millisecond, ip: ip(3), lineage: lin.Lineage},
			}}
			walk := ProbeObs{Answered: true, From: key.Dst, ReplyTTL: 60, ICMPType: packet.ICMPDestUnreach, ICMPCode: packet.CodePortUnreach, Advance: 6 * time.Millisecond}
			e.valid[0] = 1 << 5
			e.replies = make([]ProbeObs, 6)
			e.replies[5] = walk
			e.touched = sortedTouched([]int32{idx(nodes[0]), idx(nodes[1]), idx(h)})
			net.flows.entries = map[FlowKey]*flowEntry{key: e}

			sk, ok := shapeKeyAt(&e.steps[1], key, e.port)
			if !ok {
				t.Fatal("no shape key for the expiry step")
			}
			sh := replyShape{shapeObs: shapeObs{answered: true, from: nodes[1].ifc.Addr, replyTTL: 253, icmpType: 11, retDelay: 2 * time.Millisecond}}
			if !tc.empty {
				sh.touched = sortedTouched([]int32{idx(nodes[0]), idx(nodes[1]), idx(nodes[2])})
			}
			net.flows.shapes = map[shapeKey]replyShape{sk: sh}

			net.ChurnBegin([]ChurnEvent{{Tick: 0, Kind: "fail", EvictScope: []Node{nodes[tc.scope]}}}, false)
			net.ChurnTick()
			net.ChurnEnd()

			// The flow's own trajectory is outside every scope here.
			if got, ok := net.FlowLookup(key, 5); !ok || got.From != walk.From || got.Advance != walk.Advance {
				t.Fatalf("walk reply after the event: %+v, %v", got, ok)
			}
			comp, ok := net.composeExpiry(e, key, 1, 2)
			if ok != tc.composes {
				t.Fatalf("composeExpiry ok = %v, want %v", ok, tc.composes)
			}
			if ok {
				if comp.From != sh.from || comp.Advance != e.steps[1].offset+sh.retDelay {
					t.Fatalf("composed %+v from shape %+v", comp, sh)
				}
				return
			}
			// Without the shape, TTL 2 is a gap the next probe fills live.
			if _, ok := net.FlowLookup(key, 2); ok {
				t.Fatal("TTL 2 served without its shape")
			}
			before := net.SweepStats().UDP.Fallbacks
			pkt := &packet.Packet{IP: ip(2), UDP: &packet.UDP{SrcPort: key.A, DstPort: key.B}}
			net.FlowProbe(nil, pkt, key, 2)
			net.FlowFinish(2, ProbeObs{})
			if got := net.SweepStats().UDP.Fallbacks - before; got != 1 {
				t.Fatalf("TTL 2 ran %d live fallbacks, want 1", got)
			}
		})
	}
}
