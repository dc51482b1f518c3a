package netsim

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"wormhole/internal/netaddr"
	"wormhole/internal/packet"
)

// churnHosts builds a fabric with n registered hosts (no links) so churn
// scopes can be expressed over real nodes.
func churnHosts(t *testing.T, n int) (*Network, []*Host) {
	t.Helper()
	net := New()
	p := netaddr.MustParsePrefix("10.9.0.0/24")
	hosts := make([]*Host, n)
	for i := range hosts {
		hosts[i] = NewHost("ch", p.Nth(uint64(i+1)), p)
		net.AddNode(hosts[i])
	}
	return net, hosts
}

// seedEntry plants a pristine reply for (key, ttl) with the given
// provenance, the state FlowProbe/FlowFinish would leave behind, without
// running a fabric (white-box). The empty Network passes the purity scan,
// so FlowLookup behaves exactly as on a real quiescent fabric.
func seedEntry(t *testing.T, net *Network, key FlowKey, ttl uint8, nodes ...Node) {
	t.Helper()
	e := net.flows.entries[key]
	if e == nil {
		e = net.flows.putEntry(key, &flowEntry{})
	}
	var tl []int32
	for _, nd := range nodes {
		i, ok := net.nodeIdx[nd]
		if !ok {
			t.Fatalf("node %s not registered", nd.Name())
		}
		tl = append(tl, i)
	}
	net.flows.fold(e, tl, false)
	memoize(e, ttl, ProbeObs{Answered: true, From: 0x0a000002, ReplyTTL: 250 - ttl, ICMPType: 11})
}

func churnKey(i int) FlowKey {
	return FlowKey{Src: 0x0a000001, Dst: 0x0a0000ff, A: uint16(i), B: 33434}
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

// TestChurnFlushWorldBaseline pins the baseline mode: every event is a
// whole-fabric flush (TopoGen advances, everything evicted).
func TestChurnFlushWorldBaseline(t *testing.T) {
	net, hosts := churnHosts(t, 2)
	net.SetFlowCacheEnabled(true)
	seedEntry(t, net, churnKey(20), 4, hosts[1])

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

// TestChurnMidDrainPoisonsRecording pins the in-flight guard: an event
// firing while a recording is active poisons it, whether it masks or
// flushes, exactly like a full invalidation would, so a mutation
// mid-drain can never leak a stale step into the cache.
func TestChurnMidDrainPoisonsRecording(t *testing.T) {
	for _, dev := range []int{1, 0} {
		net, hosts := churnHosts(t, 2)
		net.SetFlowCacheEnabled(true)
		f := &net.flows
		f.rec = flowRec{active: true, entry: &flowEntry{}, key: churnKey(50), start: time.Duration(0)}
		net.ChurnBegin([]ChurnEvent{{Tick: 0, Kind: "fail", Dev: dev, DevScope: []Node{hosts[0]}, EvictScope: []Node{hosts[0]}}}, false)
		net.ChurnTick()
		if !f.rec.bad {
			t.Fatalf("event with Dev %d did not poison the in-flight recording", dev)
		}
		net.ChurnEnd()
	}
}

// echoPairs builds a fabric of n host pairs, each joined by its own link:
// a probe from pair i's first host to its second touches that pair only.
func echoPairs(t *testing.T, n int) (*Network, [][2]*Host) {
	t.Helper()
	net := New()
	pairs := make([][2]*Host, n)
	for i := range pairs {
		p := netaddr.MustPrefixFrom(netaddr.AddrFrom4(10, 8, byte(i), 0), 30)
		a, b := NewHost("a", p.Nth(1), p), NewHost("b", p.Nth(2), p)
		net.AddNode(a)
		net.AddNode(b)
		link30(t, net, a, b, "", time.Millisecond)
		pairs[i] = [2]*Host{a, b}
	}
	net.SetFlowCacheEnabled(true)
	return net, pairs
}

// echo runs one probe of pair p the way the prober does — churn tick,
// memo lookup, and on a miss a recorded live echo — and reports whether
// the memo answered it.
func echo(net *Network, p [2]*Host) bool {
	net.ChurnTick()
	src, dst := p[0], p[1]
	key := FlowKey{Src: src.Addr(), Dst: dst.Addr(), Proto: packet.ProtoICMP, A: 7}
	if obs, ok := net.FlowLookup(key, 64); ok {
		net.AdvanceClock(obs.Advance)
		return true
	}
	var reply *packet.Packet
	src.Handler = func(net *Network, pkt *packet.Packet) { net.AdoptPacket(pkt); reply = pkt }
	pkt := &packet.Packet{
		IP:   packet.IPv4{TTL: 64, Protocol: packet.ProtoICMP, Src: src.Addr(), Dst: dst.Addr()},
		ICMP: &packet.ICMP{Type: packet.ICMPEchoRequest, ID: 7, Seq: 1},
	}
	obs := ProbeObs{Advance: net.FlowProbe(src.If, pkt, key, 64)}
	if reply != nil {
		obs.Answered, obs.From, obs.ReplyTTL, obs.ICMPType = true, reply.IP.Src, reply.IP.TTL, reply.ICMP.Type
	}
	net.FlowFinish(64, obs)
	return false
}

// window is the fail → reconverge → repair triple the churn planner
// emits, over scope, firing at the given ticks: fail masks the first node
// of scope, the later events the whole of it.
func window(scope []Node, fail, reconverge, repair uint64) []ChurnEvent {
	return []ChurnEvent{
		{Tick: fail, Kind: "fail", Dev: 1, DevScope: scope, EvictScope: scope[:1]},
		{Tick: reconverge, Kind: "reconverge", EvictScope: scope},
		{Tick: repair, Kind: "repair", Dev: -1, EvictScope: scope},
	}
}

// TestChurnMaskKeepsPristine pins the masking rule's read side: a
// pristine entry crossing the failed scope misses while the window is
// open and hits again after the repair without a live probe, a disjoint
// entry is served throughout, and no event moves TopoGen.
func TestChurnMaskKeepsPristine(t *testing.T) {
	net, pairs := echoPairs(t, 2)
	inside, outside := pairs[0], pairs[1]
	if echo(net, inside) || echo(net, outside) {
		t.Fatal("cold probes hit")
	}
	gen0, st0 := net.TopoGen(), net.FlowCacheStats()
	net.ChurnBegin(window([]Node{inside[1], inside[0]}, 0, 2, 4), false)
	for tick, tc := range []struct {
		pair [2]*Host
		hit  bool
	}{
		{outside, true}, // fail fires
		{inside, false},
		{outside, true}, // reconverge fires
		{inside, false},
	} {
		if got := echo(net, tc.pair); got != tc.hit {
			t.Fatalf("tick %d: hit %v, want %v", tick, got, tc.hit)
		}
	}
	d0 := net.FabricStats().Deliveries
	if !echo(net, inside) { // repair fires
		t.Fatal("pristine entry not served after the repair")
	}
	if d := net.FabricStats().Deliveries - d0; d != 0 {
		t.Fatalf("post-repair hit ran %d deliveries", d)
	}
	if !echo(net, outside) {
		t.Fatal("disjoint entry not served after the repair")
	}
	if net.ChurnDeviant() || net.TopoGen() != gen0 {
		t.Fatalf("after the repair: deviant %v, TopoGen %d -> %d", net.ChurnDeviant(), gen0, net.TopoGen())
	}
	if got := net.FlowCacheStats().Invalidations - st0.Invalidations; got != 3 {
		t.Fatalf("%d invalidations for 3 events", got)
	}
}

// TestChurnWindowRecordingDropped pins the masking rule's write side: a
// recording that crossed a masked node is served until the next event and
// never after it, and it never overwrites the pristine entry the repair
// brings back.
func TestChurnWindowRecordingDropped(t *testing.T) {
	net, pairs := echoPairs(t, 1)
	p := pairs[0]
	key := FlowKey{Src: p[0].Addr(), Dst: p[1].Addr(), Proto: packet.ProtoICMP, A: 7}
	echo(net, p)
	pristine := net.flows.entries[key]
	net.ChurnBegin(window([]Node{p[1], p[0]}, 0, 2, 4), false)
	for tick, hit := range []bool{false, true, false, true} {
		if got := echo(net, p); got != hit {
			t.Fatalf("tick %d: hit %v, want %v", tick, got, hit)
		}
		if net.flows.entries[key] != pristine || net.flows.window[key] == nil || net.flows.window[key] == pristine {
			t.Fatalf("tick %d: window recording not kept apart from the pristine entry", tick)
		}
	}
	if !echo(net, p) { // repair fires
		t.Fatal("pristine entry not served after the repair")
	}
	if len(net.flows.window) != 0 {
		t.Fatalf("%d window-era entries outlived the window", len(net.flows.window))
	}
}

// TestChurnMaskOutsideWindowFlushes pins the two flush rules: an event
// that mutates anything while no window is open flushes (TopoGen moves),
// one that mutates nothing does not; and closing the last window flushes
// instead of lifting the mask when a masked node lies outside every
// window's DevScope.
func TestChurnMaskOutsideWindowFlushes(t *testing.T) {
	net, hosts := churnHosts(t, 3)
	net.SetFlowCacheEnabled(true)
	k := churnKey(30)
	seedEntry(t, net, k, 4, hosts[2])
	fire := func(evs ...ChurnEvent) {
		net.ChurnBegin(evs, false)
		net.ChurnEnd()
	}

	gen0 := net.TopoGen()
	fire(ChurnEvent{Kind: "noop"})
	if _, ok := net.FlowLookup(k, 4); !ok || net.TopoGen() != gen0 {
		t.Fatalf("an event mutating nothing flushed (TopoGen %d -> %d)", gen0, net.TopoGen())
	}
	h0, h1 := []Node{hosts[0]}, []Node{hosts[1]}
	fire(ChurnEvent{Kind: "reconverge", EvictScope: h0})
	if _, ok := net.FlowLookup(k, 4); ok || net.TopoGen() != gen0+1 {
		t.Fatalf("a mutation outside any window did not flush (TopoGen %d -> %d)", gen0, net.TopoGen())
	}

	// A window over hosts[0] whose reconvergence also masks hosts[1].
	seedEntry(t, net, k, 4, hosts[2])
	fire(
		ChurnEvent{Kind: "fail", Dev: 1, DevScope: h0, EvictScope: h0},
		ChurnEvent{Kind: "reconverge", EvictScope: h1},
		ChurnEvent{Kind: "repair", Dev: -1, EvictScope: h0},
	)
	if _, ok := net.FlowLookup(k, 4); ok || net.TopoGen() != gen0+2 || net.churn.masking() {
		t.Fatalf("closing over an unvouched node: TopoGen %d -> %d, masking %v", gen0, net.TopoGen(), net.churn.masking())
	}
	if got := net.FlowCacheStats().Invalidations; got != 5 {
		t.Fatalf("%d invalidations for 5 events", got)
	}
}

// TestTouchedSetPrimitives checks union against a map reference over
// random index lists that repeat within a call and across calls: union
// keeps the list repeat-free, only appends (the old list stays a prefix),
// and leaves the scratch set empty.
func TestTouchedSetPrimitives(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randList := func(n int) []int32 {
		l := make([]int32, rng.Intn(n))
		for i := range l {
			l[i] = int32(rng.Intn(200))
		}
		return l
	}
	var s nodeSet
	for round := 0; round < 50; round++ {
		var list []int32
		ref := map[int32]bool{}
		for call := 0; call < 20; call++ {
			add := randList(24)
			prev := slices.Clone(list)
			list = s.union(list, add)
			for _, i := range add {
				ref[i] = true
			}
			if !slices.Equal(list[:len(prev)], prev) {
				t.Fatalf("round %d call %d: union rewrote the existing list", round, call)
			}
			seen := map[int32]bool{}
			for _, i := range list {
				if seen[i] || !ref[i] {
					t.Fatalf("round %d call %d: %d repeated or never added", round, call, i)
				}
				seen[i] = true
			}
			if len(seen) != len(ref) {
				t.Fatalf("round %d call %d: list holds %d indices, reference %d", round, call, len(seen), len(ref))
			}
			if len(s.list) != 0 || slices.ContainsFunc(s.bits, func(w uint64) bool { return w != 0 }) {
				t.Fatalf("round %d call %d: scratch set left non-empty", round, call)
			}
		}
	}
}

// TestWindowEntryKeepsPristineTouched pins the capacity clip on the
// touched set a window entry shares with the pristine entry it was seeded
// from: growing the window entry's set, then the pristine one's, leaves
// each exactly as folded, even when the pristine list has spare capacity.
func TestWindowEntryKeepsPristineTouched(t *testing.T) {
	net, hosts := churnHosts(t, 5)
	net.SetFlowCacheEnabled(true)
	idx := func(h *Host) int32 { return net.nodeIdx[h] }
	key := churnKey(60)
	p := net.flows.putEntry(key, &flowEntry{t0: 3, maxTTL: 255, steps: []trajStep{{to: hosts[1].If}}})
	p.touched = append(make([]int32, 0, 8), idx(hosts[0]), idx(hosts[1]))
	before := slices.Clone(p.touched[:cap(p.touched)])

	// A window masking a node the pristine entry never touched.
	net.ChurnBegin([]ChurnEvent{{Tick: 0, Kind: "fail", Dev: 1, DevScope: []Node{hosts[4]}, EvictScope: []Node{hosts[4]}}}, false)
	net.ChurnTick()
	e := net.windowEntry(key)
	if len(e.steps) != 1 || !slices.Equal(e.touched, p.touched) {
		t.Fatalf("window entry not seeded from the pristine one: %d steps, touched %v", len(e.steps), e.touched)
	}
	net.flows.fold(e, []int32{idx(hosts[2])}, false)
	if !slices.Equal(p.touched[:cap(p.touched)], before) {
		t.Fatalf("growing the window entry wrote through to the pristine touched set: %v", p.touched[:cap(p.touched)])
	}
	net.flows.fold(p, []int32{idx(hosts[3])}, false)
	if want := []int32{idx(hosts[0]), idx(hosts[1]), idx(hosts[2])}; !slices.Equal(e.touched, want) {
		t.Fatalf("window entry touched %v after the pristine set grew, want %v", e.touched, want)
	}
	if want := []int32{idx(hosts[0]), idx(hosts[1]), idx(hosts[3])}; !slices.Equal(p.touched, want) {
		t.Fatalf("pristine touched %v, want %v", p.touched, want)
	}
	net.ChurnEnd()
}
