package netsim

import (
	"reflect"
	"testing"
	"time"

	"wormhole/internal/netaddr"
	"wormhole/internal/packet"
)

// opaqueNode is a Node that does not implement FlowCacheable: its presence
// must keep the flow cache inert.
type opaqueNode struct{ ifc *Iface }

func (o *opaqueNode) Name() string                                      { return "opaque" }
func (o *opaqueNode) Receive(net *Network, in *Iface, p *packet.Packet) {}

// cacheableNode opts in (or out) explicitly.
type cacheableNode struct {
	ifc *Iface
	ok  bool
}

func (c *cacheableNode) Name() string                                      { return "cacheable" }
func (c *cacheableNode) Receive(net *Network, in *Iface, p *packet.Packet) {}
func (c *cacheableNode) FlowCacheable() bool                               { return c.ok }

func testKey(n byte) FlowKey {
	return FlowKey{
		Src:   netaddr.AddrFrom4(10, 0, 0, 1),
		Dst:   netaddr.AddrFrom4(10, 0, 0, n),
		Proto: packet.ProtoICMP,
		A:     0x1234,
	}
}

// TestFlowCachePurityGating checks that the cache only engages on a
// deterministic fabric: host-only fabrics are pure; a node that does not
// report FlowCacheable or an installed Trace hook keeps it inert (a node
// that reports false is TestFlowCacheableOptOut's case).
func TestFlowCachePurityGating(t *testing.T) {
	net, _, _ := pairedHosts(t, time.Millisecond)
	net.SetFlowCacheEnabled(true)
	if !net.flowActive() {
		t.Fatal("host-only fabric should be pure")
	}

	// A Trace hook must disable serving and recording.
	net.Trace = func(at time.Duration, to *Iface, pkt *packet.Packet) {}
	if net.flowActive() {
		t.Error("cache active with a Trace hook installed")
	}
	net.Trace = nil
	if !net.flowActive() {
		t.Error("cache should re-engage once the Trace hook is gone")
	}

	// A node without the FlowCacheable interface is opaque: inert.
	op := &opaqueNode{}
	net.AddNode(op)
	net.InvalidateFlowCache() // force a purity re-scan
	if net.flowActive() {
		t.Error("cache active with an opaque node")
	}
}

// TestFlowCacheableOptOut checks the node-level opt-out: a node reporting
// FlowCacheable() == false (a rate-limiting router, say) keeps the cache
// inert; flipping it back on re-engages after a re-scan.
func TestFlowCacheableOptOut(t *testing.T) {
	net, _, _ := pairedHosts(t, time.Millisecond)
	cn := &cacheableNode{ok: false}
	net.AddNode(cn)
	net.SetFlowCacheEnabled(true)
	if net.flowActive() {
		t.Error("cache active with a node opting out")
	}
	cn.ok = true
	net.InvalidateFlowCache()
	if !net.flowActive() {
		t.Error("cache inert after the node opted back in")
	}
}

// TestFlowCacheDisabledIsInert checks the disabled state: lookups never
// hit, probes fall through to plain injection, and no counters move.
func TestFlowCacheDisabledIsInert(t *testing.T) {
	net, _, h2 := pairedHosts(t, time.Millisecond)
	if _, ok := net.FlowLookup(testKey(2), 3); ok {
		t.Fatal("lookup hit on a disabled cache")
	}
	if got := net.FlowCacheStats(); got != (FlowCacheStats{}) {
		t.Fatalf("disabled cache counted: %+v", got)
	}
	_ = h2
}

// TestMemoizeOutOfOrder pins the dense reply memo: replies memoized in
// any TTL order — across the valid bitmap's words — read back by rank,
// and a second memoize of a TTL overwrites its reply in place.
func TestMemoizeOutOfOrder(t *testing.T) {
	obs := func(ttl uint8) ProbeObs {
		return ProbeObs{Answered: true, ReplyTTL: 255 - ttl, Advance: time.Duration(ttl),
			MPLS: packet.LabelStack{{Label: uint32(ttl), TTL: 1}}}
	}
	over := ProbeObs{Answered: true, From: 0x0a000009, ReplyTTL: 99}
	e := &flowEntry{}
	check := func(step string, want map[uint8]ProbeObs) {
		t.Helper()
		if len(e.replies) != len(want) {
			t.Fatalf("%s: %d replies stored for %d TTLs", step, len(e.replies), len(want))
		}
		for ttl := 0; ttl < 256; ttl++ {
			w, ok := want[uint8(ttl)]
			if e.has(uint8(ttl)) != ok {
				t.Fatalf("%s: has(%d) = %v, want %v", step, ttl, !ok, ok)
			}
			if !ok {
				continue
			}
			if got := e.reply(uint8(ttl)); !reflect.DeepEqual(got, w) {
				t.Errorf("%s: reply(%d) = %+v, want %+v", step, ttl, got, w)
			}
		}
	}
	memoize(e, 64, obs(64))
	memoize(e, 3, obs(3))
	memoize(e, 10, obs(10))
	check("64, 3, 10", map[uint8]ProbeObs{3: obs(3), 10: obs(10), 64: obs(64)})
	memoize(e, 3, over)
	check("3 overwritten", map[uint8]ProbeObs{3: over, 10: obs(10), 64: obs(64)})
	memoize(e, 200, obs(200))
	check("200 added", map[uint8]ProbeObs{3: over, 10: obs(10), 64: obs(64), 200: obs(200)})
}
