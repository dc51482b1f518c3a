package netsim_test

import (
	"testing"

	"wormhole/internal/gen"
	"wormhole/internal/netaddr"
	"wormhole/internal/netsim"
	"wormhole/internal/packet"
	"wormhole/internal/probe"
)

// coldReplica returns a fresh replica of the Small world with the flow
// cache and sweep engine on, as a campaign runs it, and its first
// vantage point's prober.
func coldReplica(t *testing.T) (*gen.Internet, *probe.Prober) {
	t.Helper()
	in, _ := maskFuzzWorld(t)
	w, err := in.Clone()
	if err != nil {
		t.Fatal(err)
	}
	w.Net.SetFlowCacheEnabled(true)
	w.Net.SetSweepEnabled(true)
	return w, w.VPs[0].Prober
}

func icmpKey(p *probe.Prober, dst netaddr.Addr) netsim.FlowKey {
	return netsim.FlowKey{Src: p.Host.Addr(), Dst: dst, Proto: packet.ProtoICMP, A: p.FlowID}
}

// TestColdTraceKeepsFrontierOnly pins frontier-only recording: a cold
// ICMP Paris trace fast-forwards every probe past its first from the
// previous probe's frontier, so its flow entry ends holding exactly one
// trajectory step, whatever the path length, and one memoized reply per
// probed TTL.
func TestColdTraceKeepsFrontierOnly(t *testing.T) {
	w, p := coldReplica(t)
	p.Method = probe.ICMPParis
	traced := 0
	for _, dst := range w.RouterAddrs() {
		tr := p.Traceroute(dst)
		if len(tr.Hops) < 4 {
			continue
		}
		steps, replies, _, ok := w.Net.FlowFootprint(icmpKey(p, dst))
		if !ok {
			t.Fatalf("no flow entry after tracing %s", dst)
		}
		if steps != 1 {
			t.Errorf("trace of %d hops to %s: entry holds %d trajectory steps, want 1", len(tr.Hops), dst, steps)
		}
		if replies != len(tr.Hops) {
			t.Errorf("trace of %d hops to %s: %d memoized replies, want one per probed TTL", len(tr.Hops), dst, replies)
		}
		if traced++; traced == 5 {
			return
		}
	}
	t.Fatalf("only %d traces of 4 hops or more", traced)
}

// TestPingStoresOneReply pins the dense reply memo: a TTL-64 ping on a
// fresh flow stores one reply and holds no room for the TTLs below it.
func TestPingStoresOneReply(t *testing.T) {
	w, p := coldReplica(t)
	dst := w.VPs[len(w.VPs)-1].Host.Addr()
	if _, ok := p.Ping(dst, 64); !ok {
		t.Fatalf("ping to %s unanswered", dst)
	}
	_, replies, replyCap, ok := w.Net.FlowFootprint(icmpKey(p, dst))
	if !ok || replies != 1 || replyCap != 1 {
		t.Fatalf("after a TTL-64 ping: entry %v, %d replies, capacity %d; want 1 reply, capacity 1", ok, replies, replyCap)
	}
}
