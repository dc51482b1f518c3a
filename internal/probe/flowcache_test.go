package probe

import (
	"testing"
	"time"

	"wormhole/internal/netsim"
	"wormhole/internal/packet"
)

// TestNextTokenNeverZeroAndUnique pins the probe-token contract: tokens
// are non-zero (so they never collide with the zero IP identifier of
// non-probe traffic) and unique across any 65535-probe window, across the
// uint16 wraparound included.
func TestNextTokenNeverZeroAndUnique(t *testing.T) {
	p := &Prober{}
	p.seq = 65530 // straddle the wrap
	seen := make(map[uint16]int)
	for i := 0; i < 65535; i++ {
		tok := p.nextToken()
		if tok == 0 {
			t.Fatalf("token %d is zero", i)
		}
		if j, dup := seen[tok]; dup {
			t.Fatalf("token %#x repeated at %d and %d", tok, j, i)
		}
		seen[tok] = i
	}
	// The 65536th draw may legitimately repeat the first.
	if tok := p.nextToken(); tok == 0 {
		t.Fatal("wrapped token is zero")
	}
}

// TestTracerouteAcrossTokenWrap replays a full TTL ladder with the
// sequence counter parked just below the 16-bit wrap: the zero token must
// be skipped and every reply still matched. The ladder drives probe()
// directly — Traceroute reseeds the sequence per trace, which would
// un-park it.
func TestTracerouteAcrossTokenWrap(t *testing.T) {
	l := buildLine(t, 3)
	l.prober.seq = 0xFFFE
	for ttl := uint8(1); ttl <= 4; ttl++ {
		if obs := l.prober.probe(l.host.Addr(), ttl, ICMPParis); !obs.Answered {
			t.Errorf("probe at TTL %d unmatched across token wrap", ttl)
		}
	}
	if l.prober.Sent != l.prober.Recv {
		t.Errorf("Sent %d != Recv %d across wrap", l.prober.Sent, l.prober.Recv)
	}
}

// TestUDPQuoteMatchingUsesIPID is the regression test for the UDP
// port-cycle aliasing fix: two probes 128 tokens apart share the same
// destination port, so the quoted transport pair alone cannot tell them
// apart — the quoted IP identifier (the full 16-bit token) must decide.
func TestUDPQuoteMatchingUsesIPID(t *testing.T) {
	net := netsim.New()
	p := &Prober{Net: net, FlowID: 0x1234}

	// Pretend a UDP probe with token 7 is in flight.
	token := uint16(7)
	p.pending = await{id: p.FlowID, seq: udpBasePort + token%128, ipid: token}
	p.waiting = true

	reply := func(quotedToken uint16) *packet.Packet {
		return &packet.Packet{
			ICMP: &packet.ICMP{
				Type: packet.ICMPTimeExceeded,
				Quote: &packet.Quote{
					IP: packet.IPv4{ID: quotedToken, Protocol: packet.ProtoUDP},
					ID: p.FlowID,
					// Same port-cycle slot as the pending probe.
					Seq: udpBasePort + quotedToken%128,
				},
			},
		}
	}

	// A stale reply quoting token 7+128 hits the same port but must NOT
	// match the pending probe.
	p.handle(net, reply(token+128))
	if p.pending.obs.Answered || p.Recv != 0 {
		t.Fatal("aliased quote (same port, different token) was matched")
	}
	// The genuine reply must match.
	p.handle(net, reply(token))
	if !p.pending.obs.Answered || p.Recv != 1 {
		t.Fatal("genuine quote was not matched")
	}
}

// tracesEqual compares two traces hop for hop, RTTs and RFC 4950 stacks
// included.
func tracesEqual(t *testing.T, want, got *Trace) {
	t.Helper()
	if want.Reached != got.Reached || len(want.Hops) != len(got.Hops) {
		t.Fatalf("trace shape differs: want reached=%v hops=%d, got reached=%v hops=%d",
			want.Reached, len(want.Hops), got.Reached, len(got.Hops))
	}
	for i := range want.Hops {
		w, g := want.Hops[i], got.Hops[i]
		if w.Addr != g.Addr || w.RTT != g.RTT || w.ReplyTTL != g.ReplyTTL ||
			w.ICMPType != g.ICMPType || w.ICMPCode != g.ICMPCode || len(w.MPLS) != len(g.MPLS) {
			t.Errorf("hop %d differs: want %+v, got %+v", i, w, g)
			continue
		}
		for j := range w.MPLS {
			if w.MPLS[j] != g.MPLS[j] {
				t.Errorf("hop %d LSE %d differs: want %+v, got %+v", i, j, w.MPLS[j], g.MPLS[j])
			}
		}
	}
}

// cachedMatchesPerProbe traces the line's host with the given method on a
// per-probe fabric and on one with the flow cache on, and requires the
// traces, the Sent/Recv accounting and the virtual clocks to agree. It
// returns the cached fabric's counters.
func cachedMatchesPerProbe(t *testing.T, method Method) netsim.FlowCacheStats {
	t.Helper()
	a := buildLine(t, 3)
	a.prober.Method = method
	off := a.prober.Traceroute(a.host.Addr())

	b := buildLine(t, 3)
	b.prober.Method = method
	b.net.SetFlowCacheEnabled(true)
	on := b.prober.Traceroute(b.host.Addr())

	tracesEqual(t, off, on)
	if a.prober.Sent != b.prober.Sent || a.prober.Recv != b.prober.Recv {
		t.Errorf("accounting differs: per-probe Sent/Recv %d/%d, cached %d/%d",
			a.prober.Sent, a.prober.Recv, b.prober.Sent, b.prober.Recv)
	}
	if a.net.Now() != b.net.Now() {
		t.Errorf("virtual clock differs: per-probe %v, cached %v", a.net.Now(), b.net.Now())
	}
	return b.net.FlowCacheStats()
}

// TestFlowCacheICMPFastForward pins the ICMP cold path on a pure fabric:
// each probe of an ICMP Paris trace past the first fast-forwards to the
// flow's recorded frontier, and the trace is identical to the per-probe
// run.
func TestFlowCacheICMPFastForward(t *testing.T) {
	if fc := cachedMatchesPerProbe(t, ICMPParis); fc.FastForwards == 0 {
		t.Errorf("ICMP trace never fast-forwarded: %+v", fc)
	}
}

// TestSweepUDPTraceMatchesPerProbe pins the UDP cold path on a pure
// fabric: every probe of a UDP Paris trace is its own port-cycle flow, so
// each one runs live and memoizes its reply, and the trace is identical
// to the per-probe run.
func TestSweepUDPTraceMatchesPerProbe(t *testing.T) {
	if fc := cachedMatchesPerProbe(t, UDPParis); fc.Misses == 0 {
		t.Errorf("UDP trace never consulted the cache: %+v", fc)
	}
}

// TestFlowCachePurityFallbackRateLimited proves the purity gate: on a
// fabric with an ICMP rate-limited router the cache must stay inert even
// when requested — no lookup, no recording — and the trace runs
// per-probe.
func TestFlowCachePurityFallbackRateLimited(t *testing.T) {
	l := buildLine(t, 3)
	cfg := l.rs[1].Config()
	cfg.ICMPInterval = time.Millisecond
	l.rs[1].SetConfig(cfg)
	l.net.SetFlowCacheEnabled(true)
	l.prober.Method = UDPParis
	tr := l.prober.Traceroute(l.host.Addr())
	if len(tr.Hops) == 0 {
		t.Fatal("trace produced no hops")
	}
	if fc := l.net.FlowCacheStats(); fc != (netsim.FlowCacheStats{}) {
		t.Errorf("flow cache engaged on an impure fabric: %+v", fc)
	}
}

// TestFlowCacheOffUDPPerProbe pins that with the flow cache off a UDP
// Paris trace runs per-probe to the destination's port-unreachable and
// moves no cache counter.
func TestFlowCacheOffUDPPerProbe(t *testing.T) {
	l := buildLine(t, 3)
	l.prober.Method = UDPParis
	tr := l.prober.Traceroute(l.host.Addr())
	if !tr.Reached {
		t.Fatalf("UDP trace not reached: %+v", tr.Hops)
	}
	if tr.Hops[len(tr.Hops)-1].ICMPType != packet.ICMPDestUnreach {
		t.Errorf("UDP trace should end in port-unreachable: %+v", tr.Hops[len(tr.Hops)-1])
	}
	if fc := l.net.FlowCacheStats(); fc != (netsim.FlowCacheStats{}) {
		t.Errorf("UDP trace moved the cache counters with the cache off: %+v", fc)
	}
}
