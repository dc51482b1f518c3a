package probe

import (
	"testing"
	"time"

	"wormhole/internal/netsim"
	"wormhole/internal/packet"
)

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

// TestICMPTraceFastForwardsWithoutWalking pins the probe-level contract
// of the ICMP cold path on a pure fabric with both engines on: an ICMP
// Paris trace never walks — each probe past the first fast-forwards to
// the flow's recorded frontier — and the trace, Sent/Recv accounting and
// virtual clock included, is identical to the per-probe run.
func TestICMPTraceFastForwardsWithoutWalking(t *testing.T) {
	a := buildLine(t, 3)
	off := a.prober.Traceroute(a.host.Addr())

	b := buildLine(t, 3)
	b.net.SetFlowCacheEnabled(true)
	b.net.SetSweepEnabled(true)
	on := b.prober.Traceroute(b.host.Addr())

	tracesEqual(t, off, on)
	if s := b.net.SweepStats(); s != (netsim.SweepStats{}) {
		t.Errorf("ICMP trace moved the sweep counters: %+v", s)
	}
	if fc := b.net.FlowCacheStats(); fc.FastForwards == 0 {
		t.Errorf("ICMP trace never fast-forwarded: %+v", fc)
	}
	if a.prober.Sent != b.prober.Sent || a.prober.Recv != b.prober.Recv {
		t.Errorf("accounting differs: per-probe Sent/Recv %d/%d, cached %d/%d",
			a.prober.Sent, a.prober.Recv, b.prober.Sent, b.prober.Recv)
	}
	if a.net.Now() != b.net.Now() {
		t.Errorf("virtual clock differs: per-probe %v, cached %v", a.net.Now(), b.net.Now())
	}
}

// TestSweepPurityFallbackRateLimited proves the purity gate: on a fabric
// with an ICMP rate-limited router the sweep must stay inert even with the
// flow cache requested — no walks, no synthesized replies — and the trace
// runs per-probe.
func TestSweepPurityFallbackRateLimited(t *testing.T) {
	l := buildLine(t, 3)
	cfg := l.rs[1].Config()
	cfg.ICMPInterval = time.Millisecond
	l.rs[1].SetConfig(cfg)
	l.net.SetFlowCacheEnabled(true)
	l.net.SetSweepEnabled(true)
	l.prober.Method = UDPParis
	tr := l.prober.Traceroute(l.host.Addr())
	if len(tr.Hops) == 0 {
		t.Fatal("trace produced no hops")
	}
	if s := l.net.SweepStats().Total(); s.Walks != 0 || s.Replies != 0 {
		t.Errorf("sweep engaged on an impure fabric: %+v", s)
	}
}

// TestSweepUDPFallsBackPerProbe pins that without the flow cache a UDP
// Paris trace never sweeps: slot walks are flow-cache entries, so with the
// cache off the engine stays inert and the trace runs per-probe.
func TestSweepUDPFallsBackPerProbe(t *testing.T) {
	l := buildLine(t, 3)
	l.net.SetSweepEnabled(true)
	l.prober.Method = UDPParis
	tr := l.prober.Traceroute(l.host.Addr())
	if !tr.Reached {
		t.Fatalf("UDP trace not reached: %+v", tr.Hops)
	}
	if tr.Hops[len(tr.Hops)-1].ICMPType != packet.ICMPDestUnreach {
		t.Errorf("UDP trace should end in port-unreachable: %+v", tr.Hops[len(tr.Hops)-1])
	}
	if s := l.net.SweepStats().Total(); s.Walks != 0 {
		t.Errorf("UDP trace swept without the flow cache: %+v", s)
	}
}

// TestSweepUDPTraceMatchesPerProbe pins the probe-level contract of the
// UDP slot walk on a pure fabric with the flow cache on: the first probe
// of the trace triggers one walk, lower TTLs replay as derived memo hits,
// and the trace — Sent/Recv accounting and virtual clock included — is
// identical to the per-probe run.
func TestSweepUDPTraceMatchesPerProbe(t *testing.T) {
	a := buildLine(t, 3)
	a.prober.Method = UDPParis
	off := a.prober.Traceroute(a.host.Addr())

	b := buildLine(t, 3)
	b.prober.Method = UDPParis
	b.net.SetFlowCacheEnabled(true)
	b.net.SetSweepEnabled(true)
	on := b.prober.Traceroute(b.host.Addr())

	tracesEqual(t, off, on)
	if s := b.net.SweepStats(); s.UDP.Walks == 0 || s.UDP.Replies == 0 {
		t.Errorf("UDP slot sweep did not engage: %+v", s)
	}
	if a.prober.Sent != b.prober.Sent || a.prober.Recv != b.prober.Recv {
		t.Errorf("accounting differs: per-probe Sent/Recv %d/%d, sweep %d/%d",
			a.prober.Sent, a.prober.Recv, b.prober.Sent, b.prober.Recv)
	}
	if a.net.Now() != b.net.Now() {
		t.Errorf("virtual clock differs: per-probe %v, sweep %v", a.net.Now(), b.net.Now())
	}
}
