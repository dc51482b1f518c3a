package lab

import (
	"testing"

	"wormhole/internal/netaddr"
	"wormhole/internal/probe"
	"wormhole/internal/router"
)

// warmLab builds the default testbed with the flow-trajectory cache
// enabled and warms it with one traceroute to CE2.
func warmLab(t *testing.T) *Lab {
	t.Helper()
	l, err := Build(Options{Scenario: Default})
	if err != nil {
		t.Fatal(err)
	}
	l.Net.SetFlowCacheEnabled(true)
	if tr := l.Prober.Traceroute(l.CE2Left); !tr.Reached {
		t.Fatalf("warmup trace failed: %+v", tr.Hops)
	}
	return l
}

// sameTrace compares the observable fields of two traces.
func sameTrace(a, b *probe.Trace) bool {
	if a.Reached != b.Reached || len(a.Hops) != len(b.Hops) {
		return false
	}
	for i := range a.Hops {
		ha, hb := a.Hops[i], b.Hops[i]
		if ha.ProbeTTL != hb.ProbeTTL || ha.Addr != hb.Addr || ha.RTT != hb.RTT ||
			ha.ReplyTTL != hb.ReplyTTL || ha.ICMPType != hb.ICMPType || ha.ICMPCode != hb.ICMPCode ||
			len(ha.MPLS) != len(hb.MPLS) {
			return false
		}
		for j := range ha.MPLS {
			if ha.MPLS[j] != hb.MPLS[j] {
				return false
			}
		}
	}
	return true
}

// TestFlowCacheInvalidatedByMutations drives every control-plane mutation
// hook mid-probing and checks the contract: the mutation flushes the cache
// (Invalidations advances, the next probe misses), and the post-mutation
// trace is byte-identical to a cold-cache oracle that applied the same
// mutation to a fresh, cache-disabled testbed.
func TestFlowCacheInvalidatedByMutations(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(l *Lab)
	}{
		{"SetConfig", func(l *Lab) {
			// The ingress stops propagating TTL: the tunnel goes invisible.
			cfg := l.PE1.Config()
			cfg.TTLPropagate = false
			l.PE1.SetConfig(cfg)
		}},
		{"ClearMPLS", func(l *Lab) { l.P2.ClearMPLS() }},
		{"InstallRoute", func(l *Lab) {
			// Pin a host route for CE2's address over the next hops P2
			// already resolves it through: a new FIB entry, same path.
			_, rt, ok := l.P2.LookupRoute(l.CE2Left)
			if !ok {
				panic("no route to CE2 on P2")
			}
			l.P2.InstallRoute(netaddr.HostPrefix(l.CE2Left), &router.Route{Origin: rt.Origin, NextHops: rt.NextHops})
		}},
		{"InstallLFIB", func(l *Lab) {
			// Adding an (unused) label entry is still a mutation:
			// forwarding state changed, so everything recorded must go.
			l.P2.InstallLFIB(&router.LFIBEntry{
				InLabel:  l.P2.AllocLabel(),
				NextHops: []router.LabelHop{{Out: l.P2.Ifaces()[0], Label: router.OutLabelImplicitNull}},
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := warmLab(t)

			// Sanity: a warmed repeat is served from the memo.
			s0 := l.Net.FlowCacheStats()
			l.Prober.Traceroute(l.CE2Left)
			s1 := l.Net.FlowCacheStats()
			if s1.Hits <= s0.Hits {
				t.Fatalf("warmed repeat did not hit the cache: %+v -> %+v", s0, s1)
			}

			tc.mutate(l)
			s2 := l.Net.FlowCacheStats()
			if s2.Invalidations != s1.Invalidations+1 {
				t.Fatalf("mutation did not invalidate: %+v -> %+v", s1, s2)
			}

			tr1 := l.Prober.Traceroute(l.CE2Left)
			s3 := l.Net.FlowCacheStats()
			if s3.Misses <= s2.Misses {
				t.Errorf("post-mutation trace was served from a flushed cache: %+v -> %+v", s2, s3)
			}

			// Cold oracle: fresh testbed, same mutation, cache never
			// enabled. ICMP Paris probing keeps the flow hash independent
			// of the probe token stream, so the traces are comparable even
			// though the oracle's prober starts from token zero.
			o, err := Build(Options{Scenario: Default})
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(o)
			otr := o.Prober.Traceroute(o.CE2Left)
			if !sameTrace(tr1, otr) {
				t.Errorf("post-mutation trace diverged from cold oracle:\ncached: %+v\noracle: %+v", tr1.Hops, otr.Hops)
			}
			// Repeat traces stay deterministic after the mutation too.
			tr2 := l.Prober.Traceroute(l.CE2Left)
			if !sameTrace(tr1, tr2) {
				t.Errorf("post-mutation traces unstable:\nfirst:  %+v\nsecond: %+v", tr1.Hops, tr2.Hops)
			}
		})
	}
}

// TestFlowCacheZeroAllocSteadyState pins the allocation-free fast path: a
// memoized probe (warm flow, warm TTL) allocates nothing.
func TestFlowCacheZeroAllocSteadyState(t *testing.T) {
	l := warmLab(t)
	if _, ok := l.Prober.Ping(l.CE2Left, 64); !ok {
		t.Fatal("warmup ping failed")
	}
	s0 := l.Net.FlowCacheStats()
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := l.Prober.Ping(l.CE2Left, 64); !ok {
			t.Fatal("cached ping failed")
		}
	})
	s1 := l.Net.FlowCacheStats()
	if s1.Hits <= s0.Hits || s1.Misses != s0.Misses {
		t.Fatalf("pings were not served from the memo: %+v -> %+v", s0, s1)
	}
	if allocs != 0 {
		t.Errorf("cached probe allocates %.1f objects per run, want 0", allocs)
	}
}
