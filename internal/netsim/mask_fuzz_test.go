// The masking differential fuzzer. External test package: the world and
// its churn schedules come from gen, which imports netsim.
package netsim_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"wormhole/internal/gen"
	"wormhole/internal/netaddr"
	"wormhole/internal/probe"
)

var maskWorld struct {
	once sync.Once
	in   *gen.Internet
	dsts []netaddr.Addr
	err  error
}

// maskFuzzWorld builds the Small rung once per process, with its probe
// destinations: every router address and every vantage point.
func maskFuzzWorld(t testing.TB) (*gen.Internet, []netaddr.Addr) {
	w := &maskWorld
	w.once.Do(func() {
		p := gen.DefaultParams(2024)
		p.NumTier1, p.NumTransit, p.NumStub, p.NumVPs = 2, 5, 10, 5 // the Small rung
		if w.in, w.err = gen.Build(p); w.err != nil {
			return
		}
		w.dsts = w.in.RouterAddrs()
		for _, vp := range w.in.VPs {
			w.dsts = append(w.dsts, vp.Host.Addr())
		}
	})
	if w.err != nil {
		t.Fatal(w.err)
	}
	return w.in, w.dsts
}

// maskOp runs one fuzzed probe operation on a fabric and renders what the
// prober observed, its counters and the virtual clock. op selects the
// vantage point (low three bits), the method (bit 3), a ping instead of
// a traceroute (bit 4) and a traceroute's first TTL (bits 5–6).
func maskOp(in *gen.Internet, op byte, dst netaddr.Addr) string {
	p := in.VPs[int(op&7)%len(in.VPs)].Prober
	var sb strings.Builder
	if op&0x10 != 0 {
		r, ok := p.Ping(dst, 0)
		fmt.Fprintf(&sb, "ping %v %+v", ok, r)
	} else {
		p.Method = probe.ICMPParis
		if op&8 != 0 {
			p.Method = probe.UDPParis
		}
		p.FirstTTL = 1 + op>>5&3
		tr := p.Traceroute(dst)
		fmt.Fprintf(&sb, "trace reached=%v", tr.Reached)
		for _, h := range tr.Hops {
			fmt.Fprintf(&sb, " [%d %s rtt=%d rttl=%d t=%d c=%d mpls=%v]",
				h.ProbeTTL, h.Addr, h.RTT.Nanoseconds(), h.ReplyTTL, h.ICMPType, h.ICMPCode, h.MPLS)
		}
	}
	fmt.Fprintf(&sb, " sent=%d recv=%d now=%d", p.Sent, p.Recv, in.Net.Now())
	return sb.String()
}

// FuzzChurnMasking is the differential fuzzer for churn masking. Each
// input is a churn rate, a schedule seed and a probe sequence (two bytes
// per operation: maskOp's selector, then a destination). Two replicas of
// one Small world — one with the flow cache on, one with it off, the
// per-probe oracle — arm the same gen.BuildChurnPlan schedule and run the
// sequence, then do it all again on their warm state; with the rate's
// high bit set, a quiescent pass first fills the cache with pristine
// state (UDP port-cycle slots included) for the windows to mask. Every observation, counter and clock reading
// must be identical. A mask that serves a stale pristine entry, a
// window-era recording that outlives its interval, or a repair that lifts
// the mask too early shows up as a divergence.
func FuzzChurnMasking(f *testing.F) {
	in, dsts := maskFuzzWorld(f)
	// Seeds: ICMP traces across the schedule; UDP traces after a
	// quiescent pass; mixed pings and traceroutes from later first TTLs.
	f.Add(byte(4), int64(1), []byte{0, 10, 1, 200, 2, 33, 3, 77, 4, 150, 0, 10, 1, 201})
	f.Add(byte(0x82), int64(7), []byte{8, 10, 9, 200, 10, 33, 11, 77, 12, 150, 8, 10, 9, 201, 10, 34})
	f.Add(byte(6), int64(42), []byte{0x10, 5, 0x21, 90, 0x48, 120, 0x62, 17, 0x13, 66, 0x2a, 240})
	f.Fuzz(func(t *testing.T, rate byte, seed int64, ops []byte) {
		if len(ops) > 24 {
			ops = ops[:24]
		}
		cached, err := in.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := in.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		cached.Net.SetFlowCacheEnabled(true)
		plan := gen.BuildChurnPlan(in, float64(rate&0x7f%9)/2, seed)
		targets := 1 + len(ops)/8
		rounds := []bool{true, true}
		if rate&0x80 != 0 {
			rounds = []bool{false, true, true}
		}
		for round, churned := range rounds {
			for _, w := range []*gen.Internet{cached, oracle} {
				if churned {
					w.Net.ChurnBegin(plan.EventsFor(w, int(uint8(seed)), targets), false)
				}
			}
			for i := 0; i+1 < len(ops); i += 2 {
				dst := dsts[int(ops[i+1])%len(dsts)]
				got, want := maskOp(cached, ops[i], dst), maskOp(oracle, ops[i], dst)
				if got != want {
					t.Fatalf("round %d op %d (%#x toward %s):\ncached %s\noracle %s", round, i/2, ops[i], dst, got, want)
				}
			}
			for _, w := range []*gen.Internet{cached, oracle} {
				w.Net.ChurnEnd()
			}
			if cached.Net.ChurnFired() != oracle.Net.ChurnFired() {
				t.Fatalf("round %d: cached fired %d events, oracle %d", round, cached.Net.ChurnFired(), oracle.Net.ChurnFired())
			}
		}
	})
}
