// Allocation-regression tier: the fabric's forwarding fast path must stay
// allocation-free once the packet pool and route caches are warm. These
// tests pin the optimisation down with testing.AllocsPerRun so a future
// change that reintroduces per-hop boxing or cloning through the heap
// fails CI rather than silently eating the speedup.
package wormhole

import (
	"slices"
	"testing"

	"wormhole/internal/lab"
	"wormhole/internal/packet"
	"wormhole/internal/probe"
)

// warmInject drives the same probe through the fabric until free lists,
// route caches, and the event queue have reached steady state.
func warmInject(l *lab.Lab, p *packet.Packet) {
	for i := 0; i < 32; i++ {
		l.Net.Inject(l.VP.If, p)
	}
}

// TestForwardPathAllocFree checks the end-to-end echo path: seven hops of
// IP/MPLS forwarding plus the router-built echo reply, all through pooled
// packets. The injected probe is caller-owned and reused, so a run's only
// allocations would come from the fabric itself.
func TestForwardPathAllocFree(t *testing.T) {
	l := lab.MustBuild(lab.Options{Scenario: lab.Default})
	probe := &packet.Packet{
		IP:   packet.IPv4{TTL: 64, Protocol: packet.ProtoICMP, Src: l.VPAddr, Dst: l.CE2Left},
		ICMP: &packet.ICMP{Type: packet.ICMPEchoRequest, ID: 7, Seq: 1},
	}
	warmInject(l, probe)
	allocs := testing.AllocsPerRun(200, func() { l.Net.Inject(l.VP.If, probe) })
	if allocs > 0 {
		t.Errorf("warm echo round-trip allocates %.1f objects, want 0", allocs)
	}
}

// TestTimeExceededPathAllocFree checks the expensive ICMP error path: TTL
// expiry inside the LSP, where the LSR builds a time-exceeded carrying an
// RFC 4884 extension with the RFC 4950 label-stack object.
func TestTimeExceededPathAllocFree(t *testing.T) {
	l := lab.MustBuild(lab.Options{Scenario: lab.Default})
	probe := &packet.Packet{
		IP:   packet.IPv4{TTL: 4, Protocol: packet.ProtoICMP, Src: l.VPAddr, Dst: l.CE2Left},
		ICMP: &packet.ICMP{Type: packet.ICMPEchoRequest, ID: 7, Seq: 2},
	}
	warmInject(l, probe)
	allocs := testing.AllocsPerRun(200, func() { l.Net.Inject(l.VP.If, probe) })
	if allocs > 0 {
		t.Errorf("warm time-exceeded round-trip allocates %.1f objects, want 0", allocs)
	}
}

// TestUDPUnreachablePathAllocFree covers the UDP probe leg: delivery to
// the destination router and the port-unreachable reply with its quote.
func TestUDPUnreachablePathAllocFree(t *testing.T) {
	l := lab.MustBuild(lab.Options{Scenario: lab.Default})
	probe := &packet.Packet{
		IP:  packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: l.VPAddr, Dst: l.CE2Left},
		UDP: &packet.UDP{SrcPort: 33000, DstPort: 33434},
	}
	warmInject(l, probe)
	allocs := testing.AllocsPerRun(200, func() { l.Net.Inject(l.VP.If, probe) })
	if allocs > 0 {
		t.Errorf("warm port-unreachable round-trip allocates %.1f objects, want 0", allocs)
	}
}

// TestProbePathAllocs pins the prober's side of a live probe: it rebuilds
// the prober's own probe packet and copies the observation out of the
// reply, which the fabric recycles. With the flow cache off (a lab's
// default), a warm ping allocates nothing, and a traceroute through the
// RFC 4950 tunnel allocates its Trace and hop list; the quoted stacks
// land on the prober's append-only slab, whose growth rounds away over
// the runs.
func TestProbePathAllocs(t *testing.T) {
	l := lab.MustBuild(lab.Options{Scenario: lab.Default})
	p := l.Prober
	first := p.Traceroute(l.CE2Left)
	var quoted []packet.LabelStack
	for _, h := range first.Hops {
		if h.Labeled() {
			quoted = append(quoted, slices.Clone(h.MPLS))
		}
	}
	if len(quoted) == 0 {
		t.Fatal("no hop of the trace quoted an RFC 4950 stack")
	}
	for i := 0; i < 32; i++ {
		p.Ping(l.CE2Left, 64)
		p.Traceroute(l.CE2Left)
	}
	if allocs := testing.AllocsPerRun(200, func() { p.Ping(l.CE2Left, 64) }); allocs > 0 {
		t.Errorf("warm ping allocates %.1f objects, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { p.Traceroute(l.CE2Left) }); allocs > 2 {
		t.Errorf("warm traceroute allocates %.1f objects, want 2 (its Trace and hop list)", allocs)
	}
	// Hundreds of recycled replies and slab blocks later, the first
	// trace's stacks still read as they were quoted.
	i := 0
	for _, h := range first.Hops {
		if h.Labeled() {
			if !slices.Equal(h.MPLS, quoted[i]) {
				t.Errorf("hop %d: stack %v changed to %v", h.ProbeTTL, quoted[i], h.MPLS)
			}
			i++
		}
	}
}

// TestTracerouteIntoAllocFree pins the bootstrap's probe path: a slot
// traces every job into one reused Trace, so once the hop list has grown,
// a warm traceroute allocates nothing, live or replayed from the flow
// cache. On the live path the quoted stacks still land on the prober's
// slab, whose growth rounds away over the runs.
func TestTracerouteIntoAllocFree(t *testing.T) {
	for _, cached := range []bool{false, true} {
		l := lab.MustBuild(lab.Options{Scenario: lab.Default})
		l.Net.SetFlowCacheEnabled(cached)
		p := l.Prober
		var tr probe.Trace
		for i := 0; i < 32; i++ {
			p.TracerouteInto(&tr, l.CE2Left)
		}
		if allocs := testing.AllocsPerRun(200, func() { p.TracerouteInto(&tr, l.CE2Left) }); allocs > 0 {
			t.Errorf("flow cache %v: warm traceroute into a reused Trace allocates %.1f objects, want 0", cached, allocs)
		}
		if !tr.Reached || tr.Dst != l.CE2Left {
			t.Errorf("flow cache %v: reused trace to %s, reached %v", cached, tr.Dst, tr.Reached)
		}
	}
}
