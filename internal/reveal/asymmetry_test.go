package reveal

import (
	"testing"
	"time"

	"wormhole/internal/igp"
	"wormhole/internal/netaddr"
	"wormhole/internal/netsim"
	"wormhole/internal/probe"
	"wormhole/internal/router"
	"wormhole/internal/rsvpte"
)

// Sec. 3.4 warns that FRPLA "faces the risk of producing false positives
// (a tunnel length of X hops is inferred because the return path has X
// more hops than the forward one due to routing asymmetry)". This test
// constructs exactly that situation — a VISIBLE network whose return path
// detours two extra hops via a TE tunnel — and shows the per-trace FRPLA
// reading a positive shift with zero hidden hops, while the revelation
// process correctly finds nothing.
func TestFRPLAFalsePositiveFromAsymmetry(t *testing.T) {
	// vp - a - {b | c - d} - e - h. Forward: a-b-e (short). Return: TE
	// tunnel steers e's traffic for the VP prefix via d-c (long), with
	// ttl-propagate ON so nothing is hidden.
	net := netsim.New()
	cfg := router.Config{MPLSEnabled: true, TTLPropagate: true}
	mk := func(name string, i int) *router.Router {
		r := router.New(name, router.Cisco, cfg)
		r.SetLoopback(netaddr.AddrFrom4(192, 168, 99, byte(i+1)))
		net.AddNode(r)
		return r
	}
	a, b, c, d, e := mk("a", 0), mk("b", 1), mk("c", 2), mk("d", 3), mk("e", 4)
	all := []*router.Router{a, b, c, d, e}
	sub := 0
	wire := func(x, y *router.Router) {
		p := netaddr.MustPrefixFrom(netaddr.AddrFrom4(10, 99, byte(sub), 0), 30)
		sub++
		xi := x.AddIface("to-"+y.Name(), p.Nth(1), p)
		yi := y.AddIface("to-"+x.Name(), p.Nth(2), p)
		net.Connect(xi, yi, time.Millisecond)
	}
	wire(a, b)
	wire(b, e)
	wire(a, c)
	wire(c, d)
	wire(d, e)

	vpP := netaddr.MustParsePrefix("10.99.100.0/30")
	vp := netsim.NewHost("vp", vpP.Nth(2), vpP)
	net.AddNode(vp)
	ai := a.AddIface("to-vp", vpP.Nth(1), vpP)
	net.Connect(ai, vp.If, time.Millisecond)
	hP := netaddr.MustParsePrefix("10.99.101.0/30")
	h := netsim.NewHost("h", hP.Nth(2), hP)
	net.AddNode(h)
	ei := e.AddIface("to-h", hP.Nth(1), hP)
	net.Connect(ei, h.If, time.Millisecond)
	dom := &igp.Domain{Routers: all}
	if _, err := dom.Compute(); err != nil {
		t.Fatal(err)
	}
	// The asymmetry: e's replies toward the VP detour via d and c.
	if err := rsvpte.Signal(&rsvpte.Tunnel{
		Name: "return-detour",
		Path: []*router.Router{e, d, c, a},
		FEC:  vpP,
	}); err != nil {
		t.Fatal(err)
	}

	prober := probe.New(net, vp)
	tr := prober.Traceroute(h.Addr())
	if !tr.Reached {
		t.Fatalf("not reached: %+v", tr.Hops)
	}
	var eHop probe.Hop
	for _, hop := range tr.Hops {
		if e.IsLocal(hop.Addr) {
			eHop = hop
		}
	}
	if eHop.Anonymous() {
		t.Fatal("e not observed")
	}
	s, ok := FRPLA(eHop, 255)
	if !ok {
		t.Fatal("FRPLA rejected the hop")
	}
	// The per-trace reading claims hidden hops...
	if s.RFA() < 1 {
		t.Fatalf("RFA = %d, expected a positive false signal from asymmetry", s.RFA())
	}
	// ...but revelation (correctly) finds nothing between a and e's
	// predecessors: there IS no hidden tunnel.
	cand, ok := CandidateFromTrace(tr)
	if !ok {
		t.Fatal("no candidate")
	}
	rev := Reveal(prober, cand.Ingress.Addr, cand.Egress.Addr)
	if len(rev.Hops) != 0 {
		t.Errorf("revelation invented hops on an asymmetric but visible path: %v", rev.Hops)
	}
	// This is why Sec. 3.4 mandates AS-scale aggregation for FRPLA: a
	// single positive sample is not evidence.
	agg := NewASAggregator()
	agg.Add(99, s)
	if v, _ := agg.Verdict(99); v.Suspected {
		t.Error("aggregator flagged an AS on one asymmetric sample")
	}
}
