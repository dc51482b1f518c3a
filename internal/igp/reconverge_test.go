// Reconvergence tests live in an external test package so they can drive
// the full igp+ldp control plane without an import cycle.
package igp_test

import (
	"testing"
	"time"

	"wormhole/internal/igp"
	"wormhole/internal/ldp"
	"wormhole/internal/netaddr"
	"wormhole/internal/netsim"
	"wormhole/internal/packet"
	"wormhole/internal/probe"
	"wormhole/internal/router"
)

// mplsDiamond wires vp - a - {b | c} - d - h with MPLS everywhere so a
// tunnel crosses the diamond.
type mplsDiamond struct {
	net        *netsim.Network
	vp, host   *netsim.Host
	a, b, c, d *router.Router
	all        []*router.Router
	prober     *probe.Prober
}

func buildMPLSDiamond(t *testing.T) *mplsDiamond {
	t.Helper()
	net := netsim.New()
	f := &mplsDiamond{net: net}
	cfg := router.Config{MPLSEnabled: true, LDP: router.LDPAllPrefixes} // invisible
	mk := func(name string, i int) *router.Router {
		r := router.New(name, router.Cisco, cfg)
		r.SetLoopback(netaddr.AddrFrom4(192, 168, 55, byte(i+1)))
		net.AddNode(r)
		f.all = append(f.all, r)
		return r
	}
	f.a, f.b, f.c, f.d = mk("a", 0), mk("b", 1), mk("c", 2), mk("d", 3)
	sub := 0
	wire := func(x, y *router.Router) {
		p := netaddr.MustPrefixFrom(netaddr.AddrFrom4(10, 55, byte(sub), 0), 30)
		sub++
		xi := x.AddIface("to-"+y.Name(), p.Nth(1), p)
		yi := y.AddIface("to-"+x.Name(), p.Nth(2), p)
		net.Connect(xi, yi, time.Millisecond)
	}
	wire(f.a, f.b)
	wire(f.b, f.d)
	wire(f.a, f.c)
	wire(f.c, f.d)

	vpP := netaddr.MustParsePrefix("10.55.100.0/30")
	f.vp = netsim.NewHost("vp", vpP.Nth(2), vpP)
	net.AddNode(f.vp)
	ai := f.a.AddIface("to-vp", vpP.Nth(1), vpP)
	net.Connect(ai, f.vp.If, time.Millisecond)
	hP := netaddr.MustParsePrefix("10.55.101.0/30")
	f.host = netsim.NewHost("h", hP.Nth(2), hP)
	net.AddNode(f.host)
	di := f.d.AddIface("to-h", hP.Nth(1), hP)
	net.Connect(di, f.host.If, time.Millisecond)

	f.converge(t)
	f.prober = probe.New(net, f.vp)
	return f
}

// converge (re)runs the control plane: fresh SPF and label state.
func (f *mplsDiamond) converge(t *testing.T) {
	t.Helper()
	for _, r := range f.all {
		r.ClearMPLS()
	}
	dom := &igp.Domain{Routers: f.all}
	spf, err := dom.Compute()
	if err != nil {
		t.Fatal(err)
	}
	ldp.Build(f.all, spf)
}

// branchOf reports which middle router the *forward* flow crosses, using
// a trace hook filtered to probe packets (replies may legitimately hash to
// the other branch).
func (f *mplsDiamond) branchOf(t *testing.T) string {
	t.Helper()
	seen := map[string]bool{}
	prev := f.net.Trace
	f.net.Trace = func(_ time.Duration, to *netsim.Iface, pkt *packet.Packet) {
		if pkt.IP.Dst != f.host.Addr() {
			return
		}
		if r, ok := to.Owner.(*router.Router); ok && (r == f.b || r == f.c) {
			seen[r.Name()] = true
		}
	}
	defer func() { f.net.Trace = prev }()
	tr := f.prober.Traceroute(f.host.Addr())
	if !tr.Reached {
		t.Fatalf("trace failed: %+v", tr.Hops)
	}
	switch {
	case seen["b"] && !seen["c"]:
		return "b"
	case seen["c"] && !seen["b"]:
		return "c"
	default:
		return "both"
	}
}

func TestReconvergenceAfterLinkFailure(t *testing.T) {
	f := buildMPLSDiamond(t)
	before := f.branchOf(t)
	if before == "both" {
		t.Fatalf("flow crossed both branches in one trace")
	}

	// Kill the branch in use.
	victim := f.b
	if before == "c" {
		victim = f.c
	}
	for _, ifc := range victim.Ifaces() {
		ifc.Link.Up = false
	}
	f.converge(t)

	after := f.branchOf(t)
	if after == before || after == "both" {
		t.Fatalf("flow still on branch %q after failing it (was %q)", after, before)
	}

	// Restore and reconverge back: both branches usable again, traffic
	// must still flow.
	for _, ifc := range victim.Ifaces() {
		ifc.Link.Up = true
	}
	f.converge(t)
	tr := f.prober.Traceroute(f.host.Addr())
	if !tr.Reached {
		t.Fatalf("trace failed after restoration: %+v", tr.Hops)
	}
}

func TestFailureWithoutReconvergenceBlackholes(t *testing.T) {
	f := buildMPLSDiamond(t)
	// Fail BOTH branches: without any alternative, traffic dies whether
	// or not the control plane reconverges.
	for _, r := range []*router.Router{f.b, f.c} {
		for _, ifc := range r.Ifaces() {
			ifc.Link.Up = false
		}
	}
	tr := f.prober.Traceroute(f.host.Addr())
	if tr.Reached {
		t.Fatal("reached destination across a fully failed diamond")
	}
}
