package lab

import (
	"testing"

	"wormhole/internal/netaddr"
	"wormhole/internal/probe"
	"wormhole/internal/router"
)

// expHop is one expected traceroute line: replying address, bracketed
// return TTL, and whether an RFC4950 label was quoted.
type expHop struct {
	addr     netaddr.Addr
	replyTTL uint8
	labeled  bool
}

func checkTrace(t *testing.T, name string, tr *probe.Trace, want []expHop, reached bool) {
	t.Helper()
	if len(tr.Hops) != len(want) {
		t.Fatalf("%s: got %d hops, want %d\n%+v", name, len(tr.Hops), len(want), tr.Hops)
	}
	for i, w := range want {
		h := tr.Hops[i]
		if h.Addr != w.addr {
			t.Errorf("%s hop %d: addr %s, want %s", name, i+1, h.Addr, w.addr)
		}
		if h.ReplyTTL != w.replyTTL {
			t.Errorf("%s hop %d (%s): return TTL %d, want %d", name, i+1, h.Addr, h.ReplyTTL, w.replyTTL)
		}
		if h.Labeled() != w.labeled {
			t.Errorf("%s hop %d (%s): labeled=%v, want %v", name, i+1, h.Addr, h.Labeled(), w.labeled)
		}
	}
	if tr.Reached != reached {
		t.Errorf("%s: reached=%v, want %v", name, tr.Reached, reached)
	}
}

// TestFig4aDefault reproduces the paper's Fig. 4a: the Default
// configuration shows the explicit tunnel with labels and the
// tunnel-tail-detour return TTLs 247/248/251.
func TestFig4aDefault(t *testing.T) {
	l := MustBuild(Options{Scenario: Default})
	tr := l.Prober.Traceroute(l.CE2Left)
	checkTrace(t, "pt CE2.left", tr, []expHop{
		{l.CE1Left, 255, false},
		{l.PE1Left, 254, false},
		{l.P1Left, 247, true},
		{l.P2Left, 248, true},
		{l.P3Left, 251, true},
		{l.PE2Left, 250, false},
		{l.CE2Left, 249, false},
	}, true)

	// The quoted LSE TTL must be 1, as printed by scamper.
	for _, i := range []int{2, 3, 4} {
		h := tr.Hops[i]
		if len(h.MPLS) != 1 || h.MPLS[0].TTL != 1 {
			t.Errorf("hop %d quoted stack = %v, want single LSE with TTL 1", i+1, h.MPLS)
		}
	}
}

// TestFig4bBackwardRecursive reproduces Fig. 4b: the invisible tunnel and
// the five recursive traces that reveal it hop by hop (BRPR), all without
// any MPLS flags.
func TestFig4bBackwardRecursive(t *testing.T) {
	l := MustBuild(Options{Scenario: BackwardRecursive})
	p := l.Prober

	checkTrace(t, "pt CE2.left", p.Traceroute(l.CE2Left), []expHop{
		{l.CE1Left, 255, false},
		{l.PE1Left, 254, false},
		{l.PE2Left, 250, false},
		{l.CE2Left, 250, false},
	}, true)

	checkTrace(t, "pt PE2.left", p.Traceroute(l.PE2Left), []expHop{
		{l.CE1Left, 255, false},
		{l.PE1Left, 254, false},
		{l.P3Left, 251, false},
		{l.PE2Left, 250, false},
	}, true)

	checkTrace(t, "pt P3.left", p.Traceroute(l.P3Left), []expHop{
		{l.CE1Left, 255, false},
		{l.PE1Left, 254, false},
		{l.P2Left, 252, false},
		{l.P3Left, 251, false},
	}, true)

	checkTrace(t, "pt P2.left", p.Traceroute(l.P2Left), []expHop{
		{l.CE1Left, 255, false},
		{l.PE1Left, 254, false},
		{l.P1Left, 253, false},
		{l.P2Left, 252, false},
	}, true)

	checkTrace(t, "pt P1.left", p.Traceroute(l.P1Left), []expHop{
		{l.CE1Left, 255, false},
		{l.PE1Left, 254, false},
		{l.P1Left, 253, false},
	}, true)
}

// TestFig4cExplicitRoute reproduces Fig. 4c: targeting the Egress LER's
// incoming interface follows the pure IGP route and reveals the whole LSP
// in one probe (DPR).
func TestFig4cExplicitRoute(t *testing.T) {
	l := MustBuild(Options{Scenario: ExplicitRoute})
	p := l.Prober

	checkTrace(t, "pt CE2.left", p.Traceroute(l.CE2Left), []expHop{
		{l.CE1Left, 255, false},
		{l.PE1Left, 254, false},
		{l.PE2Left, 250, false},
		{l.CE2Left, 250, false},
	}, true)

	checkTrace(t, "pt PE2.left", p.Traceroute(l.PE2Left), []expHop{
		{l.CE1Left, 255, false},
		{l.PE1Left, 254, false},
		{l.P1Left, 253, false},
		{l.P2Left, 252, false},
		{l.P3Left, 251, false},
		{l.PE2Left, 250, false},
	}, true)
}

// TestFig4dTotallyInvisible reproduces Fig. 4d: with UHP the egress LER
// vanishes too — CE2 appears directly connected to PE1 — and targeting
// PE2 reveals nothing either.
func TestFig4dTotallyInvisible(t *testing.T) {
	l := MustBuild(Options{Scenario: TotallyInvisible})
	p := l.Prober

	checkTrace(t, "pt CE2.left", p.Traceroute(l.CE2Left), []expHop{
		{l.CE1Left, 255, false},
		{l.PE1Left, 254, false},
		{l.CE2Left, 252, false},
	}, true)

	checkTrace(t, "pt PE2.left", p.Traceroute(l.PE2Left), []expHop{
		{l.CE1Left, 255, false},
		{l.PE1Left, 254, false},
		{l.PE2Left, 253, false},
	}, true)
}

// TestFig4aJuniperEgressGap checks the RTLA raw material: with a Juniper
// egress LER and an invisible return tunnel, time-exceeded and echo-reply
// return TTLs diverge by exactly the return tunnel length.
func TestJuniperEgressGap(t *testing.T) {
	l := MustBuild(Options{
		Scenario:       BackwardRecursive,
		PE2Personality: router.Juniper,
	})
	p := l.Prober

	// Trace to CE2: PE2 replies with a time-exceeded (TTL init 255).
	tr := p.Traceroute(l.CE2Left)
	var teTTL uint8
	for _, h := range tr.Hops {
		if h.Addr == l.PE2Left {
			teTTL = h.ReplyTTL
		}
	}
	if teTTL == 0 {
		t.Fatal("PE2 not observed in trace")
	}
	// Ping PE2 (echo reply init 64).
	reply, ok := p.Ping(l.PE2Left, 64)
	if !ok {
		t.Fatal("no ping reply from PE2")
	}
	teLen := int(255 - teTTL)
	echoLen := int(64 - reply.ReplyTTL)
	gap := teLen - echoLen
	// The return tunnel PE2->PE1 hides P1,P2,P3: the time-exceeded path
	// counts them (min copy), the echo path does not (64 < LSE TTL).
	if gap != 3 {
		t.Errorf("RTLA gap = %d (te path %d, echo path %d), want 3", gap, teLen, echoLen)
	}
}

// TestFig4cJuniperGolden is the Juniper variant of the testbed the paper
// mentions ("we also analyzed a similar Juniper testbed"): all of AS2 runs
// the Juniper personality with its host-routes LDP default. The DPR trace
// shows the same hop sequence as Fig. 4c, and the egress's echo reply
// exposes the <255,64> signature: its return TTL is 64-based while the
// time-exceeded hops are 255-based — the RTLA gap inside one trace.
func TestFig4cJuniperGolden(t *testing.T) {
	l := MustBuild(Options{Scenario: ExplicitRoute, AS2Personality: router.Juniper})
	checkTrace(t, "pt PE2.left (juniper)", l.Prober.Traceroute(l.PE2Left), []expHop{
		{l.CE1Left, 255, false},
		{l.PE1Left, 254, false},
		{l.P1Left, 253, false},
		{l.P2Left, 252, false},
		{l.P3Left, 251, false},
		// PE2 answers as the destination: Juniper echo replies start at
		// 64; the invisible return tunnel does not leak into them (the
		// min keeps 64), so only PE1 and CE1 decrement: 62.
		{l.PE2Left, 62, false},
	}, true)

	// The external target stays invisible with the same hops as Fig. 4c.
	checkTrace(t, "pt CE2.left (juniper)", l.Prober.Traceroute(l.CE2Left), []expHop{
		{l.CE1Left, 255, false},
		{l.PE1Left, 254, false},
		{l.PE2Left, 250, false},
		{l.CE2Left, 250, false},
	}, true)
}

// TestCheckAddrsRejectsDuplicates pins the testbeds' duplicate-address
// check, which Build and BuildDouble return: it passes both built labs,
// and fails a lab whose routers bind one address twice, or whose vantage
// point sits on a router address.
func TestCheckAddrsRejectsDuplicates(t *testing.T) {
	d, err := BuildDouble()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAddrs([]*router.Router{d.CE1, d.PE1a, d.P1a, d.P2a, d.PE2a, d.PE1b, d.P1b, d.P2b, d.PE2b, d.CE2}, d.VP); err != nil {
		t.Errorf("double lab: %v", err)
	}
	build := func() (*Lab, []*router.Router) {
		l := MustBuild(Options{})
		return l, []*router.Router{l.CE1, l.PE1, l.P1, l.P2, l.P3, l.PE2, l.CE2}
	}
	l, routers := build()
	if err := checkAddrs(routers, l.VP); err != nil {
		t.Errorf("lab: %v", err)
	}
	p := netaddr.MustParsePrefix("10.2.1.0/30")
	l.P3.AddIface("dup", l.P1Left, p)
	if err := checkAddrs(routers, l.VP); err == nil {
		t.Error("a router address bound twice passed")
	}
	l, routers = build()
	l.VP.If.Addr = l.CE2Lo
	if err := checkAddrs(routers, l.VP); err == nil {
		t.Error("a vantage point on a router address passed")
	}
}
