package reveal

import (
	"testing"

	"wormhole/internal/lab"
	"wormhole/internal/netaddr"
	"wormhole/internal/packet"
	"wormhole/internal/probe"
	"wormhole/internal/router"
)

// TestBRPRRevealsWholeTunnel drives the revelation pipeline against the
// BackwardRecursive testbed: the tunnel PE1 -> P1 -> P2 -> P3 -> PE2 must
// come back one hop per trace.
func TestBRPRRevealsWholeTunnel(t *testing.T) {
	l := lab.MustBuild(lab.Options{Scenario: lab.BackwardRecursive})
	// The trace toward CE2 ends PE1, PE2, CE2: candidates X=PE1, Y=PE2.
	tr := l.Prober.Traceroute(l.CE2Left)
	cand, ok := CandidateFromTrace(tr)
	if !ok {
		t.Fatalf("no candidate from %+v", tr.Hops)
	}
	if cand.Ingress.Addr != l.PE1Left || cand.Egress.Addr != l.PE2Left {
		t.Fatalf("candidate = %s -> %s, want PE1 -> PE2", cand.Ingress.Addr, cand.Egress.Addr)
	}

	rev := Reveal(l.Prober, cand.Ingress.Addr, cand.Egress.Addr)
	if rev.Technique != TechBRPR {
		t.Errorf("technique = %s, want BRPR (steps %v)", rev.Technique, rev.Steps)
	}
	want := []netaddr.Addr{l.P1Left, l.P2Left, l.P3Left}
	if len(rev.Hops) != len(want) {
		t.Fatalf("revealed %d hops (%v), want %d", len(rev.Hops), rev.Hops, len(want))
	}
	for i, a := range want {
		if rev.Hops[i] != a {
			t.Errorf("hop %d = %s, want %s", i, rev.Hops[i], a)
		}
	}
}

// TestDPRRevealsWholeTunnel drives the ExplicitRoute scenario: one extra
// trace to the egress's incoming interface reveals everything.
func TestDPRRevealsWholeTunnel(t *testing.T) {
	l := lab.MustBuild(lab.Options{Scenario: lab.ExplicitRoute})
	rev := Reveal(l.Prober, l.PE1Left, l.PE2Left)
	if rev.Technique != TechDPR {
		t.Errorf("technique = %s, want DPR (steps %v)", rev.Technique, rev.Steps)
	}
	want := []netaddr.Addr{l.P1Left, l.P2Left, l.P3Left}
	if len(rev.Hops) != len(want) {
		t.Fatalf("revealed %v, want %v", rev.Hops, want)
	}
	for i, a := range want {
		if rev.Hops[i] != a {
			t.Errorf("hop %d = %s, want %s", i, rev.Hops[i], a)
		}
	}
	if len(rev.Steps) != 1 || rev.Steps[0] != 3 {
		t.Errorf("steps = %v, want [3]", rev.Steps)
	}
}

// TestUHPRevealsNothing: the TotallyInvisible scenario defeats all
// techniques, as the paper concedes.
func TestUHPRevealsNothing(t *testing.T) {
	l := lab.MustBuild(lab.Options{Scenario: lab.TotallyInvisible})
	rev := Reveal(l.Prober, l.PE1Left, l.PE2Left)
	if rev.Technique != TechNone || len(rev.Hops) != 0 {
		t.Errorf("UHP tunnel revealed %v via %s", rev.Hops, rev.Technique)
	}
}

// TestExplicitTunnelNothingNew: with ttl-propagate (Default scenario) the
// tunnel is already visible; revelation finds nothing hidden between the
// candidate pair because the trace shows the same hops.
func TestExplicitTunnelNothingNew(t *testing.T) {
	l := lab.MustBuild(lab.Options{Scenario: lab.Default})
	tr := l.Prober.Traceroute(l.CE2Left)
	cand, ok := CandidateFromTrace(tr)
	if !ok {
		t.Fatal("no candidate")
	}
	// Last three responding hops are P3, PE2, CE2: X = P3, Y = PE2 —
	// adjacent routers, nothing between them.
	rev := Reveal(l.Prober, cand.Ingress.Addr, cand.Egress.Addr)
	if len(rev.Hops) != 0 {
		t.Errorf("revealed %v between adjacent hops", rev.Hops)
	}
}

func TestFRPLAOnInvisibleTunnel(t *testing.T) {
	l := lab.MustBuild(lab.Options{Scenario: lab.BackwardRecursive})
	tr := l.Prober.Traceroute(l.CE2Left)
	// PE2 is hop 3 of the trace (forward length 3) but its reply crossed
	// the true 6-hop return path: RFA = 3.
	var pe2 probe.Hop
	for _, h := range tr.Hops {
		if h.Addr == l.PE2Left {
			pe2 = h
		}
	}
	s, ok := FRPLA(pe2, 255)
	if !ok {
		t.Fatal("FRPLA rejected the hop")
	}
	if s.Forward != 3 || s.Return != 6 {
		t.Errorf("forward=%d return=%d, want 3 and 6", s.Forward, s.Return)
	}
	// The return path counts all six hops (P3,P2,P1 via the min copy,
	// PE1, CE1, plus PE2 itself) while the forward trace saw only three
	// (CE1, PE1, PE2): RFA = +3, exactly the hidden tunnel length.
	if s.RFA() != 3 {
		t.Errorf("RFA = %d, want 3", s.RFA())
	}
}

func TestFRPLAOnSymmetricPath(t *testing.T) {
	l := lab.MustBuild(lab.Options{Scenario: lab.Default})
	tr := l.Prober.Traceroute(l.CE2Left)
	// With the tunnel visible, forward and return lengths agree.
	var pe2 probe.Hop
	for _, h := range tr.Hops {
		if h.Addr == l.PE2Left {
			pe2 = h
		}
	}
	s, ok := FRPLA(pe2, 255)
	if !ok {
		t.Fatal("FRPLA rejected the hop")
	}
	if s.RFA() != 0 {
		t.Errorf("visible-tunnel RFA = %d, want 0", s.RFA())
	}
}

// TestFRPLAScoresTimeExceededOnly pins FRPLA to time-exceeded replies.
// A destination answers a trace's last probe with an echo reply, which
// starts from the router's echo initial TTL (64 on Juniper), so scoring
// it against the time-exceeded initial TTL mixes two signatures. The
// trace's destination hop yields no sample; its tunnel egress hop still
// yields RFA +3.
func TestFRPLAScoresTimeExceededOnly(t *testing.T) {
	l := lab.MustBuild(lab.Options{Scenario: lab.BackwardRecursive})
	tr := l.Prober.Traceroute(l.CE2Left)
	var dst, pe2 probe.Hop
	for _, h := range tr.Hops {
		switch h.Addr {
		case l.CE2Left:
			dst = h
		case l.PE2Left:
			pe2 = h
		}
	}
	if dst.ICMPType != packet.ICMPEchoReply {
		t.Fatalf("destination hop %v answered with ICMP type %d, want an echo reply", dst.Addr, dst.ICMPType)
	}
	if s, ok := FRPLA(dst, 255); ok {
		t.Errorf("destination's echo reply scored: RFA %+d", s.RFA())
	}
	if s, ok := FRPLA(pe2, 255); !ok || s.RFA() != 3 {
		t.Errorf("egress hop: FRPLA = %+d, %v; want +3, true", s.RFA(), ok)
	}
}

func TestFRPLARejectsBadSamples(t *testing.T) {
	if _, ok := FRPLA(probe.Hop{}, 255); ok {
		t.Error("anonymous hop accepted")
	}
	if _, ok := FRPLA(probe.Hop{Addr: netaddr.MustParseAddr("1.2.3.4"), ReplyTTL: 200}, 128); ok {
		t.Error("reply TTL above initial accepted")
	}
}

func TestRTLAGapIsTunnelLength(t *testing.T) {
	l := lab.MustBuild(lab.Options{
		Scenario:       lab.BackwardRecursive,
		PE2Personality: router.Juniper,
	})
	tr := l.Prober.Traceroute(l.CE2Left)
	var te probe.Hop
	for _, h := range tr.Hops {
		if h.Addr == l.PE2Left {
			te = h
		}
	}
	echo, ok := l.Prober.Ping(l.PE2Left, 64)
	if !ok {
		t.Fatal("ping failed")
	}
	if got := RTLA(te.ReplyTTL, echo.ReplyTTL); got != 3 {
		t.Errorf("RTLA = %d, want 3 (P1,P2,P3)", got)
	}
}

func TestRTLAZeroWithoutTunnel(t *testing.T) {
	l := lab.MustBuild(lab.Options{
		Scenario:       lab.Default,
		PE2Personality: router.Juniper,
	})
	tr := l.Prober.Traceroute(l.CE2Left)
	var te probe.Hop
	for _, h := range tr.Hops {
		if h.Addr == l.PE2Left {
			te = h
		}
	}
	echo, ok := l.Prober.Ping(l.PE2Left, 64)
	if !ok {
		t.Fatal("ping failed")
	}
	// With ttl-propagate the LSE mirrors the IP TTL: both reply types see
	// the same path length and the gap vanishes.
	if got := RTLA(te.ReplyTTL, echo.ReplyTTL); got != 0 {
		t.Errorf("RTLA = %d, want 0 on a propagating return path", got)
	}
}

func TestCandidateRequiresCompletedTrace(t *testing.T) {
	if _, ok := CandidateFromTrace(&probe.Trace{}); ok {
		t.Error("empty trace produced candidate")
	}
}

func TestTechniqueStrings(t *testing.T) {
	for tech, want := range map[Technique]string{
		TechNone: "none", TechDPR: "DPR", TechBRPR: "BRPR",
		TechEither: "DPR-or-BRPR", TechHybrid: "hybrid",
	} {
		if tech.String() != want {
			t.Errorf("%d.String() = %s, want %s", tech, tech.String(), want)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		steps []int
		total int
		want  Technique
	}{
		{nil, 0, TechNone},
		{[]int{1}, 1, TechEither},
		{[]int{3}, 3, TechDPR},
		{[]int{1, 1, 1}, 3, TechBRPR},
		{[]int{2, 1}, 3, TechHybrid},
	}
	for _, c := range cases {
		if got := classify(c.steps, c.total); got != c.want {
			t.Errorf("classify(%v,%d) = %s, want %s", c.steps, c.total, got, c.want)
		}
	}
}
