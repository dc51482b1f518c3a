package probe

import (
	"testing"
	"time"

	"wormhole/internal/igp"
	"wormhole/internal/netaddr"
	"wormhole/internal/netsim"
	"wormhole/internal/packet"
	"wormhole/internal/router"
)

// line builds vp - r0 - r1 - r2 - h over plain IP with SPF-installed
// routes and returns a prober on vp.
type line struct {
	net    *netsim.Network
	vp     *netsim.Host
	host   *netsim.Host
	rs     []*router.Router
	prober *Prober
}

func buildLine(t *testing.T, n int) *line {
	t.Helper()
	net := netsim.New(2)
	l := &line{net: net}
	for i := 0; i < n; i++ {
		r := router.New("r"+string(rune('0'+i)), router.Cisco, router.Config{TTLPropagate: true})
		r.SetLoopback(netaddr.AddrFrom4(192, 168, 7, byte(i+1)))
		net.AddNode(r)
		if err := net.RegisterIface(r.Loopback()); err != nil {
			t.Fatal(err)
		}
		l.rs = append(l.rs, r)
	}
	wire := func(ai, bi *netsim.Iface) {
		net.Connect(ai, bi, time.Millisecond)
		for _, ifc := range []*netsim.Iface{ai, bi} {
			if err := net.RegisterIface(ifc); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i+1 < n; i++ {
		p := netaddr.MustPrefixFrom(netaddr.AddrFrom4(10, 60, byte(i), 0), 30)
		wire(l.rs[i].AddIface("right", p.Nth(1), p), l.rs[i+1].AddIface("left", p.Nth(2), p))
	}
	vpP := netaddr.MustParsePrefix("10.60.100.0/30")
	l.vp = netsim.NewHost("vp", vpP.Nth(2), vpP)
	net.AddNode(l.vp)
	wire(l.rs[0].AddIface("to-vp", vpP.Nth(1), vpP), l.vp.If)
	hP := netaddr.MustParsePrefix("10.60.101.0/30")
	l.host = netsim.NewHost("h", hP.Nth(2), hP)
	net.AddNode(l.host)
	wire(l.rs[n-1].AddIface("to-h", hP.Nth(1), hP), l.host.If)

	dom := &igp.Domain{Routers: l.rs}
	if _, err := dom.Compute(); err != nil {
		t.Fatal(err)
	}
	l.prober = New(net, l.vp)
	return l
}

func TestTracerouteFullPath(t *testing.T) {
	l := buildLine(t, 3)
	tr := l.prober.Traceroute(l.host.Addr())
	if !tr.Reached {
		t.Fatalf("not reached: %+v", tr.Hops)
	}
	if len(tr.Hops) != 4 {
		t.Fatalf("%d hops, want 4", len(tr.Hops))
	}
	for i, h := range tr.Hops[:3] {
		if h.ICMPType != packet.ICMPTimeExceeded {
			t.Errorf("hop %d type %d", i+1, h.ICMPType)
		}
		if h.ProbeTTL != uint8(i+1) {
			t.Errorf("hop %d probe ttl %d", i+1, h.ProbeTTL)
		}
	}
	last := tr.Hops[3]
	if last.ICMPType != packet.ICMPEchoReply || last.Addr != l.host.Addr() {
		t.Errorf("last hop = %+v", last)
	}
}

func TestTracerouteFirstTTL(t *testing.T) {
	l := buildLine(t, 3)
	l.prober.FirstTTL = 2
	tr := l.prober.Traceroute(l.host.Addr())
	if tr.Hops[0].ProbeTTL != 2 {
		t.Errorf("first probe TTL = %d, want 2", tr.Hops[0].ProbeTTL)
	}
	if len(tr.Hops) != 3 {
		t.Errorf("%d hops, want 3 (skipping the first router)", len(tr.Hops))
	}
}

func TestTracerouteGapLimit(t *testing.T) {
	l := buildLine(t, 6)
	// Silence everything past r0: the trace must stop after GapLimit
	// anonymous hops instead of probing to MaxTTL.
	for _, r := range l.rs[1:] {
		cfg := r.Config()
		cfg.Silent = true
		r.SetConfig(cfg)
	}
	l.prober.GapLimit = 3
	tr := l.prober.Traceroute(l.host.Addr())
	if tr.Reached {
		t.Fatal("reached a silent destination")
	}
	anon := 0
	for _, h := range tr.Hops {
		if h.Anonymous() {
			anon++
		}
	}
	if anon != 3 {
		t.Errorf("probed %d anonymous hops, want exactly GapLimit=3", anon)
	}
}

func TestTracerouteAnonymousMiddle(t *testing.T) {
	l := buildLine(t, 3)
	cfg := l.rs[1].Config()
	cfg.NoICMPTimeExceeded = true
	l.rs[1].SetConfig(cfg)
	tr := l.prober.Traceroute(l.host.Addr())
	if !tr.Reached {
		t.Fatal("not reached")
	}
	if !tr.Hops[1].Anonymous() {
		t.Error("suppressed hop answered")
	}
	if tr.Hops[0].Anonymous() || tr.Hops[2].Anonymous() {
		t.Error("wrong hops anonymous")
	}
}

func TestTraceLastHelper(t *testing.T) {
	l := buildLine(t, 3)
	tr := l.prober.Traceroute(l.host.Addr())
	last, ok := tr.Last()
	if !ok || last.Addr != l.host.Addr() {
		t.Errorf("Last = %+v, %v", last, ok)
	}
	empty := &Trace{}
	if _, ok := empty.Last(); ok {
		t.Error("Last on empty trace")
	}
}

func TestPingTTLAndRTT(t *testing.T) {
	l := buildLine(t, 3)
	reply, ok := l.prober.Ping(l.rs[2].Loopback().Addr, 0)
	if !ok {
		t.Fatal("no reply")
	}
	if reply.ICMPType != packet.ICMPEchoReply {
		t.Errorf("type %d", reply.ICMPType)
	}
	// Cisco echo reply 255 minus r1, r0.
	if reply.ReplyTTL != 253 {
		t.Errorf("reply TTL %d, want 253", reply.ReplyTTL)
	}
	// 4 links each way at 1ms... vp-r0, r0-r1, r1-r2 = 3 links = 6ms RTT.
	if reply.RTT != 6*time.Millisecond {
		t.Errorf("RTT %v, want 6ms", reply.RTT)
	}
}

func TestPingUnreachable(t *testing.T) {
	l := buildLine(t, 3)
	if _, ok := l.prober.Ping(netaddr.MustParseAddr("203.0.113.9"), 0); ok {
		t.Error("reply from unrouted address")
	}
}

func TestProbesCounted(t *testing.T) {
	l := buildLine(t, 3)
	l.prober.Traceroute(l.host.Addr())
	if l.prober.Sent != 4 {
		t.Errorf("Sent = %d, want 4", l.prober.Sent)
	}
}

func TestRepliesMatchedBySeq(t *testing.T) {
	// A stale reply from a previous probe must not satisfy a new one:
	// sequence numbers advance per probe.
	l := buildLine(t, 3)
	tr1 := l.prober.Traceroute(l.host.Addr())
	tr2 := l.prober.Traceroute(l.host.Addr())
	if len(tr1.Hops) != len(tr2.Hops) {
		t.Errorf("repeat traces differ: %d vs %d hops", len(tr1.Hops), len(tr2.Hops))
	}
}

func TestUDPTraceroute(t *testing.T) {
	l := buildLine(t, 3)
	l.prober.Method = UDPParis
	tr := l.prober.Traceroute(l.host.Addr())
	if !tr.Reached {
		t.Fatalf("UDP trace did not reach: %+v", tr.Hops)
	}
	if len(tr.Hops) != 4 {
		t.Fatalf("%d hops, want 4", len(tr.Hops))
	}
	last := tr.Hops[3]
	if last.ICMPType != packet.ICMPDestUnreach || last.ICMPCode != packet.CodePortUnreach {
		t.Errorf("last hop = type %d code %d, want port-unreachable", last.ICMPType, last.ICMPCode)
	}
	for i, h := range tr.Hops[:3] {
		if h.ICMPType != packet.ICMPTimeExceeded {
			t.Errorf("hop %d type %d", i+1, h.ICMPType)
		}
	}
}

func TestUDPTracerouteToRouter(t *testing.T) {
	l := buildLine(t, 3)
	l.prober.Method = UDPParis
	tr := l.prober.Traceroute(l.rs[2].Loopback().Addr)
	if !tr.Reached {
		t.Fatalf("UDP trace to router did not reach: %+v", tr.Hops)
	}
}

func TestAttemptsRetryRateLimitedHop(t *testing.T) {
	l := buildLine(t, 3)
	// Rate-limit r1 so hard that only one ICMP per 100ms of virtual time
	// escapes; the probe for TTL 2 arrives right after r0's reply
	// consumed nothing of r1's budget, so the first attempt answers, but
	// forcing two traces back to back exhausts it.
	cfg := l.rs[1].Config()
	cfg.ICMPInterval = 50 * time.Millisecond
	l.rs[1].SetConfig(cfg)

	l.prober.Attempts = 1
	tr1 := l.prober.Traceroute(l.host.Addr())
	tr2 := l.prober.Traceroute(l.host.Addr())
	// In one of the two traces r1 must have been rate-limited: its hop,
	// and only its hop, goes anonymous.
	anon := 0
	for _, tr := range []*Trace{tr1, tr2} {
		for _, h := range tr.Hops {
			if h.Anonymous() {
				anon++
				if h.ProbeTTL != 2 {
					t.Errorf("anonymous hop at TTL %d, want only r1's (TTL 2)", h.ProbeTTL)
				}
			}
		}
	}
	if anon == 0 {
		t.Fatal("rate limiting never produced an anonymous hop")
	}
}

// TestTracerouteMaxTTL255 pins the TTL counter at the top of its range:
// a trace through a forwarding loop (two static routes bouncing a dead
// prefix between r0 and r1) with MaxTTL 255 answers every hop and must
// stop after exactly 255 of them — a uint8 counter wraps to 0 instead and
// never ends, so the trace runs under a deadline.
func TestTracerouteMaxTTL255(t *testing.T) {
	l := buildLine(t, 2)
	dead := netaddr.MustParsePrefix("10.77.0.0/24")
	iface := func(r *router.Router, name string) *netsim.Iface {
		for _, ifc := range r.Ifaces() {
			if ifc.Name == name {
				return ifc
			}
		}
		t.Fatalf("%s has no %s interface", r.Name(), name)
		return nil
	}
	toR1, toR0 := iface(l.rs[0], "right"), iface(l.rs[1], "left")
	l.rs[0].InstallRoute(dead, &router.Route{Origin: router.OriginIGP, NextHops: []router.NextHop{{Out: toR1, Gateway: toR0.Addr}}})
	l.rs[1].InstallRoute(dead, &router.Route{Origin: router.OriginIGP, NextHops: []router.NextHop{{Out: toR0, Gateway: toR1.Addr}}})
	l.prober.MaxTTL = 255
	done := make(chan *Trace, 1)
	go func() { done <- l.prober.Traceroute(dead.Nth(1)) }()
	select {
	case tr := <-done:
		if tr.Reached || len(tr.Hops) != 255 {
			t.Fatalf("looping trace: reached %v, %d hops, want 255 unreached", tr.Reached, len(tr.Hops))
		}
		for i, h := range tr.Hops {
			if h.ProbeTTL != uint8(i+1) || h.Anonymous() {
				t.Fatalf("hop %d: probe TTL %d, anonymous %v", i, h.ProbeTTL, h.Anonymous())
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("traceroute with MaxTTL 255 did not end")
	}
}
