package netsim

import (
	"fmt"
	"testing"
	"time"

	"wormhole/internal/netaddr"
	"wormhole/internal/packet"
)

func link30(t *testing.T, net *Network, a, b *Host, prefix string, delay time.Duration) {
	t.Helper()
	net.Connect(a.If, b.If, delay)
	if err := net.RegisterIface(a.If); err != nil {
		t.Fatal(err)
	}
	if err := net.RegisterIface(b.If); err != nil {
		t.Fatal(err)
	}
}

func pairedHosts(t *testing.T, seed int64, delay time.Duration) (*Network, *Host, *Host) {
	t.Helper()
	net := New(seed)
	p := netaddr.MustParsePrefix("10.0.0.0/30")
	h1 := NewHost("h1", p.Nth(1), p)
	h2 := NewHost("h2", p.Nth(2), p)
	net.AddNode(h1)
	net.AddNode(h2)
	link30(t, net, h1, h2, "10.0.0.0/30", delay)
	return net, h1, h2
}

func TestEchoOverOneLink(t *testing.T) {
	net, h1, h2 := pairedHosts(t, 1, 5*time.Millisecond)
	var got *packet.Packet
	h1.Handler = func(net *Network, pkt *packet.Packet) { net.AdoptPacket(pkt); got = pkt }

	probe := &packet.Packet{
		IP: packet.IPv4{
			TTL:      64,
			Protocol: packet.ProtoICMP,
			Src:      h1.Addr(),
			Dst:      h2.Addr(),
		},
		ICMP: &packet.ICMP{Type: packet.ICMPEchoRequest, ID: 42, Seq: 1},
	}
	elapsed := net.Inject(h1.If, probe)
	if got == nil {
		t.Fatal("no echo reply received")
	}
	if got.ICMP.Type != packet.ICMPEchoReply || got.ICMP.ID != 42 || got.ICMP.Seq != 1 {
		t.Errorf("reply = %+v", got.ICMP)
	}
	if got.IP.TTL != 64 {
		t.Errorf("reply TTL = %d, want host init TTL 64", got.IP.TTL)
	}
	if elapsed != 10*time.Millisecond {
		t.Errorf("RTT = %v, want 10ms", elapsed)
	}
}

func TestUDPProbeGetsPortUnreachable(t *testing.T) {
	net, h1, h2 := pairedHosts(t, 1, time.Millisecond)
	var got *packet.Packet
	h1.Handler = func(net *Network, pkt *packet.Packet) { net.AdoptPacket(pkt); got = pkt }

	probe := &packet.Packet{
		IP: packet.IPv4{
			TTL:      64,
			Protocol: packet.ProtoUDP,
			Src:      h1.Addr(),
			Dst:      h2.Addr(),
		},
		UDP: &packet.UDP{SrcPort: 33000, DstPort: 33434},
	}
	net.Inject(h1.If, probe)
	if got == nil {
		t.Fatal("no reply")
	}
	if got.ICMP == nil || got.ICMP.Type != packet.ICMPDestUnreach || got.ICMP.Code != packet.CodePortUnreach {
		t.Fatalf("reply = %v", got)
	}
	if got.ICMP.Quote == nil || got.ICMP.Quote.Seq != 33434 {
		t.Errorf("quote = %+v", got.ICMP.Quote)
	}
}

func TestHostDoesNotForward(t *testing.T) {
	net, h1, h2 := pairedHosts(t, 1, time.Millisecond)
	handled := false
	h2.Handler = func(_ *Network, _ *packet.Packet) { handled = true }
	probe := &packet.Packet{
		IP: packet.IPv4{
			TTL:      64,
			Protocol: packet.ProtoICMP,
			Src:      h1.Addr(),
			Dst:      netaddr.MustParseAddr("192.0.2.99"), // not h2
		},
		ICMP: &packet.ICMP{Type: packet.ICMPEchoRequest},
	}
	net.Inject(h1.If, probe)
	if handled {
		t.Error("host handled a packet not addressed to it")
	}
}

func TestDownLinkDropsPackets(t *testing.T) {
	net, h1, h2 := pairedHosts(t, 1, time.Millisecond)
	h1.If.Link.Up = false
	var got *packet.Packet
	h1.Handler = func(net *Network, pkt *packet.Packet) { net.AdoptPacket(pkt); got = pkt }
	probe := &packet.Packet{
		IP:   packet.IPv4{TTL: 64, Protocol: packet.ProtoICMP, Src: h1.Addr(), Dst: h2.Addr()},
		ICMP: &packet.ICMP{Type: packet.ICMPEchoRequest},
	}
	net.Inject(h1.If, probe)
	if got != nil {
		t.Error("packet crossed a down link")
	}
}

func TestLossInjection(t *testing.T) {
	net, h1, h2 := pairedHosts(t, 7, time.Millisecond)
	h1.If.Link.LossProb = 1.0
	replies := 0
	h1.Handler = func(_ *Network, _ *packet.Packet) { replies++ }
	for i := 0; i < 10; i++ {
		probe := &packet.Packet{
			IP:   packet.IPv4{TTL: 64, Protocol: packet.ProtoICMP, Src: h1.Addr(), Dst: h2.Addr()},
			ICMP: &packet.ICMP{Type: packet.ICMPEchoRequest, Seq: uint16(i)},
		}
		net.Inject(h1.If, probe)
	}
	if replies != 0 {
		t.Errorf("%d replies over a fully lossy link", replies)
	}
}

func TestRegisterIfaceRejectsDuplicates(t *testing.T) {
	net := New(1)
	p := netaddr.MustParsePrefix("10.0.0.0/30")
	h1 := NewHost("h1", p.Nth(1), p)
	h2 := NewHost("h2", p.Nth(1), p) // same address on purpose
	if err := net.RegisterIface(h1.If); err != nil {
		t.Fatal(err)
	}
	if err := net.RegisterIface(h2.If); err == nil {
		t.Error("duplicate address registration accepted")
	}
	h3 := NewHost("h3", 0, p)
	if err := net.RegisterIface(h3.If); err == nil {
		t.Error("unspecified address registration accepted")
	}
}

func TestVirtualClockAdvancesMonotonically(t *testing.T) {
	net, h1, h2 := pairedHosts(t, 1, 3*time.Millisecond)
	var at []time.Duration
	net.Trace = func(ts time.Duration, _ *Iface, _ *packet.Packet) { at = append(at, ts) }
	probe := &packet.Packet{
		IP:   packet.IPv4{TTL: 64, Protocol: packet.ProtoICMP, Src: h1.Addr(), Dst: h2.Addr()},
		ICMP: &packet.ICMP{Type: packet.ICMPEchoRequest},
	}
	net.Inject(h1.If, probe)
	if len(at) != 2 {
		t.Fatalf("trace saw %d deliveries, want 2", len(at))
	}
	if at[0] != 3*time.Millisecond || at[1] != 6*time.Millisecond {
		t.Errorf("delivery times = %v", at)
	}
}

// loopNode bounces every packet straight back, creating an infinite loop the
// event budget must break.
type loopNode struct {
	name string
	ifc  *Iface
}

func (l *loopNode) Name() string { return l.name }
func (l *loopNode) Receive(net *Network, in *Iface, pkt *packet.Packet) {
	net.Transmit(in, pkt)
}

func TestEventBudgetBreaksForwardingLoops(t *testing.T) {
	net := New(1)
	p := netaddr.MustParsePrefix("10.0.0.0/30")
	a := &loopNode{name: "a"}
	a.ifc = &Iface{Owner: a, Name: "x", Addr: p.Nth(1), Prefix: p}
	b := &loopNode{name: "b"}
	b.ifc = &Iface{Owner: b, Name: "x", Addr: p.Nth(2), Prefix: p}
	net.AddNode(a)
	net.AddNode(b)
	net.Connect(a.ifc, b.ifc, time.Microsecond)

	done := make(chan struct{})
	go func() {
		net.Inject(a.ifc, &packet.Packet{IP: packet.IPv4{TTL: 1, Protocol: packet.ProtoICMP}, ICMP: &packet.ICMP{}})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("forwarding loop was not broken by the event budget")
	}
}

// TestOwnerAssertionAllowsOwningGoroutine: a bound fabric driven only by
// its owner never trips the assertion.
func TestOwnerAssertionAllowsOwningGoroutine(t *testing.T) {
	net, h1, h2 := pairedHosts(t, 1, time.Millisecond)
	done := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- fmt.Errorf("owner drive panicked: %v", r)
				return
			}
			done <- nil
		}()
		net.BindOwner()
		for i := 0; i < 3; i++ {
			probe := &packet.Packet{
				IP:   packet.IPv4{TTL: 64, Protocol: packet.ProtoICMP, Src: h1.Addr(), Dst: h2.Addr()},
				ICMP: &packet.ICMP{Type: packet.ICMPEchoRequest, ID: 9, Seq: uint16(i)},
			}
			net.Inject(h1.If, probe)
		}
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestOwnerAssertionPanicsCrossGoroutine: driving a fabric from a
// goroutine other than its bound owner is a driver bug and must panic.
func TestOwnerAssertionPanicsCrossGoroutine(t *testing.T) {
	net, h1, h2 := pairedHosts(t, 1, time.Millisecond)
	net.BindOwner() // owner: the test goroutine

	panicked := make(chan bool, 1)
	go func() {
		defer func() { panicked <- recover() != nil }()
		probe := &packet.Packet{
			IP:   packet.IPv4{TTL: 64, Protocol: packet.ProtoICMP, Src: h1.Addr(), Dst: h2.Addr()},
			ICMP: &packet.ICMP{Type: packet.ICMPEchoRequest},
		}
		net.Inject(h1.If, probe)
	}()
	if !<-panicked {
		t.Fatal("cross-goroutine drive of a bound fabric did not panic")
	}

	// ReleaseOwner hands the fabric over: a foreign goroutine may then
	// adopt and drive it.
	net.ReleaseOwner()
	go func() {
		defer func() { panicked <- recover() != nil }()
		net.BindOwner()
		probe := &packet.Packet{
			IP:   packet.IPv4{TTL: 64, Protocol: packet.ProtoICMP, Src: h1.Addr(), Dst: h2.Addr()},
			ICMP: &packet.ICMP{Type: packet.ICMPEchoRequest, ID: 1, Seq: 1},
		}
		net.Inject(h1.If, probe)
	}()
	if <-panicked {
		t.Fatal("drive after ReleaseOwner+BindOwner panicked")
	}
}

// blockingNode parks in Receive until released, so the test can hold one
// drain open while a second goroutine attempts another.
type blockingNode struct {
	name    string
	ifc     *Iface
	entered chan struct{}
	release chan struct{}
}

func (b *blockingNode) Name() string { return b.name }
func (b *blockingNode) Receive(net *Network, in *Iface, pkt *packet.Packet) {
	close(b.entered)
	<-b.release
}

// TestConcurrentDrivePanics: even an unbound fabric detects two
// goroutines draining at once (the no-shared-fabric invariant).
func TestConcurrentDrivePanics(t *testing.T) {
	net := New(1)
	p := netaddr.MustParsePrefix("10.0.0.0/30")
	h := NewHost("h", p.Nth(1), p)
	b := &blockingNode{name: "b", entered: make(chan struct{}), release: make(chan struct{})}
	b.ifc = &Iface{Owner: b, Name: "x", Addr: p.Nth(2), Prefix: p}
	net.AddNode(h)
	net.AddNode(b)
	net.Connect(h.If, b.ifc, time.Millisecond)

	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		net.Inject(h.If, &packet.Packet{
			IP:   packet.IPv4{TTL: 64, Protocol: packet.ProtoICMP, Src: h.Addr(), Dst: p.Nth(2)},
			ICMP: &packet.ICMP{Type: packet.ICMPEchoRequest},
		})
	}()
	<-b.entered // first drain is now parked inside Receive

	panicked := make(chan bool, 1)
	go func() {
		defer func() { panicked <- recover() != nil }()
		net.Run()
	}()
	if !<-panicked {
		t.Error("concurrent drive did not panic")
	}
	close(b.release)
	<-firstDone
}

func TestIfaceRemoteAndString(t *testing.T) {
	_, h1, h2 := pairedHosts(t, 1, time.Millisecond)
	if h1.If.Remote() != h2.If {
		t.Error("Remote() wrong")
	}
	if got := h1.If.String(); got != "h1.eth0" {
		t.Errorf("String = %q", got)
	}
	lo := &Iface{Owner: h1, Name: "lo0", Addr: netaddr.MustParseAddr("1.1.1.1")}
	if lo.Remote() != nil {
		t.Error("loopback Remote must be nil")
	}
}

func TestBandwidthQueueing(t *testing.T) {
	net, h1, h2 := pairedHosts(t, 1, time.Millisecond)
	// ~1500 bytes/sec: a 28-byte echo occupies the wire for ~18.6ms.
	h1.If.Link.BytesPerSec = 1500

	var rtts []time.Duration
	h1.Handler = func(_ *Network, pkt *packet.Packet) {}
	send := func(seq uint16) time.Duration {
		start := net.Now()
		probe := &packet.Packet{
			IP:   packet.IPv4{TTL: 64, Protocol: packet.ProtoICMP, Src: h1.Addr(), Dst: h2.Addr()},
			ICMP: &packet.ICMP{Type: packet.ICMPEchoRequest, ID: 1, Seq: seq},
		}
		// Inject two back to back before draining: the second must queue.
		net.Transmit(h1.If, probe)
		net.Run()
		return net.Now() - start
	}
	rtts = append(rtts, send(1))
	if rtts[0] <= 2*time.Millisecond {
		t.Fatalf("first RTT %v does not include serialization delay", rtts[0])
	}

	// Two packets injected together: deliveries must be serialized.
	var arrivals []time.Duration
	h2.Handler = nil
	net.Trace = func(ts time.Duration, to *Iface, _ *packet.Packet) {
		if to == h2.If {
			arrivals = append(arrivals, ts)
		}
	}
	p1 := &packet.Packet{IP: packet.IPv4{TTL: 64, Protocol: packet.ProtoICMP, Src: h1.Addr(), Dst: h2.Addr()},
		ICMP: &packet.ICMP{Type: packet.ICMPEchoRequest, ID: 1, Seq: 10}}
	p2 := net.PacketPool().Clone(p1)
	p2.ICMP.Seq = 11
	net.Transmit(h1.If, p1)
	net.Transmit(h1.If, p2)
	net.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	gap := arrivals[1] - arrivals[0]
	if gap < 15*time.Millisecond {
		t.Errorf("second packet did not queue: gap %v", gap)
	}
}

func TestInfiniteBandwidthUnchanged(t *testing.T) {
	net, h1, h2 := pairedHosts(t, 1, time.Millisecond)
	var got *packet.Packet
	h1.Handler = func(net *Network, pkt *packet.Packet) { net.AdoptPacket(pkt); got = pkt }
	probe := &packet.Packet{
		IP:   packet.IPv4{TTL: 64, Protocol: packet.ProtoICMP, Src: h1.Addr(), Dst: h2.Addr()},
		ICMP: &packet.ICMP{Type: packet.ICMPEchoRequest, ID: 2, Seq: 1},
	}
	elapsed := net.Inject(h1.If, probe)
	if got == nil || elapsed != 2*time.Millisecond {
		t.Errorf("RTT = %v, want exactly 2ms with no bandwidth model", elapsed)
	}
}
