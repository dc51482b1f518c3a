package lab

import (
	"testing"
	"testing/quick"
	"time"

	"wormhole/internal/netaddr"
	"wormhole/internal/netsim"
	"wormhole/internal/packet"
	"wormhole/internal/reveal"
	"wormhole/internal/router"
)

// The testbed is small enough to brute-force invariants over every
// scenario, personality, and probe TTL: properties that must hold whatever
// the MPLS configuration.

func allScenarios() []Scenario {
	return []Scenario{Default, BackwardRecursive, ExplicitRoute, TotallyInvisible}
}

// TestInvariantDestinationAlwaysReached: whatever the tunnel configuration
// does to intermediate hops, the destination must answer — MPLS hides
// hops, it must never break forwarding.
func TestInvariantDestinationAlwaysReached(t *testing.T) {
	for _, sc := range allScenarios() {
		for _, pers := range []router.Personality{router.Cisco, router.Juniper, router.JunosE, router.Legacy} {
			l := MustBuild(Options{Scenario: sc, AS2Personality: pers})
			for _, dst := range []netaddr.Addr{l.CE2Left, l.CE2Lo, l.PE2Left, l.PE2Lo} {
				tr := l.Prober.Traceroute(dst)
				if !tr.Reached {
					t.Errorf("%s/%s: %s unreachable: %+v", sc, pers.Name, dst, tr.Hops)
				}
			}
		}
	}
}

// TestInvariantReplyTTLBounded: every reply TTL is below the responder's
// initial TTL by at least the true return distance and never exceeds it.
func TestInvariantReplyTTLBounded(t *testing.T) {
	for _, sc := range allScenarios() {
		l := MustBuild(Options{Scenario: sc})
		tr := l.Prober.Traceroute(l.CE2Left)
		for _, h := range tr.Hops {
			if h.Anonymous() {
				continue
			}
			var initial uint8 = 255 // all Cisco here
			if h.ICMPType == packet.ICMPEchoReply {
				initial = 255
			}
			if h.ReplyTTL > initial {
				t.Errorf("%s: hop %s reply TTL %d above initial", sc, h.Addr, h.ReplyTTL)
			}
			// The reply crossed at least CE1 on its way back.
			if h.Addr != l.CE1Left && h.ReplyTTL > initial-1 {
				t.Errorf("%s: hop %s reply TTL %d did not decrement", sc, h.Addr, h.ReplyTTL)
			}
		}
	}
}

// TestInvariantVisibleHopsAreSubset: hiding tunnels only removes hops;
// every hop visible in an invisible-tunnel trace must also exist in the
// propagating trace toward the same destination.
func TestInvariantVisibleHopsAreSubset(t *testing.T) {
	full := MustBuild(Options{Scenario: Default})
	fullHops := map[netaddr.Addr]bool{}
	for _, h := range full.Prober.Traceroute(full.CE2Left).Hops {
		fullHops[h.Addr] = true
	}
	for _, sc := range []Scenario{BackwardRecursive, ExplicitRoute} {
		l := MustBuild(Options{Scenario: sc})
		for _, h := range l.Prober.Traceroute(l.CE2Left).Hops {
			if h.Anonymous() {
				continue
			}
			if !fullHops[h.Addr] {
				t.Errorf("%s: hop %s not present in the propagating trace", sc, h.Addr)
			}
		}
	}
}

// TestInvariantMonotoneProbeTTL: quick-checked over random probe TTLs —
// a probe with larger TTL never terminates at an earlier hop than a probe
// with smaller TTL (per-flow path stability under Paris).
func TestInvariantMonotoneProbeTTL(t *testing.T) {
	l := MustBuild(Options{Scenario: BackwardRecursive})
	dist := func(ttl uint8) int {
		reply, ok := pingAt(l, l.CE2Left, ttl)
		if !ok {
			return -1
		}
		return reply
	}
	f := func(a, b uint8) bool {
		ta := 1 + a%12
		tb := 1 + b%12
		if ta > tb {
			ta, tb = tb, ta
		}
		da, db := dist(ta), dist(tb)
		if da < 0 || db < 0 {
			return false
		}
		// The responder for the smaller TTL is never farther along the
		// path (identified here by the probe TTL at which the destination
		// finally answers: once reached, stays reached).
		return da <= db
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// pingAt sends one probe with the given TTL toward dst and reports how
// many responding hops a trace capped at that TTL sees.
func pingAt(l *Lab, dst netaddr.Addr, maxTTL uint8) (int, bool) {
	p := l.Prober
	saveMax := p.MaxTTL
	p.MaxTTL = maxTTL
	defer func() { p.MaxTTL = saveMax }()
	tr := p.Traceroute(dst)
	n := 0
	for _, h := range tr.Hops {
		if !h.Anonymous() {
			n++
		}
	}
	return n, true
}

// TestInvariantRevelationNeverInventsHops: every address produced by the
// revelation process must belong to the testbed (no phantom addresses).
func TestInvariantRevelationNeverInventsHops(t *testing.T) {
	known := map[netaddr.Addr]bool{}
	for _, sc := range allScenarios() {
		l := MustBuild(Options{Scenario: sc})
		for _, r := range []*router.Router{l.CE1, l.PE1, l.P1, l.P2, l.P3, l.PE2, l.CE2} {
			for _, ifc := range r.Ifaces() {
				known[ifc.Addr] = true
			}
			if lo := r.Loopback(); lo != nil {
				known[lo.Addr] = true
			}
		}
		rev := reveal.Reveal(l.Prober, l.PE1Left, l.PE2Left)
		for _, h := range rev.Hops {
			if !known[h] {
				t.Errorf("%s: revelation invented address %s", sc, h)
			}
		}
	}
}

// TestInvariantProbeConservation: the number of probes sent by a
// traceroute equals the number of hops probed (accounting sanity that the
// campaign's cost figures rest on).
func TestInvariantProbeConservation(t *testing.T) {
	l := MustBuild(Options{Scenario: BackwardRecursive})
	before := l.Prober.Sent
	tr := l.Prober.Traceroute(l.CE2Left)
	sent := l.Prober.Sent - before
	if sent != uint64(len(tr.Hops)) {
		t.Errorf("sent %d probes for %d hops", sent, len(tr.Hops))
	}
}

// labelDepths counts a fabric's deliveries by label-stack depth.
type labelDepths struct{ one, deeper int }

// watchLabelDepths installs a Trace hook on net that counts its
// deliveries carrying one label and more than one.
func watchLabelDepths(net *netsim.Network) *labelDepths {
	d := new(labelDepths)
	net.Trace = func(_ time.Duration, _ *netsim.Iface, pkt *packet.Packet) {
		switch {
		case len(pkt.MPLS) == 1:
			d.one++
		case len(pkt.MPLS) > 1:
			d.deeper++
		}
	}
	return d
}

// TestInvariantOneLabelDeep: traces, pings and revelations across every
// scenario, personality and the two-tunnel testbed never stack a second
// label, the invariant the router's MPLS path rests on.
func TestInvariantOneLabelDeep(t *testing.T) {
	for _, sc := range allScenarios() {
		for _, pers := range []router.Personality{router.Cisco, router.Juniper, router.JunosE, router.Legacy} {
			l := MustBuild(Options{Scenario: sc, AS2Personality: pers})
			d := watchLabelDepths(l.Net)
			for _, dst := range []netaddr.Addr{l.CE2Left, l.CE2Lo, l.PE2Left, l.PE2Lo} {
				l.Prober.Traceroute(dst)
				l.Prober.Ping(dst, 64)
			}
			reveal.Reveal(l.Prober, l.PE1Left, l.PE2Left)
			if d.deeper != 0 || d.one == 0 {
				t.Errorf("%s/%s: %d deliveries with more than one label, %d with one", sc, pers.Name, d.deeper, d.one)
			}
		}
	}
	dl := MustBuildDouble()
	d := watchLabelDepths(dl.Net)
	dl.Prober.Traceroute(dl.CE2Left)
	dl.Prober.Ping(dl.CE2Left, 64)
	reveal.AugmentedTraceroute(dl.Prober, dl.CE2Left)
	if d.deeper != 0 || d.one == 0 {
		t.Errorf("double testbed: %d deliveries with more than one label, %d with one", d.deeper, d.one)
	}
}
