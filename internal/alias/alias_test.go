package alias

import (
	"testing"

	"wormhole/internal/gen"
	"wormhole/internal/lab"
	"wormhole/internal/netaddr"
	"wormhole/internal/router"
)

func a(s string) netaddr.Addr { return netaddr.MustParseAddr(s) }

// same reports whether two addresses resolved to one router.
func same(s *Sets, x, y netaddr.Addr) bool { return s.find(x) == s.find(y) }

// numSets counts the distinct alias sets among known addresses.
func numSets(s *Sets) int {
	roots := map[netaddr.Addr]bool{}
	for x := range s.parent {
		roots[s.find(x)] = true
	}
	return len(roots)
}

func TestUnionFind(t *testing.T) {
	s := NewSets()
	s.Union(a("1.0.0.1"), a("1.0.0.2"))
	s.Union(a("1.0.0.2"), a("1.0.0.3"))
	s.Union(a("2.0.0.1"), a("2.0.0.2"))

	if !same(s, a("1.0.0.1"), a("1.0.0.3")) {
		t.Error("transitive union failed")
	}
	if same(s, a("1.0.0.1"), a("2.0.0.1")) {
		t.Error("distinct sets merged")
	}
	if n := numSets(s); n != 2 || len(s.parent) != 5 {
		t.Errorf("%d sets over %d addresses, want 2 over 5", n, len(s.parent))
	}
	// Self-union and repeats are harmless.
	s.Union(a("1.0.0.1"), a("1.0.0.1"))
	s.Union(a("1.0.0.1"), a("1.0.0.2"))
	if n := numSets(s); n != 2 {
		t.Errorf("sets after no-ops = %d", n)
	}
}

func TestCanonicalStable(t *testing.T) {
	s := NewSets()
	s.Union(a("9.0.0.1"), a("9.0.0.2"))
	c1 := s.find(a("9.0.0.1"))
	c2 := s.find(a("9.0.0.2"))
	if c1 != c2 {
		t.Error("canonical differs within a set")
	}
	if s.find(a("9.0.0.1")) != c1 {
		t.Error("canonical changed on a repeated find")
	}
}

// TestMercatorOnTestbed resolves the Fig. 2 routers' interface addresses:
// multi-interface routers whose unreachables come from the outgoing
// interface must collapse into one set.
func TestMercatorOnTestbed(t *testing.T) {
	l := lab.MustBuild(lab.Options{Scenario: lab.Default})
	// Probe both interfaces of P2 plus PE2's left side.
	p2Left := l.P2Left
	var p2Right netaddr.Addr
	for _, ifc := range l.P2.Ifaces() {
		if ifc.Addr != p2Left {
			p2Right = ifc.Addr
		}
	}
	sets := Resolve(l.Prober, []netaddr.Addr{p2Left, p2Right, l.PE2Left, l.P1Left})
	// Probing P2's right interface elicits a reply from its left (facing
	// the VP): alias detected.
	if !same(sets, p2Left, p2Right) {
		t.Errorf("P2's interfaces not aliased: %v under %v, %v under %v",
			p2Left, sets.find(p2Left), p2Right, sets.find(p2Right))
	}
	// Different routers never merge.
	if same(sets, p2Left, l.PE2Left) || same(sets, p2Left, l.P1Left) {
		t.Error("distinct routers merged")
	}
	if sets.Pairs == 0 {
		t.Error("no alias pairs observed")
	}
}

// TestMercatorBlindOnWellBehavedOS: routers sourcing replies from the
// probed address yield no pairs — the resolution is honest about its
// limits.
func TestMercatorBlindOnWellBehavedOS(t *testing.T) {
	pers := router.Cisco
	pers.ReplyFromOutgoing = false
	l := lab.MustBuild(lab.Options{Scenario: lab.Default, AS2Personality: pers})
	var addrs []netaddr.Addr
	for _, ifc := range l.P2.Ifaces() {
		addrs = append(addrs, ifc.Addr)
	}
	sets := Resolve(l.Prober, addrs)
	if sets.Pairs != 0 {
		t.Errorf("pairs = %d on a well-behaved OS", sets.Pairs)
	}
	if same(sets, addrs[0], addrs[1]) {
		t.Error("addresses merged without evidence")
	}
}

// TestMercatorAgainstGroundTruth runs alias resolution across a generated
// Internet and scores it against the generator's truth: no false merges,
// and a reasonable share of true aliases found.
func TestMercatorAgainstGroundTruth(t *testing.T) {
	p := gen.DefaultParams(909)
	p.NumTier1, p.NumTransit, p.NumStub, p.NumVPs = 2, 4, 8, 4
	in, err := gen.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	vp := in.VPs[0]
	addrs := in.RouterAddrs()
	sets := Resolve(vp.Prober, addrs)

	truePairs, falsePairs := 0, 0
	for i := 0; i < len(addrs); i++ {
		for j := i + 1; j < len(addrs); j++ {
			if !same(sets, addrs[i], addrs[j]) {
				continue
			}
			oi, _ := in.Owner(addrs[i])
			oj, _ := in.Owner(addrs[j])
			if oi.Router == oj.Router {
				truePairs++
			} else {
				falsePairs++
			}
		}
	}
	if falsePairs > 0 {
		t.Errorf("%d false alias merges", falsePairs)
	}
	if truePairs == 0 {
		t.Error("no true aliases recovered")
	}
	t.Logf("alias resolution: %d true merged pairs, %d sets over %d addrs",
		truePairs, numSets(sets), len(addrs))
}

func TestResolverAdapter(t *testing.T) {
	s := NewSets()
	s.Union(a("1.0.0.1"), a("1.0.0.2"))
	r := s.Resolver(func(netaddr.Addr) uint32 { return 7 })
	n1, asn, ok := r(a("1.0.0.1"))
	if !ok || asn != 7 {
		t.Fatalf("resolver: %s %d %v", n1, asn, ok)
	}
	n2, _, _ := r(a("1.0.0.2"))
	if n1 != n2 {
		t.Error("aliases resolve to different router names")
	}
	if _, _, ok := r(a("8.8.8.8")); ok {
		t.Error("unknown address resolved")
	}
}
