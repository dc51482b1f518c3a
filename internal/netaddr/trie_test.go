package netaddr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTrieBasic(t *testing.T) {
	var tr Trie[string]
	tr.Insert(MustParsePrefix("10.0.0.0/8"), "big")
	tr.Insert(MustParsePrefix("10.1.0.0/16"), "mid")
	tr.Insert(MustParsePrefix("10.1.2.0/24"), "small")

	cases := []struct {
		addr string
		want string
		ok   bool
	}{
		{"10.1.2.3", "small", true},
		{"10.1.3.4", "mid", true},
		{"10.9.9.9", "big", true},
		{"11.0.0.1", "", false},
	}
	for _, c := range cases {
		_, got, ok := tr.LookupPrefix(MustParseAddr(c.addr))
		if ok != c.ok || got != c.want {
			t.Errorf("LookupPrefix(%s) = %q,%v want %q,%v", c.addr, got, ok, c.want, c.ok)
		}
	}
	if tr.Len() != 3 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestTrieDefaultRoute(t *testing.T) {
	var tr Trie[int]
	tr.Insert(MustParsePrefix("0.0.0.0/0"), 42)
	if p, v, ok := tr.LookupPrefix(MustParseAddr("203.0.113.77")); !ok || v != 42 || p.Bits() != 0 {
		t.Errorf("default route lookup = %d,%v", v, ok)
	}
}

func TestTrieHostRouteWins(t *testing.T) {
	var tr Trie[int]
	tr.Insert(MustParsePrefix("192.0.2.0/24"), 1)
	tr.Insert(HostPrefix(MustParseAddr("192.0.2.7")), 2)
	if p, v, _ := tr.LookupPrefix(MustParseAddr("192.0.2.7")); v != 2 || !p.IsHost() {
		t.Errorf("host route should win, got %d", v)
	}
	if _, v, _ := tr.LookupPrefix(MustParseAddr("192.0.2.8")); v != 1 {
		t.Errorf("covering route expected, got %d", v)
	}
}

func TestTrieReplace(t *testing.T) {
	var tr Trie[int]
	p := MustParsePrefix("10.0.0.0/8")
	tr.Insert(p, 1)
	tr.Insert(p, 2)
	if tr.Len() != 1 {
		t.Errorf("Len after replace = %d", tr.Len())
	}
	if v, _ := tr.Get(p); v != 2 {
		t.Errorf("Get = %d", v)
	}
}

func TestTrieGetExact(t *testing.T) {
	var tr Trie[int]
	tr.Insert(MustParsePrefix("10.0.0.0/8"), 1)
	if _, ok := tr.Get(MustParsePrefix("10.0.0.0/16")); ok {
		t.Error("Get must not apply LPM semantics")
	}
}

func TestTrieLookupPrefix(t *testing.T) {
	var tr Trie[int]
	tr.Insert(MustParsePrefix("10.0.0.0/8"), 1)
	tr.Insert(MustParsePrefix("10.2.0.0/15"), 2)
	p, v, ok := tr.LookupPrefix(MustParseAddr("10.3.4.5"))
	if !ok || v != 2 || p.String() != "10.2.0.0/15" {
		t.Errorf("LookupPrefix = %v,%d,%v", p, v, ok)
	}
}

// linearFIB is a trivially-correct LPM oracle for property testing.
type linearFIB struct {
	prefixes []Prefix
	values   []int
}

func (l *linearFIB) insert(p Prefix, v int) {
	for i, q := range l.prefixes {
		if q == p {
			l.values[i] = v
			return
		}
	}
	l.prefixes = append(l.prefixes, p)
	l.values = append(l.values, v)
}

func (l *linearFIB) lookup(a Addr) (Prefix, int, bool) {
	var bestP Prefix
	best, ok := 0, false
	for i, p := range l.prefixes {
		if p.Contains(a) && (!ok || p.Bits() > bestP.Bits()) {
			bestP, best, ok = p, l.values[i], true
		}
	}
	return bestP, best, ok
}

func TestTrieMatchesLinearOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var tr Trie[int]
		var lin linearFIB
		for i := 0; i < 200; i++ {
			p, err := PrefixFrom(Addr(rng.Uint32()), rng.Intn(33))
			if err != nil {
				return false
			}
			tr.Insert(p, i)
			lin.insert(p, i)
		}
		for i := 0; i < 500; i++ {
			a := Addr(rng.Uint32())
			tp, tv, tok := tr.LookupPrefix(a)
			lp, lv, lok := lin.lookup(a)
			if tok != lok || (tok && (tv != lv || tp != lp)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTrieLookupPrefix(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var tr Trie[int]
	for i := 0; i < 10000; i++ {
		p, _ := PrefixFrom(Addr(rng.Uint32()), 8+rng.Intn(25))
		tr.Insert(p, i)
	}
	addrs := make([]Addr, 1024)
	for i := range addrs {
		addrs[i] = Addr(rng.Uint32())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.LookupPrefix(addrs[i&1023])
	}
}

func TestTrieClone(t *testing.T) {
	var tr Trie[*int]
	mk := func(v int) *int { return &v }
	tr.Insert(MustParsePrefix("0.0.0.0/0"), mk(0))
	tr.Insert(MustParsePrefix("10.0.0.0/8"), mk(1))
	tr.Insert(MustParsePrefix("10.1.0.0/16"), mk(2))
	tr.Insert(HostPrefix(MustParseAddr("10.1.2.3")), mk(3))

	arena := NewTrieArena[*int](tr.NodeCount())
	cl := tr.CloneInto(arena, func(p *int) *int { v := *p; return &v })
	if cl.Len() != tr.Len() {
		t.Fatalf("clone Len = %d, want %d", cl.Len(), tr.Len())
	}
	// Same lookups, different value pointers (fn was applied).
	for _, addr := range []string{"10.1.2.3", "10.1.9.9", "10.9.9.9", "192.0.2.1"} {
		a := MustParseAddr(addr)
		pw, vw, okw := tr.LookupPrefix(a)
		pg, vg, okg := cl.LookupPrefix(a)
		if okw != okg || pw != pg || *vw != *vg {
			t.Fatalf("%s: clone lookup (%v,%v,%v), want (%v,%v,%v)", addr, pg, vg, okg, pw, vw, okw)
		}
		if vw == vg {
			t.Fatalf("%s: clone shares the value pointer", addr)
		}
	}
	// Structural independence: mutating the clone leaves the original alone.
	cl.Insert(MustParsePrefix("172.16.0.0/12"), mk(9))
	cl.Insert(MustParsePrefix("10.0.0.0/8"), mk(8))
	if _, ok := tr.Get(MustParsePrefix("172.16.0.0/12")); ok {
		t.Fatal("insert into clone leaked into original")
	}
	if v, _ := tr.Get(MustParsePrefix("10.0.0.0/8")); *v != 1 {
		t.Fatalf("replacing a prefix in the clone changed the original's value to %d", *v)
	}
}
