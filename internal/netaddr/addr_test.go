package netaddr

import (
	"testing"
	"testing/quick"

	"wormhole/internal/wirefmt"
)

func TestParseAddr(t *testing.T) {
	cases := []struct {
		in   string
		want Addr
		ok   bool
	}{
		{"0.0.0.0", 0, true},
		{"255.255.255.255", 0xffffffff, true},
		{"10.0.0.1", AddrFrom4(10, 0, 0, 1), true},
		{"192.168.2.254", AddrFrom4(192, 168, 2, 254), true},
		{"1.2.3", 0, false},
		{"1.2.3.4.5", 0, false},
		{"256.0.0.1", 0, false},
		{"a.b.c.d", 0, false},
		{"", 0, false},
		{"1..2.3", 0, false},
		{"-1.0.0.0", 0, false},
	}
	for _, c := range cases {
		got, err := ParseAddr(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseAddr(%q) err=%v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseAddr(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestAddrStringRoundTrip(t *testing.T) {
	f := func(u uint32) bool {
		a := Addr(u)
		back, err := ParseAddr(a.String())
		return err == nil && back == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddrOctets(t *testing.T) {
	a := MustParseAddr("1.2.3.4")
	o1, o2, o3, o4 := a.Octets()
	if o1 != 1 || o2 != 2 || o3 != 3 || o4 != 4 {
		t.Errorf("Octets = %d.%d.%d.%d", o1, o2, o3, o4)
	}
}

func TestMustParseAddrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseAddr did not panic on bad input")
		}
	}()
	MustParseAddr("not an address")
}

func TestParsePrefix(t *testing.T) {
	p := MustParsePrefix("10.1.2.3/24")
	if got := p.String(); got != "10.1.2.0/24" {
		t.Errorf("canonicalized prefix = %q, want 10.1.2.0/24", got)
	}
	if p.Bits() != 24 {
		t.Errorf("Bits = %d", p.Bits())
	}
	if !p.Contains(MustParseAddr("10.1.2.255")) {
		t.Error("prefix should contain 10.1.2.255")
	}
	if p.Contains(MustParseAddr("10.1.3.0")) {
		t.Error("prefix should not contain 10.1.3.0")
	}
	for _, bad := range []string{"10.0.0.0", "10.0.0.0/33", "10.0.0.0/-1", "x/8", "10.0.0.0/x"} {
		if _, err := ParsePrefix(bad); err == nil {
			t.Errorf("ParsePrefix(%q) succeeded, want error", bad)
		}
	}
}

func TestPrefixZeroLen(t *testing.T) {
	def := MustParsePrefix("0.0.0.0/0")
	if !def.Contains(MustParseAddr("203.0.113.9")) {
		t.Error("default route must contain everything")
	}
	if def.NumAddrs() != 1<<32 {
		t.Errorf("NumAddrs = %d", def.NumAddrs())
	}
}

func TestPrefixContainsProperty(t *testing.T) {
	// Any address masked into a prefix must be contained by that prefix.
	f := func(u uint32, bits uint8) bool {
		b := int(bits % 33)
		p, err := PrefixFrom(Addr(u), b)
		if err != nil {
			return false
		}
		return p.Contains(Addr(u))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHostPrefix(t *testing.T) {
	a := MustParseAddr("198.51.100.7")
	p := HostPrefix(a)
	if !p.IsHost() || p.Addr() != a {
		t.Errorf("HostPrefix = %v", p)
	}
	if p.Contains(a + 1) {
		t.Error("host prefix must contain exactly one address")
	}
}

func TestPrefixNth(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/30")
	if got := p.Nth(3); got != MustParseAddr("10.0.0.3") {
		t.Errorf("Nth(3) = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Nth out of range did not panic")
		}
	}()
	p.Nth(4)
}

func TestPrefixBinaryRoundTrip(t *testing.T) {
	// The snapshot wire codec is the one binary form a prefix takes.
	f := func(u uint32, bits uint8) bool {
		p, err := PrefixFrom(Addr(u), int(bits%33))
		if err != nil {
			return false
		}
		var w wirefmt.Writer
		AppendPrefix(&w, p)
		r := wirefmt.NewReader(w.Buf)
		back := DecodePrefix(r)
		return r.Err() == nil && r.Len() == 0 && back == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if r := wirefmt.NewReader([]byte{1, 2}); DecodePrefix(r) != (Prefix{}) || r.Err() == nil {
		t.Error("short input accepted")
	}
	if r := wirefmt.NewReader([]byte{1, 2, 3, 4, 40}); DecodePrefix(r) != (Prefix{}) || r.Err() == nil {
		t.Error("bad bits accepted")
	}
	// A non-canonical address is re-masked, not smuggled in.
	var w wirefmt.Writer
	w.U32(uint32(MustParseAddr("10.1.2.3")))
	w.U8(8)
	if got := DecodePrefix(wirefmt.NewReader(w.Buf)); got != MustParsePrefix("10.0.0.0/8") {
		t.Errorf("decoded %v, want 10.0.0.0/8", got)
	}
}
