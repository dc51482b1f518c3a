package packet

import (
	"testing"
	"testing/quick"

	"wormhole/internal/netaddr"
)

func TestLSEWireRoundTrip(t *testing.T) {
	f := func(label uint32, tc uint8, bottom bool, ttl uint8) bool {
		e := LSE{Label: label % (MaxLabel + 1), TC: tc % 8, Bottom: bottom, TTL: ttl}
		b, err := e.AppendWire(nil)
		if err != nil || len(b) != 4 {
			return false
		}
		back, err := DecodeLSE(b)
		return err == nil && back == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLSERejectsBadLabel(t *testing.T) {
	if _, err := (LSE{Label: MaxLabel + 1}).AppendWire(nil); err == nil {
		t.Error("oversized label accepted")
	}
	if _, err := (LSE{TC: 8}).AppendWire(nil); err == nil {
		t.Error("oversized TC accepted")
	}
}

func TestLabelStackPushPop(t *testing.T) {
	var s LabelStack
	s = s.Push(LSE{Label: 100, TTL: 255})
	s = s.Push(LSE{Label: 200, TTL: 254})
	if len(s) != 2 || s[0].Label != 200 {
		t.Fatalf("stack after pushes: %v", s)
	}
	if s[0].Bottom || !s[1].Bottom {
		t.Errorf("bottom flags not normalized: %v", s)
	}
	top, rest, ok := s.Pop()
	if !ok || top.Label != 200 || len(rest) != 1 {
		t.Fatalf("Pop = %v %v %v", top, rest, ok)
	}
	if !rest[0].Bottom {
		t.Error("remaining entry must be bottom")
	}
	_, _, ok = LabelStack{}.Pop()
	if ok {
		t.Error("Pop on empty stack reported ok")
	}
}

func TestLabelStackWireRoundTrip(t *testing.T) {
	s := LabelStack{{Label: 19, TTL: 1}, {Label: 301, TC: 5, TTL: 7}, {Label: 42, TTL: 255}}
	b, err := s.AppendWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	back, n, err := DecodeLabelStack(b)
	if err != nil || n != 12 {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	for i := range s {
		want := s[i]
		want.Bottom = i == len(s)-1
		if back[i] != want {
			t.Errorf("entry %d = %v, want %v", i, back[i], want)
		}
	}
}

func TestDecodeLabelStackTruncated(t *testing.T) {
	s := LabelStack{{Label: 5}, {Label: 6}}
	b, _ := s.AppendWire(nil)
	if _, _, err := DecodeLabelStack(b[:5]); err == nil {
		t.Error("truncated stack decoded")
	}
	// A stack that never sets bottom must not loop forever.
	nb := make([]byte, 4*100)
	if _, _, err := DecodeLabelStack(nb); err == nil {
		t.Error("bottomless stack decoded")
	}
}

func TestIPv4WireRoundTrip(t *testing.T) {
	h := IPv4{
		TOS:      0,
		ID:       0xbeef,
		DontFrag: true,
		TTL:      64,
		Protocol: ProtoUDP,
		Src:      netaddr.MustParseAddr("10.0.0.1"),
		Dst:      netaddr.MustParseAddr("192.0.2.9"),
	}
	b := h.AppendWire(nil, 12)
	if len(b) != 20 {
		t.Fatalf("header length %d", len(b))
	}
	if Checksum(b) != 0 {
		t.Errorf("header checksum does not verify: %x", Checksum(b))
	}
	back, total, off, err := DecodeIPv4(b)
	if err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Errorf("decoded %+v, want %+v", back, h)
	}
	if total != 32 || off != 20 {
		t.Errorf("total=%d off=%d", total, off)
	}
}

func TestDecodeIPv4Errors(t *testing.T) {
	if _, _, _, err := DecodeIPv4([]byte{0x45, 0}); err == nil {
		t.Error("short header decoded")
	}
	b := IPv4{TTL: 1, Protocol: ProtoICMP}.AppendWire(nil, 0)
	b[0] = 0x65 // version 6
	if _, _, _, err := DecodeIPv4(b); err == nil {
		t.Error("non-IPv4 decoded")
	}
}

func TestChecksumRFC1071Example(t *testing.T) {
	// Example from RFC 1071 §3: words 0001 f203 f4f5 f6f7 sum to ddf2
	// (one's complement of 220d).
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != ^uint16(0xddf2) {
		t.Errorf("Checksum = %04x, want %04x", got, ^uint16(0xddf2))
	}
}

func TestChecksumOddLength(t *testing.T) {
	if got := Checksum([]byte{0xab}); got != ^uint16(0xab00) {
		t.Errorf("odd-length checksum = %04x", got)
	}
}

func echoPacket() *Packet {
	return &Packet{
		IP: IPv4{
			ID:       7,
			TTL:      2,
			Protocol: ProtoICMP,
			Src:      netaddr.MustParseAddr("10.0.0.1"),
			Dst:      netaddr.MustParseAddr("203.0.113.5"),
		},
		ICMP:       &ICMP{Type: ICMPEchoRequest, ID: 0x1234, Seq: 9},
		PayloadLen: 8,
	}
}

func TestPacketEchoRoundTrip(t *testing.T) {
	p := echoPacket()
	b, err := p.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if back.IP != p.IP || *back.ICMP != *p.ICMP || back.PayloadLen != p.PayloadLen {
		t.Errorf("round trip mismatch:\n got %+v %+v\nwant %+v %+v", back.IP, back.ICMP, p.IP, p.ICMP)
	}
}

func TestPacketLabeledRoundTrip(t *testing.T) {
	p := echoPacket()
	p.MPLS = LabelStack{{Label: 19, TTL: 3}}
	b, err := p.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.MPLS) != 1 || back.MPLS[0].Label != 19 || back.MPLS[0].TTL != 3 || !back.MPLS[0].Bottom {
		t.Errorf("label stack = %v", back.MPLS)
	}
}

func TestPacketUDPRoundTrip(t *testing.T) {
	p := &Packet{
		IP: IPv4{
			TTL:      30,
			Protocol: ProtoUDP,
			Src:      netaddr.MustParseAddr("10.0.0.1"),
			Dst:      netaddr.MustParseAddr("203.0.113.5"),
		},
		UDP:        &UDP{SrcPort: 33434, DstPort: 33435},
		PayloadLen: 20,
	}
	b, err := p.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if *back.UDP != *p.UDP || back.PayloadLen != 20 {
		t.Errorf("UDP round trip: %+v len=%d", back.UDP, back.PayloadLen)
	}
}

func timeExceeded(withExt bool) *ICMP {
	m := &ICMP{
		Type: ICMPTimeExceeded,
		Code: CodeTTLExpired,
		Quote: &Quote{
			IP: IPv4{
				TTL:      1,
				Protocol: ProtoICMP,
				ID:       77,
				Src:      netaddr.MustParseAddr("10.0.0.1"),
				Dst:      netaddr.MustParseAddr("203.0.113.5"),
			},
			ICMPType: ICMPEchoRequest,
			ID:       0xabcd,
			Seq:      3,
		},
	}
	if withExt {
		m.Ext = &Extension{LabelStack: LabelStack{{Label: 19, TTL: 1, Bottom: true}}}
	}
	return m
}

func TestICMPTimeExceededRoundTrip(t *testing.T) {
	for _, withExt := range []bool{false, true} {
		m := timeExceeded(withExt)
		b, err := m.AppendWire(nil)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeICMP(b)
		if err != nil {
			t.Fatalf("withExt=%v: %v", withExt, err)
		}
		if back.Type != m.Type || back.Code != m.Code {
			t.Errorf("type/code = %d/%d", back.Type, back.Code)
		}
		if back.Quote == nil || *back.Quote != *m.Quote {
			t.Errorf("quote = %+v, want %+v", back.Quote, m.Quote)
		}
		if withExt {
			if back.Ext == nil || len(back.Ext.LabelStack) != 1 || back.Ext.LabelStack[0].Label != 19 {
				t.Errorf("extension = %+v", back.Ext)
			}
		} else if back.Ext != nil {
			t.Error("unexpected extension decoded")
		}
	}
}

func TestICMPExtensionRequiresQuotePadding(t *testing.T) {
	m := timeExceeded(true)
	b, err := m.AppendWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	// RFC 4884: length field (byte 5) counts 32-bit words of the padded
	// quote, which must be at least 128 bytes.
	if int(b[5])*4 < 128 {
		t.Errorf("quote length %d bytes < 128", int(b[5])*4)
	}
}

func TestICMPErrorWithoutQuoteRejected(t *testing.T) {
	m := &ICMP{Type: ICMPTimeExceeded}
	if _, err := m.AppendWire(nil); err == nil {
		t.Error("error message without quote serialized")
	}
}

func TestDecodeICMPTruncated(t *testing.T) {
	m := timeExceeded(true)
	b, _ := m.AppendWire(nil)
	for _, cut := range []int{3, 9, 20, len(b) - 3} {
		if _, err := DecodeICMP(b[:cut]); err == nil {
			t.Errorf("truncated at %d decoded", cut)
		}
	}
}

func TestPacketClone(t *testing.T) {
	p := echoPacket()
	p.MPLS = LabelStack{{Label: 5, TTL: 9}}
	var pl Pool
	c := pl.Clone(p)
	c.MPLS[0].TTL = 1
	c.ICMP.Seq = 99
	c.IP.TTL = 0
	if p.MPLS[0].TTL != 9 || p.ICMP.Seq != 9 || p.IP.TTL != 2 {
		t.Error("Clone aliases the original")
	}
}

func TestQuoteICMPChecksumVerifies(t *testing.T) {
	m := timeExceeded(false)
	b, err := m.AppendWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	if Checksum(b) != 0 {
		t.Errorf("ICMP checksum does not verify")
	}
}

func TestPacketString(t *testing.T) {
	p := echoPacket()
	s := p.String()
	for _, want := range []string{"10.0.0.1", "203.0.113.5", "ttl=2", "icmp"} {
		if !contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestDecodeNeverPanics feeds random bytes and mutated valid packets into
// every decoder: errors are fine, panics are not.
func TestDecodeNeverPanics(t *testing.T) {
	valid, err := (&Packet{
		MPLS: LabelStack{{Label: 30, TTL: 9}},
		IP: IPv4{
			TTL:      7,
			Protocol: ProtoICMP,
			Src:      netaddr.MustParseAddr("10.0.0.1"),
			Dst:      netaddr.MustParseAddr("10.0.0.2"),
		},
		ICMP: timeExceeded(true),
	}).Serialize()
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, cut uint16, flip uint16, val byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("decode panicked: %v", r)
			}
		}()
		b := append([]byte(nil), valid...)
		if len(b) > 0 {
			b = b[:int(cut)%(len(b)+1)]
		}
		if len(b) > 0 {
			b[int(flip)%len(b)] = val
		}
		Decode(b)
		DecodeICMP(b)
		DecodeIPv4(b)
		DecodeLabelStack(b)
		DecodeUDP(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestDecodeRandomBytes: pure noise must never panic either.
func TestDecodeRandomBytes(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("decode panicked on %x: %v", b, r)
			}
		}()
		Decode(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestSerializeDecodeIdempotent: Decode(Serialize(p)) re-serializes to the
// identical bytes.
func TestSerializeDecodeIdempotent(t *testing.T) {
	pkts := []*Packet{
		echoPacket(),
		{
			MPLS: LabelStack{{Label: 17, TTL: 3}, {Label: 42, TTL: 200}},
			IP: IPv4{TTL: 61, Protocol: ProtoUDP,
				Src: netaddr.MustParseAddr("192.0.2.1"), Dst: netaddr.MustParseAddr("192.0.2.2")},
			UDP:        &UDP{SrcPort: 1000, DstPort: 2000},
			PayloadLen: 5,
		},
		{
			IP: IPv4{TTL: 255, Protocol: ProtoICMP,
				Src: netaddr.MustParseAddr("10.9.9.9"), Dst: netaddr.MustParseAddr("10.1.1.1")},
			ICMP: timeExceeded(true),
		},
	}
	for i, p := range pkts {
		b1, err := p.Serialize()
		if err != nil {
			t.Fatalf("pkt %d: %v", i, err)
		}
		back, err := Decode(b1)
		if err != nil {
			t.Fatalf("pkt %d decode: %v", i, err)
		}
		b2, err := back.Serialize()
		if err != nil {
			t.Fatalf("pkt %d re-serialize: %v", i, err)
		}
		if string(b1) != string(b2) {
			t.Errorf("pkt %d not idempotent:\n%x\n%x", i, b1, b2)
		}
	}
}
