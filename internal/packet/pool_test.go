package packet

import (
	"testing"
)

func poolProbe() *Packet {
	return &Packet{
		MPLS: LabelStack{{Label: 100, TTL: 5}, {Label: 200, TTL: 9, Bottom: true}},
		IP:   IPv4{TTL: 12, Protocol: ProtoICMP, Src: 0x0a000001, Dst: 0x0a000002},
		ICMP: &ICMP{
			Type: ICMPTimeExceeded, Code: 0,
			Quote: &Quote{IP: IPv4{Protocol: ProtoUDP}, ID: 33000, Seq: 33434},
			Ext:   &Extension{LabelStack: LabelStack{{Label: 300, TTL: 1, Bottom: true}}},
		},
		PayloadLen: 8,
	}
}

func TestPoolCloneIsDeepAndEqual(t *testing.T) {
	var pl Pool
	src := poolProbe()
	c := pl.Clone(src)
	if c == src || c.ICMP == src.ICMP || c.ICMP.Quote == src.ICMP.Quote || c.ICMP.Ext == src.ICMP.Ext {
		t.Fatal("pooled clone aliases the source")
	}
	if &c.MPLS[0] == &src.MPLS[0] || &c.ICMP.Ext.LabelStack[0] == &src.ICMP.Ext.LabelStack[0] {
		t.Fatal("pooled clone aliases a source label stack")
	}
	if c.String() != src.String() || c.IP != src.IP || *c.ICMP.Quote != *src.ICMP.Quote {
		t.Fatalf("clone differs: %v vs %v", c, src)
	}
	for i := range src.MPLS {
		if c.MPLS[i] != src.MPLS[i] {
			t.Fatalf("MPLS[%d] differs", i)
		}
	}
}

func TestPoolReleaseRecycles(t *testing.T) {
	var pl Pool
	c := pl.Clone(poolProbe())
	icmp, quote, ext := c.ICMP, c.ICMP.Quote, c.ICMP.Ext
	pl.Release(c)

	// The same objects come back out, zeroed.
	p2 := pl.Packet()
	if p2 != c {
		t.Fatal("released packet not recycled")
	}
	if p2.ICMP != nil || p2.UDP != nil || p2.MPLS != nil || p2.IP != (IPv4{}) {
		t.Fatalf("recycled packet not zeroed: %+v", p2)
	}
	if m := pl.ICMP(); m != icmp || m.Quote != nil || m.Ext != nil {
		t.Fatal("released ICMP not recycled zeroed")
	}
	if q := pl.Quote(); q != quote || *q != (Quote{}) {
		t.Fatal("released quote not recycled zeroed")
	}
	if e := pl.Extension(); e != ext || e.LabelStack != nil {
		t.Fatal("released extension not recycled zeroed")
	}
	// The stack backing array is recycled too.
	s := pl.Stack(2)
	if len(s) != 2 || s[0] != (LSE{}) || s[1] != (LSE{}) {
		t.Fatalf("recycled stack not zeroed: %v", s)
	}
}

func TestPoolReleaseIgnoresForeign(t *testing.T) {
	var pl Pool
	foreign := poolProbe() // never pooled
	pl.Release(foreign)
	if foreign.ICMP == nil {
		t.Fatal("Release zeroed a packet the pool does not own")
	}
	if len(pl.pkts) != 0 {
		t.Fatal("foreign packet entered the free list")
	}
}

func TestPoolCloneAfterWarmupDoesNotAllocate(t *testing.T) {
	var pl Pool
	src := poolProbe()
	// Warm the free lists past any growth.
	for i := 0; i < 32; i++ {
		pl.Release(pl.Clone(src))
	}
	allocs := testing.AllocsPerRun(100, func() {
		pl.Release(pl.Clone(src))
	})
	if allocs != 0 {
		t.Errorf("warm Clone+Release allocates %.1f objects/op, want 0", allocs)
	}
}

func TestPushPopInPlaceMatchCopying(t *testing.T) {
	base := LabelStack{{Label: 10, TTL: 3}, {Label: 20, TTL: 4, Bottom: true}}

	want := base.Push(LSE{Label: 5, TTL: 9})
	got := append(LabelStack(nil), base...)
	got.PushInPlace(LSE{Label: 5, TTL: 9})
	if len(got) != len(want) {
		t.Fatalf("push length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("push entry %d = %v, want %v", i, got[i], want[i])
		}
	}

	topW, restW, okW := want.Pop()
	gotPop := got
	topG, okG := gotPop.PopInPlace()
	if okW != okG || topW != topG || len(gotPop) != len(restW) {
		t.Fatalf("pop mismatch: %v/%v vs %v/%v", topG, okG, topW, okW)
	}
	for i := range restW {
		if gotPop[i] != restW[i] {
			t.Fatalf("pop entry %d = %v, want %v", i, gotPop[i], restW[i])
		}
	}

	var empty LabelStack
	if _, ok := empty.PopInPlace(); ok {
		t.Fatal("PopInPlace on empty stack reported ok")
	}
}
