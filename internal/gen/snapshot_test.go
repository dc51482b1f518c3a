package gen

import (
	"fmt"
	"strings"
	"testing"

	"wormhole/internal/probe"
)

// dumpTraces renders every VP's traceroute to every router address — the
// complete data-plane behaviour an Internet replica must reproduce.
func dumpTraces(in *Internet) string {
	var sb strings.Builder
	for vi, vp := range in.VPs {
		for _, dst := range in.RouterAddrs() {
			tr := vp.Prober.Traceroute(dst)
			fmt.Fprintf(&sb, "vp%d %s reached=%v ", vi, dst, tr.Reached)
			writeHops(&sb, tr)
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

func writeHops(sb *strings.Builder, tr *probe.Trace) {
	for _, h := range tr.Hops {
		fmt.Fprintf(sb, "[%d %s rttl=%d t=%d c=%d mpls=%v]",
			h.ProbeTTL, h.Addr, h.ReplyTTL, h.ICMPType, h.ICMPCode, h.MPLS)
	}
}

// TestSnapshotEquivalence is the contract test for the structural
// snapshot: the original, a Snapshot replica, and a Rebuild replica must
// produce byte-identical traceroute behaviour over the whole address
// universe, and the snapshot must be fully independent of the original.
func TestSnapshotEquivalence(t *testing.T) {
	in, err := Build(smallParams(3))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := in.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := in.Rebuild()
	if err != nil {
		t.Fatal(err)
	}

	aa, bb := in.RouterAddrs(), snap.RouterAddrs()
	if len(aa) != len(bb) {
		t.Fatalf("addr counts differ: %d vs %d", len(aa), len(bb))
	}
	for i := range aa {
		if aa[i] != bb[i] {
			t.Fatalf("addr %d differs: %s vs %s", i, aa[i], bb[i])
		}
	}
	for i, as := range in.ASes {
		ns := snap.ASes[i]
		if as.Num != ns.Num || as.Profile != ns.Profile || len(as.Core) != len(ns.Core) || len(as.Edge) != len(ns.Edge) {
			t.Fatalf("AS %d metadata differs", i)
		}
		if ns.SPF() == nil != (as.SPF() == nil) {
			t.Fatalf("AS %d SPF presence differs", i)
		}
	}
	if got := snap.ASByNum(in.ASes[0].Num); got != snap.ASes[0] {
		t.Fatal("snapshot ASByNum index not rebuilt")
	}

	want := dumpTraces(in)
	if got := dumpTraces(snap); got != want {
		t.Errorf("snapshot traces diverge from original:\n%s", firstTraceDiff(want, got))
	}
	if got := dumpTraces(rebuilt); got != want {
		t.Errorf("rebuild traces diverge from original:\n%s", firstTraceDiff(want, got))
	}

	// Independence: tearing MPLS out of every original router must not
	// change the snapshot's view of the world.
	for _, as := range in.ASes {
		for _, r := range as.Core {
			r.ClearMPLS()
		}
		for _, r := range as.Edge {
			r.ClearMPLS()
		}
	}
	if got := dumpTraces(snap); got != want {
		t.Errorf("mutating the original changed the snapshot:\n%s", firstTraceDiff(want, got))
	}
}

func firstTraceDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  want %s\n  got  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line count: want %d, got %d", len(wl), len(gl))
}
