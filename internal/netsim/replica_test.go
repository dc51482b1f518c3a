// Failure injection under the shard-ownership assertion: a worker
// goroutine adopts a cloned replica (the parallel campaign engine's
// deployment shape) and exercises link-down behaviour on it.
// External test package: the replica comes from gen, which imports netsim.
package netsim_test

import (
	"fmt"
	"testing"

	"wormhole/internal/gen"
)

// buildReplica clones a small generated Internet, as a campaign worker
// would.
func buildReplica(t *testing.T) *gen.Internet {
	t.Helper()
	p := gen.DefaultParams(17)
	p.NumTier1, p.NumTransit, p.NumStub, p.NumVPs = 2, 3, 6, 2
	in, err := gen.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	replica, err := in.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return replica
}

// TestReplicaFailureInjection drives a worker-owned replica through a
// downed access link: the trace goes silent, recovery restores the path,
// and none of it trips the ownership assertion.
func TestReplicaFailureInjection(t *testing.T) {
	done := make(chan error, 1)
	fail := func(format string, a ...any) bool {
		select {
		case done <- fmt.Errorf(format, a...):
		default:
		}
		return true
	}
	replica := buildReplica(t)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				fail("replica drive panicked: %v", r)
			}
			select {
			case done <- nil:
			default:
			}
		}()
		replica.Net.BindOwner()
		vp := replica.VPs[0]
		dst := replica.VPs[1].Host.Addr()

		tr := vp.Prober.Traceroute(dst)
		if !tr.Reached {
			fail("baseline trace did not reach %s", dst)
			return
		}
		responding := 0
		for _, h := range tr.Hops {
			if !h.Anonymous() {
				responding++
			}
		}
		if responding == 0 {
			fail("baseline trace has no responding hops")
			return
		}

		// Link down: every probe vanishes on the access link.
		access := vp.Host.If.Link
		access.Up = false
		if down := vp.Prober.Traceroute(dst); down.Reached {
			fail("trace crossed a down link")
			return
		} else {
			for _, h := range down.Hops {
				if !h.Anonymous() {
					fail("hop %s responded over a down link", h.Addr)
					return
				}
			}
		}
		access.Up = true

		// Recovery: the original path comes back verbatim.
		again := vp.Prober.Traceroute(dst)
		if !again.Reached || len(again.Hops) != len(tr.Hops) {
			fail("path did not recover: reached=%v hops=%d want %d", again.Reached, len(again.Hops), len(tr.Hops))
			return
		}
		for i := range again.Hops {
			if again.Hops[i].Addr != tr.Hops[i].Addr {
				fail("hop %d changed after recovery: %s != %s", i, again.Hops[i].Addr, tr.Hops[i].Addr)
				return
			}
		}
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
