// Failure injection under the shard-ownership assertion: a worker
// goroutine adopts a cloned replica (the parallel campaign engine's
// deployment shape) and exercises LossProb and link-down behaviour on it.
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

// TestReplicaFailureInjection drives a worker-owned replica through loss
// and link-down injection on the VP's access link: full loss and a downed
// link silence every hop, recovery restores the path, and none of it trips
// the ownership assertion.
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

		access := vp.Host.If.Link

		// Full loss on the access link: every probe vanishes.
		access.LossProb = 1.0
		if lost := vp.Prober.Traceroute(dst); lost.Reached {
			fail("trace reached destination over a fully lossy link")
			return
		} else {
			for _, h := range lost.Hops {
				if !h.Anonymous() {
					fail("hop %s responded over a fully lossy link", h.Addr)
					return
				}
			}
		}
		access.LossProb = 0

		// Link down: same silence, different mechanism.
		access.Up = false
		if down := vp.Prober.Traceroute(dst); down.Reached {
			fail("trace crossed a down link")
			return
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

// TestReplicaPartialLossRetries: a half-lossy access link still lets a
// multi-attempt prober through (Attempts covers the loss), exercising the
// seeded per-replica RNG from the owning goroutine.
func TestReplicaPartialLossRetries(t *testing.T) {
	replica := buildReplica(t)
	done := make(chan error, 1)
	fail := func(format string, a ...any) {
		select {
		case done <- fmt.Errorf(format, a...):
		default:
		}
	}
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
		vp.Host.If.Link.LossProb = 0.5
		vp.Prober.Attempts = 8
		responding := 0
		for _, h := range vp.Prober.Traceroute(dst).Hops {
			if !h.Anonymous() {
				responding++
			}
		}
		if responding == 0 {
			fail("no hop survived 50%% loss with 8 attempts")
		}
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
