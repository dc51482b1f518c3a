package campaign

import (
	"testing"

	"wormhole/internal/probe"
)

// TestSweepEquivalenceGolden is the acceptance test for the UDP Paris
// TTL sweep: UDP Paris cycles its destination port, so each probe of a
// trace is its own flow and memoizes its reply per (slot, TTL). A UDP
// campaign with the flow cache on — serial or parallel, snapshot or
// rebuild replicas — must be byte-identical to the cache-disabled oracle,
// and a cache-off run must move no counter; the matrix is the one
// TestFlowCacheEquivalenceGolden runs for ICMP Paris.
func TestSweepEquivalenceGolden(t *testing.T) {
	t.Run("udp", func(t *testing.T) { testFlowCacheEquivalence(t, probe.UDPParis) })
}
