package campaign

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"wormhole/internal/gen"
	"wormhole/internal/topo"
)

// dumpITDK renders everything the bootstrap phase is responsible for into
// a canonical byte string: the observed graph's full node/link structure
// (node identities are AddTrace insertion order, so they pin the canonical
// merge), the HDN selection with its threshold, and the derived target
// list. Any divergence between engines shows up as a one-line diff.
func dumpITDK(c *Campaign) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "nodes=%d edges=%d threshold=%d\n",
		c.ITDK.NumNodes(), c.ITDK.NumEdges(), c.Cfg.HDNThreshold)
	for _, n := range c.ITDK.Nodes() {
		fmt.Fprintf(&sb, "node %d %s as=%d deg=%d addrs=%v nb=[", n.ID, n.Name, n.ASN, n.Degree(), n.Addrs)
		for i, nb := range c.ITDK.Neighbors(n) {
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%d", nb.ID)
		}
		sb.WriteString("]\n")
	}
	hdn := make(map[topo.NodeID]bool, len(c.HDNs))
	for _, n := range c.HDNs {
		hdn[n.ID] = true
	}
	fmt.Fprintf(&sb, "hdns=")
	for i, n := range c.HDNs {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d(deg=%d)", n.ID, n.Degree())
	}
	sb.WriteByte('\n')
	for _, n := range c.ITDK.Nodes() {
		if hdn[n.ID] {
			fmt.Fprintf(&sb, "hdn-flag %d %s\n", n.ID, n.Name)
		}
	}
	fmt.Fprintf(&sb, "targets=%v\n", c.Targets)
	return sb.String()
}

// TestParallelBootstrapITDKGolden pins the sharded bootstrap sweep to the
// serial one: the observed ITDK graph (node and link sets, insertion-order
// node identities), HDN flags, and target selection must be byte-identical
// at every worker count. This is the bootstrap-phase analogue of
// TestParallelDeterminismGolden, aimed squarely at the canonical
// (VP, target) trace merge.
func TestParallelBootstrapITDKGolden(t *testing.T) {
	build := func() *Campaign {
		in := testInternet(t, 411)
		return Run(in, DefaultConfig())
	}
	want := dumpITDK(build())
	if len(want) == 0 || !strings.Contains(want, "node ") {
		t.Fatalf("serial bootstrap dump is degenerate:\n%s", want)
	}

	for _, workers := range []int{1, 2, 8} {
		name := fmt.Sprintf("%dw", workers)
		in := testInternet(t, 411)
		c, err := RunParallel(in, DefaultConfig(), ParallelConfig{Workers: workers})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := dumpITDK(c); got != want {
			t.Errorf("%s: bootstrap ITDK diverged from serial\n--- serial ---\n%s\n--- %s ---\n%s",
				name, want, name, got)
		}
		if c.Workers != workers {
			t.Errorf("%s: campaign reports %d workers", name, c.Workers)
		}
	}

	// Re-running on the same Internet must reproduce the graph through the
	// warm replica pool and its caches, not just on cold replicas.
	in := testInternet(t, 411)
	for round := 0; round < 2; round++ {
		c, err := RunParallel(in, DefaultConfig(), ParallelConfig{Workers: 2})
		if err != nil {
			t.Fatalf("warm round %d: %v", round, err)
		}
		if got := dumpITDK(c); got != want {
			t.Errorf("warm round %d: bootstrap ITDK diverged from serial", round)
		}
	}
}

// bootstrapITDKDigest is the SHA-256 of dumpITDK for testInternet(t, 411)
// under DefaultConfig(). TestParallelBootstrapITDKGolden compares engines
// with each other, so a change that renumbers nodes or reorders neighbors
// in every engine at once still passes it; this digest pins the graph
// across versions. Update it only for a change meant to alter the
// observed graph, HDN set or target list, and say so in CHANGES.md.
const bootstrapITDKDigest = "6724a8f9ef05e8a593c2c1dcbf63909eb540947e991d90337aa614e1dac245dd"

// The digest is checked at every split point the engines produce: one
// to eight in-process slots, and one or two worker processes (goroutines
// serving the real socket protocol), whose link maps cross the wire.
func TestBootstrapITDKDigest(t *testing.T) {
	check := func(name string, c *Campaign) {
		t.Helper()
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(dumpITDK(c)))); got != bootstrapITDKDigest {
			t.Errorf("%s: dumpITDK digest %s, want %s", name, got, bootstrapITDKDigest)
		}
	}
	for _, workers := range []int{1, 2, 3, 8} {
		c, err := RunParallel(testInternet(t, 411), DefaultConfig(), ParallelConfig{Workers: workers})
		if err != nil {
			t.Fatalf("%dw: %v", workers, err)
		}
		check(fmt.Sprintf("%dw", workers), c)
	}
	for _, workers := range []int{1, 2} {
		check(fmt.Sprintf("dist %dw", workers), runGoroutineWorkers(t, testInternet(t, 411), DefaultConfig(), workers))
	}
}

// TestNamingStaysOnCoordinator covers the two resolvers that write what
// they read: measured aliases, whose union-find compresses paths on a
// lookup, and a lazy world, where naming an address faults its stub in
// on the source. At 2 and 3 slots each campaign must observe the serial
// engine's graph; under the race detector (the race tier runs this
// package with -race), a resolver running on a slot goroutine would race
// the other slots and slot 0's probing of the source.
func TestNamingStaysOnCoordinator(t *testing.T) {
	aliases := DefaultConfig()
	aliases.MeasuredAliases = true
	lazy := testParams(424242)
	lazy.NumTransit, lazy.NumStub = 6, 60
	lazy.Hierarchical, lazy.LazyStubs = true, true
	// A streamed bootstrap: the stride sample would enumerate, and so
	// materialize, every stub before any slot starts.
	streamed := DefaultConfig()
	streamed.Stream, streamed.StreamSeed, streamed.PrefixBudget = true, 77, 1
	streamed.MaxBootstrapTargets, streamed.MaxTargets = 40, 30
	for _, tc := range []struct {
		name string
		p    gen.Params
		cfg  Config
	}{
		{"measured aliases", testParams(313), aliases},
		{"lazy world", lazy, streamed},
	} {
		build := func() *gen.Internet {
			in, err := gen.Build(tc.p)
			if err != nil {
				t.Fatal(err)
			}
			return in
		}
		serial := Run(build(), tc.cfg)
		want := dumpITDK(serial)
		if tc.p.LazyStubs && (serial.Lazy.ResidentStubs == serial.Lazy.TotalStubs || serial.FaultIns == 0) {
			t.Fatalf("%s: %d of %d stubs resident after %d fault-ins, want a partly built world",
				tc.name, serial.Lazy.ResidentStubs, serial.Lazy.TotalStubs, serial.FaultIns)
		}
		for _, workers := range []int{2, 3} {
			c, err := RunParallel(build(), tc.cfg, ParallelConfig{Workers: workers})
			if err != nil {
				t.Fatalf("%s, %dw: %v", tc.name, workers, err)
			}
			if got := dumpITDK(c); got != want {
				t.Errorf("%s, %dw: observed graph diverged from serial\n%s", tc.name, workers, firstDiff(want, got))
			}
		}
	}
}
