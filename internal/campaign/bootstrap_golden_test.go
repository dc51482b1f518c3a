package campaign

import (
	"fmt"
	"strings"
	"testing"

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
