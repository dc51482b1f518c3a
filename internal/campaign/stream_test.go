package campaign

import (
	"fmt"
	"testing"

	"wormhole/internal/netaddr"
)

// TestFeistelBijection pins the scheduler's coverage guarantee at the
// permutation level: for any universe size and seed, walk() maps [0, n)
// onto [0, n) exactly once.
func TestFeistelBijection(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 16, 100, 1000, 4097} {
		for _, seed := range []int64{0, 1, 42, -7} {
			f := newFeistel(n, seed)
			seen := make([]bool, n)
			for i := 0; i < n; i++ {
				x := f.walk(uint64(i))
				if x >= uint64(n) {
					t.Fatalf("n=%d seed=%d: walk(%d)=%d out of range", n, seed, i, x)
				}
				if seen[x] {
					t.Fatalf("n=%d seed=%d: walk(%d)=%d already hit", n, seed, i, x)
				}
				seen[x] = true
			}
		}
	}
}

// fakeSpace is a synthetic target space: addresses 1..n, four targets
// per /24 budget prefix.
type fakeSpace struct{ n int }

func (f fakeSpace) Len() int                { return f.n }
func (f fakeSpace) Addr(i int) netaddr.Addr { return netaddr.Addr(i + 1) }
func (f fakeSpace) Prefix(i int) netaddr.Prefix {
	return netaddr.MustPrefixFrom(netaddr.Addr((i/4)<<8), 24)
}

// TestStreamCoverageAndBudget pins the scheduler's selection semantics:
// with no cap or budget every target is accepted exactly once and traced
// with the serial sweep's VP spread discipline; with a budget no prefix
// exceeds it; with a cap exactly cap targets are accepted.
func TestStreamCoverageAndBudget(t *testing.T) {
	const n, vps, spread = 103, 5, 2
	jobs := spreadJobs(streamTargets(fakeSpace{n}, 7, 0, 0), spread, vps)
	if len(jobs) != n*spread {
		t.Fatalf("%d jobs, want %d", len(jobs), n*spread)
	}
	seen := map[netaddr.Addr]int{}
	for i, j := range jobs {
		seq := i / spread
		if j.Dst != jobs[seq*spread].Dst {
			t.Fatalf("job %d: target %s, want %s", i, j.Dst, jobs[seq*spread].Dst)
		}
		if want := (seq + i%spread) % vps; j.VP != want {
			t.Fatalf("job %d: vp %d, want %d", i, j.VP, want)
		}
		seen[j.Dst]++
	}
	if len(seen) != n {
		t.Fatalf("%d distinct targets, want %d", len(seen), n)
	}
	for a, c := range seen {
		if c != spread {
			t.Fatalf("target %s visited %d times, want %d", a, c, spread)
		}
	}

	perPrefix := map[netaddr.Prefix]int{}
	sp := fakeSpace{n}
	for _, a := range streamTargets(sp, 7, 0, 2) {
		perPrefix[sp.Prefix(int(a)-1)]++ // Addr(i) = i+1
	}
	for p, c := range perPrefix {
		if c > 2 {
			t.Fatalf("prefix %s got %d targets, budget 2", p, c)
		}
	}

	if got := streamTargets(fakeSpace{n}, 7, 17, 0); len(got) != 17 {
		t.Fatalf("cap=17 accepted %d targets", len(got))
	}
}

// TestStreamedDeterminismGolden is the scheduler's engine-equivalence
// golden: with Stream on (a per-prefix budget and both sampling caps
// engaged), the serial engine and the parallel engine at several worker
// counts produce byte-identical campaign output.
func TestStreamedDeterminismGolden(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HDNThreshold = 6
	cfg.Stream = true
	cfg.PrefixBudget = 3
	cfg.StreamSeed = 1234
	cfg.MaxBootstrapTargets = 60
	cfg.MaxTargets = 40

	serial := Run(testInternet(t, 101), cfg)
	want := dumpCampaign(t, serial)
	if len(serial.Records) == 0 {
		t.Fatal("streamed campaign yields no records")
	}

	for _, pcfg := range []ParallelConfig{
		{Workers: 1},
		{Workers: 2},
		{Workers: 8},
	} {
		name := fmt.Sprintf("workers=%d", pcfg.Workers)
		par, err := RunParallel(testInternet(t, 101), cfg, pcfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := dumpCampaign(t, par); got != want {
			t.Errorf("%s: streamed output diverged from serial engine\n%s", name, firstDiff(want, got))
		}
	}
}
