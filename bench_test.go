// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md for the experiment index). Each benchmark
// regenerates its report end-to-end; campaign-based benchmarks share one
// generated world, built outside the timed region.
//
// Run with: go test -bench=. -benchmem
package wormhole

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"wormhole/internal/benchrun"
	"wormhole/internal/campaign"
	"wormhole/internal/experiments"
	"wormhole/internal/gen"
	"wormhole/internal/lab"
	"wormhole/internal/reveal"
)

var (
	worldOnce sync.Once
	world     *experiments.World
	worldErr  error
)

func benchWorld(b *testing.B) *experiments.World {
	b.Helper()
	worldOnce.Do(func() {
		world, worldErr = experiments.NewWorld(2024, experiments.Small)
	})
	if worldErr != nil {
		b.Fatal(worldErr)
	}
	return world
}

// runExperiment drives one runner b.N times, failing the benchmark if the
// report's shape check regresses.
func runExperiment(b *testing.B, id string) {
	var runner experiments.Runner
	for _, r := range experiments.All() {
		if r.ID == id {
			runner = r
		}
	}
	if runner.ID == "" {
		b.Fatalf("unknown experiment %q", id)
	}
	var w *experiments.World
	if runner.NeedsWorld {
		w = benchWorld(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := runner.Run(w)
		if err != nil {
			b.Fatal(err)
		}
		if strings.HasPrefix(rep.Check, "FAILED") {
			b.Fatalf("%s: %s", id, rep.Check)
		}
	}
}

func BenchmarkFig1DegreeDistribution(b *testing.B) { runExperiment(b, "fig1") }
func BenchmarkFig4Emulation(b *testing.B)          { runExperiment(b, "fig4") }
func BenchmarkTable1Fingerprint(b *testing.B)      { runExperiment(b, "table1") }
func BenchmarkTable2Visibility(b *testing.B)       { runExperiment(b, "table2") }
func BenchmarkTable3CrossValidation(b *testing.B)  { runExperiment(b, "table3") }
func BenchmarkTable4PerAS(b *testing.B)            { runExperiment(b, "table4") }
func BenchmarkFig5TunnelLength(b *testing.B)       { runExperiment(b, "fig5") }
func BenchmarkFig6RTTCorrection(b *testing.B)      { runExperiment(b, "fig6") }
func BenchmarkFig7RFA(b *testing.B)                { runExperiment(b, "fig7") }
func BenchmarkFig8RFAByType(b *testing.B)          { runExperiment(b, "fig8") }
func BenchmarkFig9RTLA(b *testing.B)               { runExperiment(b, "fig9") }
func BenchmarkTable5Deployment(b *testing.B)       { runExperiment(b, "table5") }
func BenchmarkFig10DegreeCorrection(b *testing.B)  { runExperiment(b, "fig10") }
func BenchmarkFig11PathLength(b *testing.B)        { runExperiment(b, "fig11") }
func BenchmarkTable6Applicability(b *testing.B)    { runExperiment(b, "table6") }

// Infrastructure benchmarks: the primitives the experiments are built on.

// BenchmarkTraceroute measures one full traceroute across the testbed's
// invisible tunnel (7 virtual hops, replies included).
func BenchmarkTraceroute(b *testing.B) {
	l, err := lab.Build(lab.Options{Scenario: lab.BackwardRecursive})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tr := l.Prober.Traceroute(l.CE2Left); !tr.Reached {
			b.Fatal("trace failed")
		}
	}
}

// BenchmarkReveal measures the full BRPR recursion on the testbed tunnel.
func BenchmarkReveal(b *testing.B) {
	l, err := lab.Build(lab.Options{Scenario: lab.BackwardRecursive})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rev := reveal.Reveal(l.Prober, l.PE1Left, l.PE2Left)
		if len(rev.Hops) != 3 {
			b.Fatalf("revealed %d hops", len(rev.Hops))
		}
	}
}

// BenchmarkGenerateInternet measures synthetic-Internet construction
// (topology, addressing, IGP, LDP, BGP).
func BenchmarkGenerateInternet(b *testing.B) {
	p := experiments.Small.Params(77)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.Build(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignParallel measures the full measurement campaign
// (traceroute, fingerprint, candidate selection, revelation) at different
// worker-pool sizes over one shared pre-built Internet. Scaling shows up
// in probes/s; wall-clock per op shrinks until shard count (one per team)
// caps the useful parallelism.
func BenchmarkCampaignParallel(b *testing.B) {
	in, err := gen.Build(experiments.Small.Params(2024))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := campaign.DefaultConfig()
			var totalProbes uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := campaign.RunParallel(in, cfg, campaign.ParallelConfig{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if len(c.Records) == 0 {
					b.Fatal("no campaign records")
				}
				totalProbes += c.Probes
			}
			b.ReportMetric(float64(totalProbes)/b.Elapsed().Seconds(), "probes/s")
		})
	}
}

// BenchmarkClone compares the two worker-replica paths on the same built
// Internet: the structural snapshot (deep-copy of routers, tables, links,
// hosts) against the generator rebuild (full topology + IGP + LDP + BGP
// replay). The snapshot is what makes parallel campaign spin-up cheap.
func BenchmarkClone(b *testing.B) {
	in, err := gen.Build(experiments.Small.Params(2024))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("structural", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := in.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := in.Rebuild(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestBenchSmoke is the tier-1-safe benchmark smoke: one benchrun
// iteration at small scale, validating the report shape and its JSON
// round-trip. The full run (wormhole bench) regenerates
// BENCH_campaign.json with meaningful iteration counts.
func TestBenchSmoke(t *testing.T) {
	rep, err := benchrun.Run(benchrun.Config{
		Scale:      experiments.Small,
		Seed:       2024,
		Runs:       1,
		CloneIters: 1,
		Workers:    []int{1, 2},
		Scales:     []experiments.Scale{experiments.Small},
		Dist:       []int{2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scale != "small" || rep.Seed != 2024 || rep.GoMaxProcs < 1 {
		t.Fatalf("bad report header: %+v", rep)
	}
	if len(rep.Scales) != 1 {
		t.Fatalf("want 1 scale row, got %d", len(rep.Scales))
	}
	if sr := rep.Scales[0]; sr.Scale != "small" || sr.Routers <= 0 ||
		sr.BuildMS <= 0 || sr.SnapshotMS <= 0 || sr.BytesPerRouter <= 0 {
		t.Fatalf("bad scale row: %+v", sr)
	}
	if sr := rep.Scales[0]; sr.EncodeMS <= 0 || sr.DecodeMS <= 0 || sr.WireMB <= 0 {
		t.Fatalf("scale row missing wire-codec columns: %+v", sr)
	}
	// One distributed row: goroutine workers (nil DistSpawn → 1 process)
	// driving the real socket protocol at Scale.
	if len(rep.Dist) != 1 {
		t.Fatalf("want 1 dist row, got %d", len(rep.Dist))
	}
	if dr := rep.Dist[0]; dr.Workers != 2 || dr.Processes != 1 || dr.Runs != 1 ||
		dr.EncodeMS <= 0 || dr.DecodeMS <= 0 || dr.StreamMB <= 0 ||
		dr.ProbesPerRun == 0 || dr.WallMSPerRun <= 0 || dr.ProbesPerSec <= 0 ||
		dr.ResidentRoutersPerWorker <= 0 {
		t.Fatalf("bad dist row: %+v", dr)
	}
	if rep.Clone.StructuralMS <= 0 || rep.Clone.RebuildMS <= 0 || rep.Clone.Speedup <= 0 {
		t.Fatalf("bad clone report: %+v", rep.Clone)
	}
	// Two worker counts × (ICMP baseline, ICMP cache, churn-delta,
	// churn-flush, UDP baseline, UDP cache).
	if len(rep.Campaign) != 12 {
		t.Fatalf("want 12 campaign entries, got %d", len(rep.Campaign))
	}
	wantWorkers := []int{1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2}
	wantMethod := []string{"icmp", "icmp", "icmp", "icmp", "udp", "udp",
		"icmp", "icmp", "icmp", "icmp", "udp", "udp"}
	wantCache := []bool{false, true, true, true, false, true, false, true, true, true, false, true}
	wantChurn := []bool{false, false, true, true, false, false, false, false, true, true, false, false}
	wantFlush := []bool{false, false, false, true, false, false, false, false, false, true, false, false}
	for i, cr := range rep.Campaign {
		if cr.Workers != wantWorkers[i] || cr.Method != wantMethod[i] || cr.FlowCache != wantCache[i] ||
			cr.Churn != wantChurn[i] || cr.ChurnFlushWorld != wantFlush[i] || cr.Runs != 1 {
			t.Errorf("entry %d: workers=%d method=%s cache=%v churn=%v flush=%v runs=%d",
				i, cr.Workers, cr.Method, cr.FlowCache, cr.Churn, cr.ChurnFlushWorld, cr.Runs)
		}
		if cr.Churn && cr.ChurnEventsPerRun == 0 {
			t.Errorf("entry %d: churn armed but no events fired: %+v", i, cr)
		}
		if !cr.Churn && cr.ChurnEventsPerRun != 0 {
			t.Errorf("entry %d: static row counted churn events: %+v", i, cr)
		}
		if cr.ProbesPerRun == 0 || cr.NsPerProbe <= 0 || cr.ProbesPerSec <= 0 || cr.WallMSPerRun <= 0 {
			t.Errorf("entry %d has empty measurements: %+v", i, cr)
		}
		// The raise is capped at NumCPU: each row runs with at least
		// min(workers, cores) procs and never fewer than one.
		if want := min(cr.Workers, runtime.NumCPU()); cr.GoMaxProcs < want {
			t.Errorf("entry %d ran with GOMAXPROCS %d for %d workers on %d CPUs",
				i, cr.GoMaxProcs, cr.Workers, runtime.NumCPU())
		}
		if cr.BootstrapProbesPerRun == 0 || cr.BootstrapProbesPerRun+cr.CampaignProbesPerRun != cr.ProbesPerRun {
			t.Errorf("entry %d probe split does not add up: %+v", i, cr)
		}
		if cr.EffectiveWorkers < 1 || cr.EffectiveWorkers > cr.Workers {
			t.Errorf("entry %d: effective workers %d outside [1, %d]", i, cr.EffectiveWorkers, cr.Workers)
		}
		if cr.ReplicaMS < 0 || cr.BootstrapMS <= 0 {
			t.Errorf("entry %d: bad phase split replica=%v bootstrap=%v", i, cr.ReplicaMS, cr.BootstrapMS)
		}
		if cr.BootstrapMS+cr.ReplicaMS > cr.WallMSPerRun {
			t.Errorf("entry %d: phases exceed the timed region: %+v", i, cr)
		}
		if cr.FlowCache {
			// Misses (and fast-forwards) may be zero: the untimed warm run
			// leaves the pooled replicas and the shared reply table covering
			// every flow the timed runs probe.
			if cr.CacheHitsPerRun == 0 {
				t.Errorf("entry %d: cache enabled but no hits: %+v", i, cr)
			}
		} else if cr.CacheHitsPerRun != 0 || cr.CacheMissesPerRun != 0 || cr.CacheFFPerRun != 0 {
			t.Errorf("entry %d: cache disabled but counters nonzero: %+v", i, cr)
		}
		// Only cached UDP rows may sweep (and, warm, may be fully covered
		// by the memo: zero walks is their steady state). ICMP never walks
		// and a cache-off fabric is the per-probe oracle.
		if !(cr.FlowCache && cr.Method == "udp") &&
			(cr.SweepWalksPerRun != 0 || cr.SweepRepliesPerRun != 0 || cr.SweepFallbacksPerRun != 0) {
			t.Errorf("entry %d: sweep counters nonzero outside the cached UDP rows: %+v", i, cr)
		}
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := benchrun.WriteJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back benchrun.Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Scales) != 1 || back.Scales[0].Scale != "small" ||
		back.Scales[0].Routers != rep.Scales[0].Routers ||
		back.Scales[0].BytesPerRouter != rep.Scales[0].BytesPerRouter ||
		back.Scales[0].EncodeMS != rep.Scales[0].EncodeMS {
		t.Fatalf("JSON round-trip mangled the scale rows: %+v", back.Scales)
	}
	if len(back.Dist) != 1 || back.Dist[0].Workers != rep.Dist[0].Workers ||
		back.Dist[0].StreamMB != rep.Dist[0].StreamMB {
		t.Fatalf("JSON round-trip mangled the dist rows: %+v", back.Dist)
	}
	if back.Scale != rep.Scale || len(back.Campaign) != len(rep.Campaign) || back.Campaign[6].Workers != 2 ||
		back.Campaign[4].Method != "udp" || back.Campaign[5].Method != "udp" ||
		!back.Campaign[2].Churn || back.Campaign[2].ChurnFlushWorld ||
		!back.Campaign[3].ChurnFlushWorld ||
		back.Campaign[2].ChurnEventsPerRun != rep.Campaign[2].ChurnEventsPerRun ||
		!back.Campaign[1].FlowCache || back.Campaign[1].CacheHitsPerRun != rep.Campaign[1].CacheHitsPerRun ||
		!back.Campaign[5].FlowCache || back.Campaign[5].SweepRepliesPerRun != rep.Campaign[5].SweepRepliesPerRun {
		t.Fatalf("JSON round-trip mangled the report: %+v", back)
	}
}

func BenchmarkSurveyCalibration(b *testing.B) { runExperiment(b, "survey") }

func BenchmarkAliasQuality(b *testing.B) { runExperiment(b, "aliases") }
