// Package cli implements the wormhole command's subcommands; the thin
// cmd/wormhole main delegates here so the CLI is unit-testable.
package cli

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"wormhole/internal/benchrun"
	"wormhole/internal/campaign"
	"wormhole/internal/experiments"
	"wormhole/internal/fingerprint"
	"wormhole/internal/gen"
	"wormhole/internal/lab"
	"wormhole/internal/netaddr"
	"wormhole/internal/pcap"
	"wormhole/internal/probe"
	"wormhole/internal/reveal"
	"wormhole/internal/stats"
	"wormhole/internal/topo"
	"wormhole/internal/tracefile"
)

// Main dispatches a full command line (without the program name) and
// returns the process exit code. Output goes to stdout/stderr.
func Main(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	out, errOut = stdout, stderr
	var err error
	switch args[0] {
	case "emulate":
		err = cmdEmulate(args[1:])
	case "campaign":
		err = cmdCampaign(args[1:])
	case "experiments":
		err = cmdExperiments(args[1:])
	case "fingerprint":
		err = cmdFingerprint(args[1:])
	case "analyze":
		err = cmdAnalyze(args[1:])
	case "tnt":
		err = cmdTNT(args[1:])
	case "graph":
		err = cmdGraph(args[1:])
	case "bench":
		err = cmdBench(args[1:])
	case "worker":
		err = cmdWorker(args[1:])
	case "-h", "--help", "help":
		usage(stdout)
	default:
		fmt.Fprintf(stderr, "wormhole: unknown command %q\n", args[0])
		usage(stderr)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "wormhole:", err)
		return 1
	}
	return 0
}

// out and errOut are the active stdout and stderr for the running
// command; Main sets them before dispatch. Subcommands print through
// printf/println.
var out, errOut io.Writer = os.Stdout, os.Stderr

func printf(format string, a ...any) { fmt.Fprintf(out, format, a...) }
func println(a ...any)               { fmt.Fprintln(out, a...) }
func printstr(a ...any)              { fmt.Fprint(out, a...) }

func usage(w io.Writer) {
	fmt.Fprint(w, `wormhole - tracking invisible MPLS tunnels (IMC'17 reproduction)

commands:
  emulate      run the Fig. 2 GNS3-style testbed and print traces
  campaign     generate a synthetic Internet and run the full campaign
  experiments  regenerate the paper's tables and figures
  fingerprint  TTL-signature a testbed router
  analyze      offline analysis of a saved campaign dataset
  tnt          trigger-driven traceroute with inline tunnel revelation
  graph        export campaign graphs (before/after revelation) as DOT
  bench        measure replica construction and campaign throughput (JSON report)
  worker       join a distributed campaign as a worker process (spawned by -dist)
`)
}

func parseScenario(s string) (lab.Scenario, error) {
	switch s {
	case "default":
		return lab.Default, nil
	case "backward-recursive":
		return lab.BackwardRecursive, nil
	case "explicit-route":
		return lab.ExplicitRoute, nil
	case "totally-invisible":
		return lab.TotallyInvisible, nil
	default:
		return 0, fmt.Errorf("unknown scenario %q", s)
	}
}

func parseScale(s string) (experiments.Scale, error) {
	switch s {
	case "small":
		return experiments.Small, nil
	case "medium":
		return experiments.Medium, nil
	case "large":
		return experiments.Large, nil
	case "huge":
		return experiments.Huge, nil
	case "giga":
		return experiments.Giga, nil
	default:
		return 0, fmt.Errorf("unknown scale %q", s)
	}
}

func cmdEmulate(args []string) error {
	fs := flag.NewFlagSet("emulate", flag.ExitOnError)
	scenarioName := fs.String("scenario", "backward-recursive", "MPLS configuration scenario")
	target := fs.String("target", "", "trace target (default: CE2.left), e.g. 10.23.0.2")
	revealFlag := fs.Bool("reveal", true, "run the revelation pipeline on the trace's candidate pair")
	pcapPath := fs.String("pcap", "", "capture all fabric traffic to this pcap file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scenario, err := parseScenario(*scenarioName)
	if err != nil {
		return err
	}
	l, err := lab.Build(lab.Options{Scenario: scenario})
	if err != nil {
		return err
	}
	dst := l.CE2Left
	if *target != "" {
		if dst, err = netaddr.ParseAddr(*target); err != nil {
			return err
		}
	}
	if *pcapPath != "" {
		f, err := os.Create(*pcapPath)
		if err != nil {
			return err
		}
		defer f.Close()
		pw := pcap.NewWriter(f)
		pcap.Attach(l.Net, pw)
		defer func() { printf("captured %d frames to %s\n", pw.Packets, *pcapPath) }()
	}
	printf("scenario %s, tracing %s:\n", scenario, dst)
	tr := l.Prober.Traceroute(dst)
	for _, h := range tr.Hops {
		if h.Anonymous() {
			printf("%2d  *\n", h.ProbeTTL)
			continue
		}
		printf("%2d  %-16s [%d]\n", h.ProbeTTL, h.Addr, h.ReplyTTL)
		for _, lse := range h.MPLS {
			printf("      MPLS Label %d TTL=%d\n", lse.Label, lse.TTL)
		}
	}
	if !*revealFlag {
		return nil
	}
	cand, ok := reveal.CandidateFromTrace(tr)
	if !ok {
		println("no revelation candidate in this trace")
		return nil
	}
	rev := reveal.Reveal(l.Prober, cand.Ingress.Addr, cand.Egress.Addr)
	printf("\nrevelation %s -> %s: technique=%s probes=%d\n",
		rev.Ingress, rev.Egress, rev.Technique, rev.Probes)
	for i, h := range rev.Hops {
		printf("  hidden hop %d: %s\n", i+1, h)
	}
	return nil
}

func cmdCampaign(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	seed := fs.Int64("seed", 2024, "generator seed")
	scaleName := fs.String("scale", "small", "internet scale")
	out := fs.String("out", "", "save the campaign dataset to this JSONL file")
	seeds := fs.Int("seeds", 1, "run this many consecutive seeds in parallel and pool the statistics")
	workers := fs.Int("workers", 0, "probing worker-pool size (0 = GOMAXPROCS); results are identical at every size")
	dist := fs.Int("dist", 0, "run the campaign across this many worker processes instead of in-process goroutines (results are identical)")
	method := fs.String("method", "icmp", "traceroute probe method: icmp (Paris echo) or udp (classic port-cycling)")
	noFlowCache := fs.Bool("no-flow-cache", false, "disable the flow-trajectory probe cache (results are identical either way)")
	churn := fs.Float64("churn", 0, "expected link fail/reconverge/repair cycles per shard (0 = static topology)")
	churnSeed := fs.Int64("churn-seed", 0, "churn schedule seed (default: the generator seed)")
	churnFlush := fs.Bool("churn-flush-world", false, "invalidate every cache on each churn event instead of masking (baseline mode)")
	pprofPrefix := fs.String("pprof", "", "write CPU and heap profiles to <prefix>.cpu.pb.gz and <prefix>.heap.pb.gz")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pprofPrefix != "" {
		stop, err := startProfiles(*pprofPrefix)
		if err != nil {
			return err
		}
		defer stop()
	}
	if *seeds > 1 {
		// Each of these names one world's dataset or one engine.
		var single string
		fs.Visit(func(f *flag.Flag) {
			if single == "" && (f.Name == "out" || f.Name == "workers" || f.Name == "dist") {
				single = f.Name
			}
		})
		if single != "" {
			return fmt.Errorf("-%s applies to a single world's campaign and cannot be combined with -seeds %d", single, *seeds)
		}
	}
	scale, err := parseScale(*scaleName)
	if err != nil {
		return err
	}
	// The scale owns its campaign regime: small/medium run the default
	// config unchanged, large/huge sample bootstrap and probing targets,
	// giga streams them — probing the full universe from every VP at the
	// big rungs is a different experiment (and on the lazy rung would
	// materialize all 10⁶ routers).
	ccfg := scale.CampaignConfig()
	switch *method {
	case "icmp":
		ccfg.Method = probe.ICMPParis
	case "udp":
		ccfg.Method = probe.UDPParis
	default:
		return fmt.Errorf("unknown probe method %q (want icmp or udp)", *method)
	}
	ccfg.DisableFlowCache = *noFlowCache
	ccfg.ChurnRate = *churn
	ccfg.ChurnSeed = *churnSeed
	ccfg.ChurnFlushWorld = *churnFlush
	if *seeds > 1 {
		return multiSeedCampaign(*seed, *seeds, scale, ccfg)
	}
	if ccfg.ChurnSeed == 0 {
		ccfg.ChurnSeed = *seed
	}
	in, err := gen.Build(scale.Params(*seed))
	if err != nil {
		return err
	}
	var c *campaign.Campaign
	if *dist > 0 {
		c, err = campaign.RunDistributed(in, ccfg, campaign.DistConfig{
			Workers: *dist,
			Spawn:   spawnWorkerProcess,
		})
	} else {
		c, err = campaign.RunParallel(in, ccfg, campaign.ParallelConfig{Workers: *workers})
	}
	if err != nil {
		return err
	}
	printf("internet: %d ASes, %d VPs\n", len(in.ASes), len(in.VPs))
	if *dist > 0 {
		printf("distributed: %d worker processes\n", c.Workers)
	}
	if st := c.Lazy; st.Resident != st.Total || c.FaultIns > 0 {
		printf("lazy fabric: resident %d of %d routers (%d of %d stubs), %d fault-ins",
			st.Resident, st.Total, st.ResidentStubs, st.TotalStubs, c.FaultIns)
		if c.FaultIns > 0 {
			printf(" (%.2f ms total)", float64(c.FaultInNS)/1e6)
		}
		if c.ReplicaResident > 0 {
			// In-process, slot 0 probes the source; each distributed
			// worker decodes a replica of its own.
			replicas := c.Workers - 1
			if *dist > 0 {
				replicas = c.Workers
			}
			printf(", %d resident across %d replicas", c.ReplicaResident, replicas)
		}
		printf("\n")
	}
	printf("observed graph: %d nodes, %d edges, density %.4f\n",
		c.ITDK.NumNodes(), c.ITDK.NumEdges(), c.ITDK.Density())
	printf("HDNs (threshold %d): %d\n", c.Cfg.HDNThreshold, len(c.HDNs))
	printf("targets probed: %d, probes sent: %d\n", len(c.Targets), c.Probes)
	if *churn > 0 {
		mode := "delta-invalidation"
		if *churnFlush {
			mode = "flush-world"
		}
		printf("churn: rate %.2g seed %d, %d events fired (%d cycles), %s\n",
			*churn, ccfg.ChurnSeed, c.ChurnEvents, c.ChurnEvents/3, mode)
	}
	if !*noFlowCache {
		fc := c.FlowCache
		printf("flow cache: %d hits, %d misses, %d fast-forwards, %d invalidations\n",
			fc.Hits, fc.Misses, fc.FastForwards, fc.Invalidations)
	}
	byTech := map[reveal.Technique]int{}
	hidden := 0
	for _, rev := range c.Revelations() {
		byTech[rev.Technique]++
		hidden += len(rev.Hops)
	}
	printf("revelations: DPR=%d BRPR=%d either=%d hybrid=%d failed=%d, hidden hops found=%d\n",
		byTech[reveal.TechDPR], byTech[reveal.TechBRPR], byTech[reveal.TechEither],
		byTech[reveal.TechHybrid], byTech[reveal.TechNone], hidden)
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	printf("phases: replica %.1f ms, bootstrap %.1f ms (graph %.1f ms), probe %.1f ms\n",
		ms(c.Phase.Replica), ms(c.Phase.Bootstrap), ms(c.Phase.Graph), ms(c.Phase.Probe))
	printShardStats(c)
	if *out != "" {
		ds := c.Dataset(fmt.Sprintf("seed=%d scale=%s", *seed, *scaleName))
		if err := tracefile.Save(*out, ds); err != nil {
			return err
		}
		printf("dataset saved to %s (%d records, %d fingerprints)\n", *out, len(ds.Records), len(ds.Fingerprints))
	}
	return nil
}

// printShardStats reports the probing phase's per-shard breakdown and the
// worker-pool balance chart.
func printShardStats(c *campaign.Campaign) {
	if len(c.Shards) == 0 {
		return
	}
	// Workers is the provisioned pool; ShardWorkers is what the probing
	// phase could actually use (the shard count caps it), so the balance
	// chart is labeled with the effective number.
	printf("\nprobing phase: %d shards on %d of %d pooled workers\n",
		len(c.Shards), c.ShardWorkers, c.Workers)
	printf("%-6s %-5s %-7s %-8s %-8s %-8s %-7s %-10s %-10s\n",
		"shard", "team", "worker", "targets", "probes", "replies", "reveal", "maxdepth", "probes/s")
	var tm stats.Timings
	for _, sh := range c.Shards {
		printf("%-6d %-5d %-7d %-8d %-8d %-8d %-7d %-10d %-10.0f\n",
			sh.Shard, sh.Team, sh.Worker, sh.Targets, sh.Probes, sh.Replies,
			sh.Revelations, sh.MaxRevealDepth, stats.Rate(sh.Probes, sh.Elapsed))
		tm.Add(fmt.Sprintf("shard %d", sh.Shard), sh.Elapsed)
	}
	printstr(tm.Render(fmt.Sprintf("shard wall-clock (%d effective workers)", c.ShardWorkers), 40))
	if c.LoopDrops > 0 {
		printf("WARNING: %d fabric events dropped on %d event-budget exhaustions — "+
			"probes died in a forwarding loop and were recorded as '*' hops\n",
			c.LoopDrops, c.BudgetHits)
	}
}

// startProfiles begins a CPU profile and arranges a heap profile at stop.
func startProfiles(prefix string) (stop func(), err error) {
	cpu, err := os.Create(prefix + ".cpu.pb.gz")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		cpu.Close()
		heap, err := os.Create(prefix + ".heap.pb.gz")
		if err != nil {
			printf("pprof: %v\n", err)
			return
		}
		defer heap.Close()
		if err := pprof.WriteHeapProfile(heap); err != nil {
			printf("pprof: %v\n", err)
			return
		}
		printf("profiles written to %s.cpu.pb.gz and %s.heap.pb.gz\n", prefix, prefix)
	}, nil
}

// spawnWorkerProcess launches one distributed-campaign worker by
// re-execing this binary's worker subcommand against the coordinator's
// socket.
func spawnWorkerProcess(i int, network, addr string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, "worker", "-network", network, "-connect", addr)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	go cmd.Wait() // reap; the protocol surfaces worker failures as errors
	return nil
}

// cmdWorker is the worker half of a distributed campaign: dial the
// coordinator and serve the shard protocol until the session completes.
func cmdWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	network := fs.String("network", "unix", "coordinator socket network (unix or tcp)")
	connect := fs.String("connect", "", "coordinator socket address (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *connect == "" {
		return fmt.Errorf("worker: -connect is required")
	}
	conn, err := net.Dial(*network, *connect)
	if err != nil {
		return err
	}
	return campaign.ServeWorker(conn)
}

// cmdBench runs the benchrun suite and writes the JSON report.
func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	seed := fs.Int64("seed", 2024, "generator seed")
	scaleName := fs.String("scale", "small", "internet scale")
	runs := fs.Int("runs", 3, "campaign iterations per worker count")
	workersCSV := fs.String("workers", "", "comma-separated worker counts (default 1,4,NumCPU)")
	scalesCSV := fs.String("scales", "", "comma-separated scale-ladder rungs to measure build/snapshot/memory for (e.g. small,medium,large)")
	scalesOnly := fs.Bool("scales-only", false, "measure only the scale ladder (skip clone and campaign matrices)")
	distCSV := fs.String("dist", "2,4", "comma-separated worker counts for the distributed-engine rows (real worker processes; empty = skip)")
	outPath := fs.String("out", "BENCH_campaign.json", "output JSON path")
	pprofPrefix := fs.String("pprof", "", "write CPU and heap profiles of the whole suite to <prefix>.cpu.pb.gz and <prefix>.heap.pb.gz")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pprofPrefix != "" {
		stop, err := startProfiles(*pprofPrefix)
		if err != nil {
			return err
		}
		defer stop()
	}
	scale, err := parseScale(*scaleName)
	if err != nil {
		return err
	}
	cfg := benchrun.Config{Scale: scale, Seed: *seed, Runs: *runs, ScalesOnly: *scalesOnly}
	if *scalesCSV != "" {
		for _, part := range strings.Split(*scalesCSV, ",") {
			s, err := parseScale(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bench: %w", err)
			}
			cfg.Scales = append(cfg.Scales, s)
		}
	} else if *scalesOnly {
		cfg.Scales = []experiments.Scale{scale}
	}
	if *workersCSV != "" {
		for _, part := range strings.Split(*workersCSV, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bench: bad worker count %q", part)
			}
			cfg.Workers = append(cfg.Workers, w)
		}
	}
	if *distCSV != "" && !*scalesOnly {
		for _, part := range strings.Split(*distCSV, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bench: bad dist worker count %q", part)
			}
			cfg.Dist = append(cfg.Dist, w)
		}
		cfg.DistSpawn = spawnWorkerProcess
	}
	rep, err := benchrun.Run(cfg)
	if err != nil {
		return err
	}
	for _, sr := range rep.Scales {
		printf("scale %-6s: %7d routers, build %.0fms, snapshot %.1fms, %.0f bytes/router",
			sr.Scale, sr.Routers, sr.BuildMS, sr.SnapshotMS, sr.BytesPerRouter)
		if sr.ResidentRouters != sr.Routers {
			printf(" (%d resident, fault-in %.3fms)", sr.ResidentRouters, sr.FaultInMS)
		}
		printf("\n")
	}
	if *scalesOnly {
		if err := benchrun.WriteJSON(*outPath, rep); err != nil {
			return err
		}
		printf("report written to %s\n", *outPath)
		return nil
	}
	printf("clone: structural %.2fms, rebuild %.2fms, speedup %.1fx\n",
		rep.Clone.StructuralMS, rep.Clone.RebuildMS, rep.Clone.Speedup)
	for _, cr := range rep.Campaign {
		cache := "off"
		if cr.FlowCache {
			cache = "on"
		}
		churn := "off"
		if cr.Churn {
			churn = "delta"
			if cr.ChurnFlushWorld {
				churn = "flush"
			}
		}
		printf("campaign workers=%d (%d effective) method=%-4s cache=%-3s churn=%-5s procs=%d: %.0f probes/s, %.0f ns/probe, %.1f allocs/probe, %.2fms/run (replica %.2fms, bootstrap %.2fms)",
			cr.Workers, cr.EffectiveWorkers, cr.Method, cache, churn, cr.GoMaxProcs, cr.ProbesPerSec, cr.NsPerProbe, cr.AllocsPerProbe,
			cr.WallMSPerRun, cr.ReplicaMS, cr.BootstrapMS)
		if cr.Churn {
			printf(" (%d churn events)", cr.ChurnEventsPerRun)
		}
		if cr.FlowCache {
			printf(" (%d hits, %d misses, %d ff)",
				cr.CacheHitsPerRun, cr.CacheMissesPerRun, cr.CacheFFPerRun)
		}
		printf("\n")
	}
	for _, dr := range rep.Dist {
		printf("dist workers=%d procs=%d: encode %.2fms, decode %.2fms, stream %.2f MB, %.0f probes/s, %.2fms/run (%d resident routers/worker)\n",
			dr.Workers, dr.Processes, dr.EncodeMS, dr.DecodeMS, dr.StreamMB,
			dr.ProbesPerSec, dr.WallMSPerRun, dr.ResidentRoutersPerWorker)
	}
	if err := benchrun.WriteJSON(*outPath, rep); err != nil {
		return err
	}
	printf("report written to %s\n", *outPath)
	return nil
}

// multiSeedCampaign pools statistics across parallel worlds.
func multiSeedCampaign(first int64, n int, scale experiments.Scale, cfg campaign.Config) error {
	var list []int64
	for i := 0; i < n; i++ {
		list = append(list, first+int64(i))
	}
	sums := campaign.RunSeeds(list, scale.Params(0), cfg)
	printf("%-8s %-7s %-7s %-6s %-8s %-8s %-12s %-6s\n",
		"seed", "nodes", "edges", "HDNs", "targets", "probes", "revelations", "hops")
	for _, s := range sums {
		if s.Err != nil {
			printf("%-8d generator error: %v\n", s.Seed, s.Err)
			continue
		}
		printf("%-8d %-7d %-7d %-6d %-8d %-8d %-12d %-6d\n",
			s.Seed, s.Nodes, s.Edges, s.HDNs, s.Targets, s.Probes, s.Revelations, s.HiddenHops)
	}
	pooled := campaign.MergeFTL(sums)
	if pooled.N() > 0 {
		printstr(pooled.Render("pooled forward tunnel length", 40))
	}
	return nil
}

// cmdAnalyze re-derives the headline statistics from a saved dataset,
// without any probing: the offline workflow the paper's published dataset
// supports.
func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: wormhole analyze <dataset.jsonl>")
	}
	ds, err := tracefile.Load(fs.Arg(0))
	if err != nil {
		return err
	}
	printf("dataset: %s (%d records, %d fingerprints)\n", ds.Header.Comment, len(ds.Records), len(ds.Fingerprints))

	g := topo.New(nil)
	lengths := stats.NewHistogram()
	ftl := stats.NewHistogram()
	techniques := map[string]int{}
	for _, rec := range ds.Records {
		tr, err := rec.Trace.ToTrace()
		if err != nil {
			return err
		}
		g.AddTrace(tr)
		if tr.Reached {
			n := 0
			for _, h := range tr.Hops {
				if !h.Anonymous() {
					n++
				}
			}
			lengths.Add(n)
		}
		if rec.Revelation != nil && len(rec.Revelation.Hops) > 0 {
			techniques[rec.Revelation.Technique]++
			ftl.Add(len(rec.Revelation.Hops))
		}
	}
	printf("observed graph: %d nodes, %d edges, density %.4f\n", g.NumNodes(), g.NumEdges(), g.Density())
	printstr(lengths.Render("trace length (responding hops)", 40))
	if ftl.N() > 0 {
		printstr(ftl.Render("revealed tunnel interior length", 40))
	}
	printf("techniques: %v\n", techniques)
	sigs := map[string]int{}
	for _, fp := range ds.Fingerprints {
		sigs[fp.Class]++
	}
	printf("fingerprint classes: %v\n", sigs)
	return nil
}

// cmdGraph runs a campaign and writes the observed and corrected graphs
// as Graphviz DOT files, HDNs highlighted.
func cmdGraph(args []string) error {
	fs := flag.NewFlagSet("graph", flag.ExitOnError)
	seed := fs.Int64("seed", 2024, "generator seed")
	scaleName := fs.String("scale", "small", "internet scale")
	beforePath := fs.String("before", "before.dot", "output for the uncorrected graph")
	afterPath := fs.String("after", "after.dot", "output for the corrected graph")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scale, err := parseScale(*scaleName)
	if err != nil {
		return err
	}
	w, err := experiments.NewWorld(*seed, scale)
	if err != nil {
		return err
	}
	hdn := map[string]bool{}
	for _, n := range w.C.HDNs {
		hdn[n.Name] = true
	}
	highlight := func(n *topo.Node) bool { return hdn[n.Name] }
	write := func(path string, g *topo.Graph, name string) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := g.WriteDOT(f, name, highlight); err != nil {
			return err
		}
		printf("%s: %d nodes, %d edges -> %s\n", name, g.NumNodes(), g.NumEdges(), path)
		return f.Close()
	}
	if err := write(*beforePath, w.C.ObservedTraceGraph(), "invisible"); err != nil {
		return err
	}
	return write(*afterPath, w.C.CorrectedGraph(), "revealed")
}

// cmdTNT runs the augmented traceroute on the testbed: FRPLA/RTLA as
// triggers, DPR/BRPR inline, as the paper's conclusion envisions.
func cmdTNT(args []string) error {
	fs := flag.NewFlagSet("tnt", flag.ExitOnError)
	scenarioName := fs.String("scenario", "backward-recursive", "testbed scenario")
	target := fs.String("target", "", "trace target (default: CE2.left)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scenario, err := parseScenario(*scenarioName)
	if err != nil {
		return err
	}
	l, err := lab.Build(lab.Options{Scenario: scenario})
	if err != nil {
		return err
	}
	dst := l.CE2Left
	if *target != "" {
		if dst, err = netaddr.ParseAddr(*target); err != nil {
			return err
		}
	}
	at := reveal.AugmentedTraceroute(l.Prober, dst)
	for _, h := range at.Hops {
		if h.Anonymous() {
			printf("%2d  *\n", h.ProbeTTL)
			continue
		}
		printf("%2d  %-16s [%d]", h.ProbeTTL, h.Addr, h.ReplyTTL)
		if h.Trigger != reveal.TriggerNone {
			printf("  trigger:%s", h.Trigger)
		}
		println()
		for _, hidden := range h.Hidden {
			printf("      + %-16s (%s)\n", hidden, h.Technique)
		}
	}
	printf("path length %d, extra probes %d\n", at.PathLength(), at.ExtraProbes)
	return nil
}

func cmdExperiments(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	seed := fs.Int64("seed", 2024, "generator seed")
	scaleName := fs.String("scale", "small", "internet scale")
	mdPath := fs.String("md", "", "also write a Markdown report to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scale, err := parseScale(*scaleName)
	if err != nil {
		return err
	}
	want := map[string]bool{}
	for _, id := range fs.Args() {
		want[strings.ToLower(id)] = true
	}
	var reports []*experiments.Report
	var w *experiments.World
	for _, r := range experiments.All() {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		if r.NeedsWorld && w == nil {
			fmt.Fprintf(errOut, "building world (seed %d, scale %s)...\n", *seed, *scaleName)
			if w, err = experiments.NewWorld(*seed, scale); err != nil {
				return err
			}
		}
		rep, err := r.Run(w)
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		reports = append(reports, rep)
		println(rep)
	}
	if *mdPath != "" {
		f, err := os.Create(*mdPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := experiments.WriteMarkdown(f, *seed, *scaleName, reports); err != nil {
			return err
		}
		printf("markdown report written to %s\n", *mdPath)
		return f.Close()
	}
	return nil
}

func cmdFingerprint(args []string) error {
	fs := flag.NewFlagSet("fingerprint", flag.ExitOnError)
	scenarioName := fs.String("scenario", "default", "testbed scenario")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scenario, err := parseScenario(*scenarioName)
	if err != nil {
		return err
	}
	l, err := lab.Build(lab.Options{Scenario: scenario})
	if err != nil {
		return err
	}
	tr := l.Prober.Traceroute(l.CE2Left)
	fp := fingerprint.New(l.Prober)
	for _, h := range tr.Hops {
		if h.Anonymous() {
			continue
		}
		if r, ok := fp.FromHop(h); ok {
			printf("%-16s signature %s class %s\n", r.Addr, r.Signature, r.Class)
		}
	}
	return nil
}
