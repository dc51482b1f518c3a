// Command perfbench is the campaign benchmark: it builds the Large rung's
// synthetic Internet, times whole Sec. 4 campaigns on one of four
// workloads (cold, warm, churned, distributed), checks every campaign's
// dataset against a serial reference, and prints one JSON result line.
// With -trace 1 it also replays one campaign's probing phase through the
// layers' public entry points with in-memory spans and reports per-layer
// metrics plus a "where the time goes" table.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload large-cold --seed 1 --seconds 15 --trace 0
//
// See perfbench/README.md for why each workload exists and which
// end-to-end metric each per-layer metric is expected to move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"wormhole/internal/experiments"
)

// workers is the campaign worker count and the GOMAXPROCS every run uses:
// all load comes from this one process.
const workers = 2

// worldSeed fixes the generated Internet and its churn schedule. The
// workload seed varies the measurement inputs on that world, the per-VP
// Paris flow identifiers, so runs with different seeds trace different
// ECMP branches while the amount of work stays put.
const worldSeed = 2024

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// rung is the scale the world is built at: Large, or Small in the
	// smoke test, which also caps the timed campaigns (0: as many as fit
	// in seconds) and the set-up repetitions of the setup_s median.
	rung      experiments.Scale
	campaigns int
	setups    int
	// outDir receives the coordinator socket and the span file.
	outDir string
	// log receives the human-readable lines printed before the result.
	log io.Writer
}

func main() {
	opts := options{rung: experiments.Large, setups: 3, outDir: ".bench_build", log: os.Stdout}
	var trace int
	flag.StringVar(&opts.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&opts.seed, "seed", 1, "workload seed")
	flag.Float64Var(&opts.seconds, "seconds", 15, "how long to time campaigns")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced replay and reports per-layer metrics")
	flag.StringVar(&opts.outDir, "out", opts.outDir, "directory for the coordinator socket and span files")
	flag.Parse()
	opts.trace = trace == 1

	res, err := run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		var fail *failedError
		if !errors.As(err, &fail) {
			os.Exit(2)
		}
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if err != nil {
		os.Exit(1)
	}
}

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// failedError reports campaigns that failed their output check; the
// result line is still printed, with correct false.
type failedError struct{ failed, attempted int }

func (e *failedError) Error() string {
	return fmt.Sprintf("%d of %d campaigns failed their output check", e.failed, e.attempted)
}

// conditions are printed with every result: what the numbers were
// measured under.
type conditions struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Rung       string  `json:"rung"`
	Routers    int     `json:"routers"`
	WorldSeed  int64   `json:"world_seed"`
	Seed       int64   `json:"seed"`
	Workers    int     `json:"workers"`
	Workload   string  `json:"workload"`
	Campaigns  int     `json:"campaigns_timed"`
	Disturbed  int     `json:"campaigns_disturbed"`
	StealShare float64 `json:"steal_share"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
}

// run executes one invocation and returns its result. A non-nil error
// with a result means campaigns failed their checks; a nil result means
// the benchmark could not run at all.
func run(opts options) (*result, error) {
	wl, ok := workloadByName(opts.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", opts.workload, strings.Join(workloadNames(), ", "))
	}
	nproc := runtime.NumCPU()
	if workers > nproc {
		return nil, fmt.Errorf("refusing to run: %d workers and GOMAXPROCS=%d exceed nproc=%d", workers, workers, nproc)
	}
	prev := runtime.GOMAXPROCS(workers)
	defer runtime.GOMAXPROCS(prev)
	if opts.setups < 1 {
		opts.setups = 1
	}
	if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
		return nil, err
	}

	b := newBench(opts, wl)
	defer b.close()
	if err := b.setup(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(opts.seconds * float64(time.Second)))
	for len(b.samples) == 0 || (time.Now().Before(deadline) && (opts.campaigns == 0 || len(b.samples) < opts.campaigns)) {
		b.timeCampaign()
	}

	res := &result{Attempted: len(b.samples), Failed: b.failed}
	res.Correct = b.failed == 0
	cond := conditions{
		NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Rung: opts.rung.String(), Routers: b.world.TotalRouters(), WorldSeed: worldSeed, Seed: opts.seed,
		Workers: workers, Workload: wl.name, Campaigns: len(b.samples), Seconds: opts.seconds, Traced: opts.trace,
	}
	var stolen, wall time.Duration
	for _, s := range b.samples {
		stolen += s.stolen
		wall += s.wall
		if s.disturbed() {
			cond.Disturbed++
		}
	}
	cond.StealShare = ratio(stolen.Seconds(), wall.Seconds()*workers)
	if opts.trace {
		layers, err := b.traced()
		if err != nil {
			return nil, err
		}
		res.Metrics = layers
		res.Metrics["error_rate"] = metric{float64(b.failed) / float64(len(b.samples)), "ratio"}
	} else {
		res.Metrics = b.endToEnd()
	}
	cj, _ := json.Marshal(cond)
	fmt.Fprintf(opts.log, "conditions %s\n", cj)
	b.printSummary()
	if b.failed > 0 {
		return res, &failedError{b.failed, len(b.samples)}
	}
	return res, nil
}
