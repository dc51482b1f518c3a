package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"wormhole/internal/experiments"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmoke runs every workload on the Small rung, one campaign each,
// untraced and traced. Every metric BENCHMARK.json names must be emitted
// with its unit, nothing else may be, and no campaign may fail.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Fatalf("BENCHMARK.json workloads %s, benchmark runs %s", got, want)
	}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			name, want := wl.name+"/untraced", s.EndToEnd
			if traced {
				name, want = wl.name+"/traced", s.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				var log bytes.Buffer
				res, err := run(options{
					workload: wl.name, seed: 7, trace: traced, rung: experiments.Small,
					campaigns: 1, setups: 1, outDir: t.TempDir(), log: &log,
				})
				if err != nil {
					t.Fatalf("%v\n%s", err, log.String())
				}
				if !res.Correct || res.Attempted != 1 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, log.String())
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not emitted", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				if traced {
					if v := res.Metrics["error_rate"].Value; v != 0 {
						t.Errorf("error_rate %v", v)
					}
					if !strings.Contains(log.String(), "where the time goes") {
						t.Errorf("traced run printed no time table:\n%s", log.String())
					}
				}
			})
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := run(options{workload: "nope", outDir: t.TempDir()}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
