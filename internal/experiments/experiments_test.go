package experiments

import (
	"slices"
	"strings"
	"testing"

	"wormhole/internal/anomaly"
	"wormhole/internal/campaign"
	"wormhole/internal/netaddr"
)

// world is shared across experiment tests (building it dominates runtime).
var testWorld *World

func getWorld(t *testing.T) *World {
	t.Helper()
	if testWorld == nil {
		w, err := NewWorld(2024, Small)
		if err != nil {
			t.Fatal(err)
		}
		testWorld = w
	}
	return testWorld
}

// TestAllExperimentsProduceReports runs every runner at small scale and
// requires each report to render and pass its own shape check.
func TestAllExperimentsProduceReports(t *testing.T) {
	w := getWorld(t)
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			rep, err := r.Run(w)
			if err != nil {
				t.Fatalf("%s: %v", r.ID, err)
			}
			if rep.Text == "" {
				t.Fatalf("%s: empty report", r.ID)
			}
			if strings.HasPrefix(rep.Check, "FAILED") {
				t.Errorf("%s shape check failed: %s\n%s", r.ID, rep.Check, rep.Text)
			}
		})
	}
}

func TestReportString(t *testing.T) {
	rep := &Report{ID: "x", Title: "t", Text: "body\n", Check: "ok"}
	s := rep.String()
	for _, want := range []string{"X", "t", "body", "shape check: ok"} {
		if !strings.Contains(s, want) {
			t.Errorf("report string missing %q: %s", want, s)
		}
	}
}

func TestScaleParams(t *testing.T) {
	small := Small.Params(1)
	large := Large.Params(1)
	if small.NumStub >= large.NumStub {
		t.Error("scales not ordered")
	}
}

// TestChurnRowsProbeBaselineTargets pins the churn sweep to the world's
// own campaign config. Small's config equals campaign.DefaultConfig(), so
// the world here caps MaxTargets at half its target list, as the sampled
// rungs do: every churned row must probe the baseline's targets, in the
// baseline's order, or its dTraces compares different destinations.
func TestChurnRowsProbeBaselineTargets(t *testing.T) {
	shared := getWorld(t)
	cfg := Small.CampaignConfig()
	cfg.MaxTargets = len(shared.C.Targets) / 2
	c, err := campaign.RunParallel(shared.In, cfg, campaign.ParallelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	w := &World{In: shared.In, C: c}
	cs, err := churnCampaigns(w)
	if err != nil {
		t.Fatal(err)
	}
	for i, cc := range cs {
		if !slices.Equal(cc.Targets, c.Targets) {
			t.Errorf("churn rate %.0f probed %d targets, baseline %d (or a different order)",
				churnExpRates[i], len(cc.Targets), len(c.Targets))
		}
		if churnExpRates[i] > 0 && cc.ChurnEvents == 0 {
			t.Errorf("churn rate %.0f fired no events", churnExpRates[i])
		}
	}
}

// TestFig6AttributesJumpToRevealedHops pins Fig. 6's finding: one RTT
// jump, right after PE1, attributed to an invisible tunnel whose hidden
// hops are P1, P2 and P3, with a per-link share below the jump.
func TestFig6AttributesJumpToRevealedHops(t *testing.T) {
	l, findings, at, err := fig6Detect()
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %+v, want one", findings)
	}
	f := findings[0]
	if f.Attribution != anomaly.InvisibleTunnel || f.After != l.PE1Left {
		t.Errorf("jump after %s attributed %s, want %s after PE1.left %s", f.After, f.Attribution, anomaly.InvisibleTunnel, l.PE1Left)
	}
	if f.PerHop >= f.Jump {
		t.Errorf("per-link share %v not below the %v jump", f.PerHop, f.Jump)
	}
	var hidden []netaddr.Addr
	for _, h := range at.Hops {
		if h.Addr == f.After {
			hidden = h.Hidden
		}
	}
	if want := []netaddr.Addr{l.P1Left, l.P2Left, l.P3Left}; f.HiddenHops != 3 || !slices.Equal(hidden, want) {
		t.Errorf("%d hidden hops %v, want %v", f.HiddenHops, hidden, want)
	}
}

// TestFig10DensestASDeterministic pins Fig. 10's choice of AS on a world
// where two ASes tie at the most revealed pairs (AS4 and AS7 at two each,
// Small seed 3): every call must name the lower ASN, not whichever AS the
// map yields first.
func TestFig10DensestASDeterministic(t *testing.T) {
	w, err := NewWorld(3, Small)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		rep, err := Fig10DegreeCorrection(w)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(rep.Text, "AS4 (densest mesh)") {
			t.Fatalf("call %d picked another AS:\n%s", i, rep.Text)
		}
	}
}
