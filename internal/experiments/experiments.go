// Package experiments contains one runner per table and figure of the
// paper's evaluation. Each runner produces a Report whose text is the
// regenerated rows/series; the cmd/wormhole CLI and the benchmark harness
// drive them.
//
// The experiment index (IDs, workloads, modules) is documented in
// DESIGN.md; paper-vs-measured outcomes are recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"wormhole/internal/campaign"
	"wormhole/internal/gen"
)

// Report is one regenerated table or figure.
type Report struct {
	// ID is the experiment identifier ("fig1", "table3", ...).
	ID string
	// Title names the paper item.
	Title string
	// Text is the rendered rows/series.
	Text string
	// Check summarizes whether the paper's qualitative shape held.
	Check string
}

func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n%s", strings.ToUpper(r.ID), r.Title, r.Text)
	if r.Check != "" {
		fmt.Fprintf(&sb, "shape check: %s\n", r.Check)
	}
	return sb.String()
}

// Scale selects the synthetic-Internet size for campaign experiments.
type Scale int

const (
	// Small runs in well under a second; used by tests.
	Small Scale = iota
	// Medium is gen.DefaultParams unchanged: the flat generator's default
	// world. (The CLI's -scale defaults to small.)
	Medium
	// Large is ~10⁴ routers through the streamed hierarchical builder;
	// campaigns sample targets to stay tractable.
	Large
	// Huge is ~10⁵ routers — exercised only by scale benches and
	// explicitly opted-in tests (WORMHOLE_HUGE=1).
	Huge
	// Giga is ~10⁶ routers: a lazy stub universe (gen.Params.LazyStubs)
	// probed by the streaming scheduler, so only the few thousand stubs a
	// sampled campaign touches ever construct. Opted into by
	// WORMHOLE_GIGA=1.
	Giga
)

func (s Scale) String() string {
	switch s {
	case Small:
		return "small"
	case Medium:
		return "medium"
	case Large:
		return "large"
	case Huge:
		return "huge"
	case Giga:
		return "giga"
	default:
		return fmt.Sprintf("scale-%d", int(s))
	}
}

// Params returns generator parameters for a scale. Small and Medium use
// the flat builder; Large and Huge cross the AS threshold and build
// hierarchically (streamed generation, provider-aggregated addressing).
func (s Scale) Params(seed int64) gen.Params {
	p := gen.DefaultParams(seed)
	switch s {
	case Small:
		p.NumTier1, p.NumTransit, p.NumStub, p.NumVPs = 2, 5, 10, 5
	case Large:
		p.NumTier1, p.NumTransit, p.NumStub, p.NumVPs = 8, 60, 4500, 30
		p.TransitPeerProb = 8.0 / 60
	case Huge:
		p.NumTier1, p.NumTransit, p.NumStub, p.NumVPs = 10, 400, 46000, 50
		p.TransitCore = [2]int{3, 5}
		p.TransitEdge = [2]int{3, 5}
		p.TransitPeerProb = 8.0 / 400
	case Giga:
		// ~1.008·10⁶ routers in the universe (400k stubs × 2.5 avg +
		// ~8k core); LazyStubs keeps all but the campaign-touched stubs
		// as 40-byte descriptors.
		p.NumTier1, p.NumTransit, p.NumStub, p.NumVPs = 12, 1000, 400000, 50
		p.TransitCore = [2]int{3, 5}
		p.TransitEdge = [2]int{3, 5}
		p.StubRouters = [2]int{2, 3}
		p.TransitPeerProb = 8.0 / 1000
		p.LazyStubs = true
	}
	return p
}

// CampaignConfig returns the campaign configuration for a scale: the
// default adaptive config, with bootstrap/target sampling caps at the
// hierarchical scales (probing every one of 10⁵ routers from every VP is
// neither tractable nor what the paper's campaigns did — MPLS-focused
// target lists were always samples of the address space).
func (s Scale) CampaignConfig() campaign.Config {
	cfg := campaign.DefaultConfig()
	switch s {
	case Large:
		cfg.MaxBootstrapTargets = 4000
		cfg.MaxTargets = 2000
	case Huge:
		cfg.MaxBootstrapTargets = 2000
		cfg.MaxTargets = 1000
	case Giga:
		// The streaming scheduler is mandatory here: a stride sample
		// would enumerate (and on a lazy world, materialize) all 10⁶
		// router addresses. One target per AS keeps the sweep wide.
		cfg.Stream = true
		cfg.PrefixBudget = 1
		cfg.MaxBootstrapTargets = 4000
		cfg.MaxTargets = 1500
	}
	return cfg
}

// World bundles a generated Internet with a completed campaign so that the
// many campaign-based experiments share one expensive run.
type World struct {
	In *gen.Internet
	C  *campaign.Campaign
}

// NewWorld generates an Internet at the given scale and runs the campaign
// with the default worker pool (one worker per CPU). The results do not
// depend on the CPU count; only wall-clock does.
func NewWorld(seed int64, scale Scale) (*World, error) {
	in, err := gen.Build(scale.Params(seed))
	if err != nil {
		return nil, err
	}
	cfg := scale.CampaignConfig() // adaptive HDN threshold; sampled at Large+
	c, err := campaign.RunParallel(in, cfg, campaign.ParallelConfig{})
	if err != nil {
		return nil, err
	}
	return &World{In: in, C: c}, nil
}

// Runner regenerates one paper item. Campaign-based runners share the
// World; emulation-based ones ignore it.
type Runner struct {
	ID    string
	Title string
	// NeedsWorld marks campaign-based experiments.
	NeedsWorld bool
	Run        func(w *World) (*Report, error)
}

// All returns every experiment runner, in paper order.
func All() []Runner {
	return []Runner{
		{"fig1", "Node degree distribution (ITDK stand-in)", true, Fig1DegreeDistribution},
		{"fig4", "Emulation traces for the four MPLS configurations", false, noWorld(Fig4Emulation)},
		{"table1", "Router signatures", false, noWorld(Table1Signatures)},
		{"table2", "Visibility effects of basic MPLS configurations", false, noWorld(Table2Visibility)},
		{"table3", "Cross-validation of DPR/BRPR on explicit tunnels", true, Table3CrossValidation},
		{"table4", "Invisible MPLS tunnel discovery per AS", true, Table4PerAS},
		{"fig5", "Forward tunnel length distribution", true, Fig5TunnelLength},
		{"fig6", "RTT correction with hop revelation", false, noWorld(Fig6RTTCorrection)},
		{"fig7", "Return vs forward asymmetry (FRPLA)", true, Fig7RFA},
		{"fig8", "RFA for time-exceeded vs echo-reply", true, Fig8RFAByType},
		{"fig9", "Return tunnel length (RTLA)", true, Fig9RTLA},
		{"table5", "MPLS deployment per AS", true, Table5Deployment},
		{"fig10", "Degree distribution before/after revelation", true, Fig10DegreeCorrection},
		{"fig11", "Path length distribution before/after revelation", true, Fig11PathLength},
		{"table6", "Measurement technique applicability", false, noWorld(Table6Applicability)},
		{"churn", "Revelation accuracy under topology churn", true, ChurnAccuracy},
		{"survey", "Operator survey calibration", true, SurveyShares},
		{"aliases", "ITDK construction quality (measured aliases)", true, AliasQuality},
	}
}

func noWorld(f func() (*Report, error)) func(*World) (*Report, error) {
	return func(*World) (*Report, error) { return f() }
}

// table renders aligned columns.
func table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(width) && len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", width[i], cell)
		}
		sb.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
	return sb.String()
}

// sortedKeys returns map keys in sorted order (deterministic reports).
func sortedKeys[V any](m map[uint32]V) []uint32 {
	ks := make([]uint32, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// WriteMarkdown renders a set of reports as a Markdown document: one
// section per experiment, figure bodies fenced as code, shape checks as
// summary lines. The CLI's `experiments -md` writes paper-regeneration
// reports with it.
func WriteMarkdown(w io.Writer, seed int64, scale string, reports []*Report) error {
	if _, err := fmt.Fprintf(w,
		"# Regenerated evaluation (seed %d, scale %s)\n\n", seed, scale); err != nil {
		return err
	}
	failed := 0
	for _, r := range reports {
		if strings.HasPrefix(r.Check, "FAILED") {
			failed++
		}
	}
	if _, err := fmt.Fprintf(w, "%d experiments, %d shape checks failed.\n\n",
		len(reports), failed); err != nil {
		return err
	}
	for _, r := range reports {
		if _, err := fmt.Fprintf(w, "## %s — %s\n\n```\n%s```\n\n**shape:** %s\n\n",
			strings.ToUpper(r.ID), r.Title, r.Text, r.Check); err != nil {
			return err
		}
	}
	return nil
}
