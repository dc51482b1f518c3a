package experiments

import (
	"fmt"

	"wormhole/internal/campaign"
	"wormhole/internal/gen"
)

// AliasQuality regenerates the campaign's observed-graph construction
// twice — with the generator's ground-truth alias sets (the role CAIDA's
// curated ITDK plays in the paper) and with Mercator-measured aliases —
// and compares the resulting graphs. It quantifies how much of the HDN
// analysis survives realistic, incomplete alias resolution.
func AliasQuality(w *World) (*Report, error) {
	// Both campaigns probe one world: a campaign's output does not depend
	// on what the fabric probed before it.
	p := Small.Params(808)
	if w != nil && len(w.In.ASes) > 20 {
		p = Medium.Params(808)
	}
	in, err := gen.Build(p)
	if err != nil {
		return nil, err
	}
	truth := campaign.Run(in, campaign.DefaultConfig())
	cfg := campaign.DefaultConfig()
	cfg.MeasuredAliases = true
	measured := campaign.Run(in, cfg)

	revealedHops := func(c *campaign.Campaign) int {
		n := 0
		for _, rev := range c.Revelations() {
			n += len(rev.Hops)
		}
		return n
	}
	rows := [][]string{
		{"graph nodes", fmt.Sprintf("%d", truth.ITDK.NumNodes()), fmt.Sprintf("%d", measured.ITDK.NumNodes())},
		{"graph edges", fmt.Sprintf("%d", truth.ITDK.NumEdges()), fmt.Sprintf("%d", measured.ITDK.NumEdges())},
		{"HDN threshold", fmt.Sprintf("%d", truth.Cfg.HDNThreshold), fmt.Sprintf("%d", measured.Cfg.HDNThreshold)},
		{"HDNs", fmt.Sprintf("%d", len(truth.HDNs)), fmt.Sprintf("%d", len(measured.HDNs))},
		{"campaign targets", fmt.Sprintf("%d", len(truth.Targets)), fmt.Sprintf("%d", len(measured.Targets))},
		{"revelations", fmt.Sprintf("%d", len(truth.Revelations())), fmt.Sprintf("%d", len(measured.Revelations()))},
		{"hidden hops revealed", fmt.Sprintf("%d", revealedHops(truth)), fmt.Sprintf("%d", revealedHops(measured))},
	}
	text := table([]string{"metric", "ground-truth aliases", "measured (Mercator)"}, rows)

	ok := measured.ITDK.NumNodes() >= truth.ITDK.NumNodes() &&
		len(measured.HDNs) > 0 && revealedHops(measured) > 0
	check := "measured aliases split unresolved routers into more nodes, yet HDN detection and revelation still work"
	if !ok {
		check = "FAILED: " + check
	}
	return &Report{ID: "aliases", Title: "ITDK construction quality: ground-truth vs measured aliases", Text: text, Check: check}, nil
}
