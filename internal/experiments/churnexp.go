package experiments

import (
	"fmt"

	"wormhole/internal/campaign"
	"wormhole/internal/fingerprint"
	"wormhole/internal/reveal"
	"wormhole/internal/stats"
)

// churnExpRates are the churn intensities swept by the accuracy harness:
// a static baseline plus three rates around the bench default (2).
var churnExpRates = []float64{0, 1, 2, 4}

// churnExpSeed seeds every churn schedule in the sweep so the report is
// reproducible independently of the world seed.
const churnExpSeed = 42

// churnRow aggregates the revelation-accuracy metrics of one campaign.
type churnRow struct {
	events          uint64
	diffTraces      int // records whose trace diverged from the static baseline
	anonHops        int // anonymous hops across all traces (blackholed windows)
	pairs, revealed int
	tech            map[reveal.Technique]int
	frplaEgress     *stats.Histogram
	frplaCorrected  *stats.Histogram
	rtla            *stats.Histogram
}

func measureChurnRow(c, base *campaign.Campaign) churnRow {
	row := churnRow{
		events: c.ChurnEvents,
		tech:   map[reveal.Technique]int{},
	}
	for i, rec := range c.Records {
		for _, h := range rec.Trace.Hops {
			if h.Anonymous() {
				row.anonHops++
			}
		}
		if i >= len(base.Records) {
			row.diffTraces++
			continue
		}
		a, b := base.Records[i].Trace, rec.Trace
		same := len(a.Hops) == len(b.Hops)
		for j := 0; same && j < len(a.Hops); j++ {
			same = a.Hops[j].Addr == b.Hops[j].Addr
		}
		if !same {
			row.diffTraces++
		}
	}
	// Revelation success per Ingress-Egress pair, as in Table 4: a pair
	// counts as revealed when any of its records carries hops.
	pairs := map[pairKey]bool{}
	for _, rec := range c.Records {
		if rec.Candidate == nil {
			continue
		}
		k := pairKey{rec.Candidate.Ingress.Addr, rec.Candidate.Egress.Addr}
		if rec.Revelation != nil && len(rec.Revelation.Hops) > 0 {
			pairs[k] = true
		} else if !pairs[k] {
			pairs[k] = false
		}
	}
	row.pairs = len(pairs)
	for _, ok := range pairs {
		if ok {
			row.revealed++
		}
	}
	for _, rev := range c.Revelations() {
		if len(rev.Hops) > 0 {
			row.tech[rev.Technique]++
		}
	}
	s := collectRFA(c)
	row.frplaEgress = s.egressPR
	row.frplaCorrected = s.corrected
	// RTLA over Juniper-signature egress LERs, as in Fig. 9.
	row.rtla = stats.NewHistogram()
	for _, rec := range c.Records {
		if rec.Candidate == nil || rec.EgressEchoTTL == 0 {
			continue
		}
		eg := rec.Candidate.Egress
		if fp, ok := c.Fingerprints[eg.Addr]; ok && fp.Class == fingerprint.JuniperLike {
			row.rtla.Add(reveal.RTLA(eg.ReplyTTL, rec.EgressEchoTTL))
		}
	}
	return row
}

func histMedian(h *stats.Histogram) string {
	if h.N() == 0 {
		return "-"
	}
	return fmt.Sprintf("%d", h.Median())
}

// churnCampaigns runs one campaign per swept rate. The rate-0 entry is
// the shared campaign; each churned one reruns the shared campaign's own
// config with only the churn schedule armed, so every row probes the
// baseline's targets in the baseline's order and measureChurnRow compares
// traces of the same destinations.
func churnCampaigns(w *World) ([]*campaign.Campaign, error) {
	cs := make([]*campaign.Campaign, 0, len(churnExpRates))
	for _, rate := range churnExpRates {
		c := w.C
		if rate > 0 {
			cfg := w.C.Cfg
			cfg.ChurnRate = rate
			cfg.ChurnSeed = churnExpSeed
			var err error
			if c, err = campaign.RunParallel(w.In, cfg, campaign.ParallelConfig{}); err != nil {
				return nil, err
			}
		}
		cs = append(cs, c)
	}
	return cs, nil
}

// ChurnAccuracy sweeps the churn rate over the shared world's Internet
// and tabulates revelation quality per rate: how many Ingress-Egress
// pairs are found and revealed, which techniques carry the load, and
// whether the FRPLA/RTLA estimators stay calibrated while the topology
// mutates mid-campaign. The rate-0 row reuses the shared campaign, so it
// is byte-identical to the static world every other experiment measures.
func ChurnAccuracy(w *World) (*Report, error) {
	cs, err := churnCampaigns(w)
	if err != nil {
		return nil, err
	}
	rows := make([]churnRow, 0, len(cs))
	for _, c := range cs {
		rows = append(rows, measureChurnRow(c, w.C))
	}

	var cells [][]string
	for i, rate := range churnExpRates {
		r := rows[i]
		pctRev := "-"
		if r.pairs > 0 {
			pctRev = fmt.Sprintf("%.0f%%", 100*float64(r.revealed)/float64(r.pairs))
		}
		cells = append(cells, []string{
			fmt.Sprintf("%.0f", rate),
			fmt.Sprintf("%d", r.events),
			fmt.Sprintf("%d", r.diffTraces),
			fmt.Sprintf("%d", r.anonHops),
			fmt.Sprintf("%d", r.pairs),
			fmt.Sprintf("%d", r.revealed),
			pctRev,
			fmt.Sprintf("%d", r.tech[reveal.TechDPR]),
			fmt.Sprintf("%d", r.tech[reveal.TechBRPR]),
			fmt.Sprintf("%d", r.tech[reveal.TechEither]),
			fmt.Sprintf("%d", r.tech[reveal.TechHybrid]),
			histMedian(r.frplaEgress),
			histMedian(r.frplaCorrected),
			histMedian(r.rtla),
		})
	}
	text := table([]string{
		"churn", "events", "dTraces", "anon", "pairs", "revealed", "%rev",
		"DPR", "BRPR", "either", "hybrid",
		"FRPLA", "FRPLAcorr", "RTLA",
	}, cells)

	base, peak := rows[0], rows[len(rows)-1]
	ok := base.events == 0 && peak.events > 0 && base.revealed > 0
	for _, r := range rows {
		if r.pairs > 0 && r.revealed == 0 {
			ok = false
		}
	}
	check := fmt.Sprintf("baseline %d/%d pairs revealed; rate %.0f fired %d events, revealed %d/%d",
		base.revealed, base.pairs, churnExpRates[len(churnExpRates)-1],
		peak.events, peak.revealed, peak.pairs)
	if ok {
		check += " — revelation survives topology churn"
	} else {
		check = "FAILED: " + check
	}
	return &Report{ID: "churn", Title: "Revelation accuracy under topology churn", Text: text, Check: check}, nil
}
