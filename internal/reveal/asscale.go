package reveal

import (
	"sort"

	"wormhole/internal/stats"
)

// Sec. 3.4 is explicit that FRPLA "should not be used in the wild at the
// tunnel scale" — per-trace asymmetry conflates tunnels with ordinary
// routing asymmetry — but as a statistical method over many vantage
// points and ingresses per AS, where asymmetry averages out to a normal
// law centred at zero and a surviving shift exposes hidden tunnels.
// ASAggregator implements that aggregation.

// ASVerdict is the statistical conclusion for one AS.
type ASVerdict struct {
	ASN uint32
	// Samples is the number of RFA observations.
	Samples int
	// MedianShift and MeanShift summarize the RFA distribution.
	MedianShift int
	MeanShift   float64
	// Suspected is true when the distribution is shifted enough to imply
	// invisible tunnels.
	Suspected bool
	// AvgTunnelLength estimates the mean hidden tunnel length when
	// suspected (the mean shift, per the paper's reading of Fig. 7).
	AvgTunnelLength float64
}

// ASAggregator accumulates FRPLA samples per AS.
type ASAggregator struct {
	// MinSamples guards against verdicts from a handful of traces
	// (default 10).
	MinSamples int
	// ShiftThreshold is the median shift that flags an AS (default 2,
	// above the +-1 routing-asymmetry noise of Fig. 7a).
	ShiftThreshold int

	byAS map[uint32]*stats.Histogram
}

// NewASAggregator creates an aggregator with the defaults above.
func NewASAggregator() *ASAggregator {
	return &ASAggregator{
		MinSamples:     10,
		ShiftThreshold: 2,
		byAS:           make(map[uint32]*stats.Histogram),
	}
}

// Add records one egress-LER RFA sample attributed to an AS.
func (a *ASAggregator) Add(asn uint32, sample RFASample) {
	h, ok := a.byAS[asn]
	if !ok {
		h = stats.NewHistogram()
		a.byAS[asn] = h
	}
	h.Add(sample.RFA())
}

// Verdict returns the statistical conclusion for one AS; ok is false when
// the AS has no samples.
func (a *ASAggregator) Verdict(asn uint32) (ASVerdict, bool) {
	h, ok := a.byAS[asn]
	if !ok {
		return ASVerdict{}, false
	}
	v := ASVerdict{
		ASN:         asn,
		Samples:     h.N(),
		MedianShift: h.Median(),
		MeanShift:   h.Mean(),
	}
	if v.Samples >= a.MinSamples && v.MedianShift >= a.ShiftThreshold {
		v.Suspected = true
		v.AvgTunnelLength = v.MeanShift
	}
	return v, true
}

// Verdicts returns every AS verdict, sorted by descending median shift.
func (a *ASAggregator) Verdicts() []ASVerdict {
	out := make([]ASVerdict, 0, len(a.byAS))
	for asn := range a.byAS {
		v, _ := a.Verdict(asn)
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MedianShift != out[j].MedianShift {
			return out[i].MedianShift > out[j].MedianShift
		}
		return out[i].ASN < out[j].ASN
	})
	return out
}
