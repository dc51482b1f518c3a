// Package stats provides the small statistical toolkit the measurement
// analyses need: integer histograms with PDF views, medians and quantiles,
// and compact ASCII rendering used by the experiment runners to print the
// paper's figures as series.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Histogram counts integer-valued observations (hop counts, TTL deltas).
type Histogram struct {
	counts map[int]int
	n      int
}

// NewHistogram creates an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[int]int)}
}

// Add records one observation.
func (h *Histogram) Add(v int) { h.AddN(v, 1) }

// AddN records an observation with multiplicity.
func (h *Histogram) AddN(v, n int) {
	h.counts[v] += n
	h.n += n
}

// N returns the number of observations.
func (h *Histogram) N() int { return h.n }

// Count returns the count at value v.
func (h *Histogram) Count(v int) int { return h.counts[v] }

// Max returns the largest observed value; 0 when empty.
func (h *Histogram) Max() int {
	first := true
	m := 0
	for v := range h.counts {
		if first || v > m {
			m, first = v, false
		}
	}
	return m
}

// PDF returns the probability mass at v.
func (h *Histogram) PDF(v int) float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.counts[v]) / float64(h.n)
}

// Values returns the sorted distinct observed values.
func (h *Histogram) Values() []int {
	vs := make([]int, 0, len(h.counts))
	for v := range h.counts {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	return vs
}

// Median returns the median observation (lower median for even counts).
func (h *Histogram) Median() int {
	return h.Quantile(0.5)
}

// Quantile returns the q-quantile (0 <= q <= 1) of the observations.
func (h *Histogram) Quantile(q float64) int {
	if h.n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	cum := 0
	for _, v := range h.Values() {
		cum += h.counts[v]
		if cum >= rank {
			return v
		}
	}
	return h.Max()
}

// Mean returns the arithmetic mean.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	sum := 0
	for v, c := range h.counts {
		sum += v * c
	}
	return float64(sum) / float64(h.n)
}

// ShareAbove returns the fraction of observations strictly above v.
func (h *Histogram) ShareAbove(v int) float64 {
	if h.n == 0 {
		return 0
	}
	c := 0
	for val, cnt := range h.counts {
		if val > v {
			c += cnt
		}
	}
	return float64(c) / float64(h.n)
}

// Render prints the histogram as an ASCII bar chart (one row per value),
// the form the experiment runners use to emit figure series.
func (h *Histogram) Render(label string, width int) string {
	if width <= 0 {
		width = 50
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (n=%d, mean=%.2f, median=%d)\n", label, h.n, h.Mean(), h.Median())
	if h.n == 0 {
		return sb.String()
	}
	maxC := 0
	for _, c := range h.counts {
		if c > maxC {
			maxC = c
		}
	}
	for _, v := range h.Values() {
		c := h.counts[v]
		bar := strings.Repeat("#", int(math.Round(float64(c)/float64(maxC)*float64(width))))
		fmt.Fprintf(&sb, "%5d | %-*s %6.4f (%d)\n", v, width, bar, h.PDF(v), c)
	}
	return sb.String()
}

// Rate converts a count over a duration into a per-second rate (0 for a
// non-positive duration). The campaign engine reports probes/sec with it.
func Rate(n uint64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// Timings aggregates named duration samples — one per worker shard in the
// parallel campaign engine — and summarizes pool balance.
type Timings struct {
	names []string
	ds    []time.Duration
}

// Add records one sample.
func (t *Timings) Add(name string, d time.Duration) {
	t.names = append(t.names, name)
	t.ds = append(t.ds, d)
}

// N returns the number of samples.
func (t *Timings) N() int { return len(t.ds) }

// Total returns the summed duration (the serial cost of the samples).
func (t *Timings) Total() time.Duration {
	var sum time.Duration
	for _, d := range t.ds {
		sum += d
	}
	return sum
}

// Max returns the longest sample (the critical path of a perfectly
// scheduled pool).
func (t *Timings) Max() time.Duration {
	var m time.Duration
	for _, d := range t.ds {
		if d > m {
			m = d
		}
	}
	return m
}

// Imbalance returns max/mean: 1.0 means perfectly even shards, higher
// means the pool idles behind a straggler.
func (t *Timings) Imbalance() float64 {
	if len(t.ds) == 0 {
		return 0
	}
	mean := float64(t.Total()) / float64(len(t.ds))
	if mean == 0 {
		return 0
	}
	return float64(t.Max()) / mean
}

// Render prints one bar per sample scaled to the maximum, with the
// balance summary on the header line.
func (t *Timings) Render(label string, width int) string {
	if width <= 0 {
		width = 40
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (n=%d, total=%v, max=%v, imbalance=%.2f)\n",
		label, t.N(), t.Total().Round(time.Microsecond), t.Max().Round(time.Microsecond), t.Imbalance())
	maxD := t.Max()
	for i, d := range t.ds {
		bar := 0
		if maxD > 0 {
			bar = int(math.Round(float64(d) / float64(maxD) * float64(width)))
		}
		fmt.Fprintf(&sb, "%12s | %-*s %v\n", t.names[i], width, strings.Repeat("#", bar), d.Round(time.Microsecond))
	}
	return sb.String()
}
