package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int{1, 2, 2, 3, 3, 3} {
		h.Add(v)
	}
	if h.N() != 6 {
		t.Errorf("N = %d", h.N())
	}
	if h.Count(3) != 3 || h.Count(9) != 0 {
		t.Errorf("counts wrong")
	}
	if h.Max() != 3 {
		t.Errorf("max = %d", h.Max())
	}
	if got := h.PDF(2); math.Abs(got-2.0/6) > 1e-12 {
		t.Errorf("PDF(2) = %f", got)
	}
	if h.Median() != 2 { // lower median of {1,2,2,3,3,3}
		t.Errorf("median = %d", h.Median())
	}
	if got := h.Mean(); math.Abs(got-14.0/6) > 1e-12 {
		t.Errorf("mean = %f", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.N() != 0 || h.Median() != 0 || h.Mean() != 0 ||
		h.PDF(1) != 0 || h.Max() != 0 || h.ShareAbove(0) != 0 {
		t.Error("empty histogram not all-zero")
	}
	if out := h.Render("empty", 10); !strings.Contains(out, "n=0") {
		t.Errorf("render: %q", out)
	}
}

func TestHistogramNegativeValues(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int{-3, -1, 0, 2} {
		h.Add(v)
	}
	if h.Max() != 2 {
		t.Errorf("max = %d", h.Max())
	}
	vals := h.Values()
	if !sort.IntsAreSorted(vals) || len(vals) != 4 {
		t.Errorf("values = %v", vals)
	}
}

func TestQuantileMatchesSortOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		h := NewHistogram()
		sample := make([]int, n)
		for i := range sample {
			sample[i] = rng.Intn(41) - 20
			h.Add(sample[i])
		}
		sort.Ints(sample)
		for _, q := range []float64{0.1, 0.25, 0.5, 0.9, 0.95, 1.0} {
			rank := int(math.Ceil(q * float64(n)))
			if rank < 1 {
				rank = 1
			}
			if h.Quantile(q) != sample[rank-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMedianAgainstMeanBound(t *testing.T) {
	// Property: |mean - median| <= stddev for any sample (a classic
	// one-sided bound that must hold for our implementations).
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range raw {
			h.Add(int(v) % 100)
		}
		var ss float64
		for _, v := range raw {
			d := float64(int(v)%100) - h.Mean()
			ss += d * d
		}
		stddev := math.Sqrt(ss / float64(len(raw)))
		return math.Abs(h.Mean()-float64(h.Median())) <= stddev+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShareAbove(t *testing.T) {
	h := NewHistogram()
	for v := 1; v <= 10; v++ {
		h.Add(v)
	}
	if got := h.ShareAbove(7); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("ShareAbove(7) = %f", got)
	}
}

func TestAddN(t *testing.T) {
	h := NewHistogram()
	h.AddN(5, 10)
	if h.N() != 10 || h.Count(5) != 10 {
		t.Errorf("AddN failed: n=%d count=%d", h.N(), h.Count(5))
	}
}

func TestRenderContainsBars(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 10; i++ {
		h.Add(1)
	}
	h.Add(2)
	out := h.Render("test", 20)
	if !strings.Contains(out, "####################") {
		t.Errorf("max bar missing:\n%s", out)
	}
	if !strings.Contains(out, "test") {
		t.Error("label missing")
	}
}

func TestRate(t *testing.T) {
	if got := Rate(100, 2*time.Second); math.Abs(got-50) > 1e-12 {
		t.Errorf("Rate = %f, want 50", got)
	}
	if Rate(100, 0) != 0 || Rate(100, -time.Second) != 0 {
		t.Error("non-positive duration should yield 0")
	}
}

func TestTimings(t *testing.T) {
	var tm Timings
	if tm.N() != 0 || tm.Total() != 0 || tm.Max() != 0 || tm.Imbalance() != 0 {
		t.Error("empty Timings not all-zero")
	}
	tm.Add("w0", 10*time.Millisecond)
	tm.Add("w1", 30*time.Millisecond)
	tm.Add("w2", 20*time.Millisecond)
	if tm.N() != 3 {
		t.Errorf("N = %d", tm.N())
	}
	if tm.Total() != 60*time.Millisecond {
		t.Errorf("Total = %v", tm.Total())
	}
	if tm.Max() != 30*time.Millisecond {
		t.Errorf("Max = %v", tm.Max())
	}
	// mean = 20ms, max = 30ms -> imbalance 1.5
	if got := tm.Imbalance(); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("Imbalance = %f, want 1.5", got)
	}
	out := tm.Render("shards", 20)
	if !strings.Contains(out, "shards") || !strings.Contains(out, "w1") {
		t.Errorf("render missing label or sample name:\n%s", out)
	}
	// The longest sample gets the full-width bar.
	if !strings.Contains(out, strings.Repeat("#", 20)) {
		t.Errorf("max bar missing:\n%s", out)
	}
}

func TestTimingsBalanced(t *testing.T) {
	var tm Timings
	tm.Add("a", time.Second)
	tm.Add("b", time.Second)
	if got := tm.Imbalance(); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("balanced Imbalance = %f, want 1.0", got)
	}
}
