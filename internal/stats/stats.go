// Package stats provides the descriptive statistics used to reduce nine
// months of counter samples into the paper's tables and figures: means and
// standard deviations, moving averages, histograms, percentiles, and simple
// time-series utilities.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs, or 0 for fewer
// than two samples. The paper reports population statistics over its
// 30-day sample.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += float64(d * d)
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	sd := StdDev(xs)
	return sd * sd
}

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := float64(p / 100 * float64(len(sorted)-1))
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// MovingAverage returns the trailing moving average of xs with the given
// window. Element i averages xs[max(0,i-window+1) .. i], so the output has
// the same length as the input (the figures in the paper plot a moving
// average over the full date range, ramping up at the start).
func MovingAverage(xs []float64, window int) []float64 {
	if window < 1 {
		window = 1
	}
	out := make([]float64, len(xs))
	sum := 0.0
	for i, x := range xs {
		sum += x
		if i >= window {
			sum -= xs[i-window]
		}
		n := i + 1
		if n > window {
			n = window
		}
		out[i] = sum / float64(n)
	}
	return out
}

// WeightedMean returns the weighted mean of xs with weights ws. It returns
// 0 if the weight total is zero. The paper's batch-job database reports a
// "time-weighted average" of 19 Mflops/node.
func WeightedMean(xs, ws []float64) float64 {
	if len(xs) != len(ws) {
		panic(fmt.Sprintf("stats: WeightedMean length mismatch %d vs %d", len(xs), len(ws)))
	}
	num, den := 0.0, 0.0
	for i, x := range xs {
		num += float64(x * ws[i])
		den += ws[i]
	}
	//hpmlint:ignore floatcompare exact zero guards the division; weights of exactly zero carry no information
	if den == 0 {
		return 0
	}
	return num / den
}

// Summary bundles the descriptive statistics the tables report.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    Min(xs),
		Max:    Max(xs),
	}
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f std=%.3f min=%.3f max=%.3f", s.N, s.Mean, s.StdDev, s.Min, s.Max)
}

// Histogram is a fixed-bin histogram over [Lo, Hi); values outside the
// range are clamped into the edge bins, which is the behaviour the paper's
// node-count figures need (all jobs request 1..144 nodes).
type Histogram struct {
	Lo, Hi float64
	Counts []float64
	width  float64
}

// NewHistogram builds a histogram with the given bin count over [lo, hi).
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins < 1 {
		panic("stats: NewHistogram with no bins")
	}
	if hi <= lo {
		panic("stats: NewHistogram with hi <= lo")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]float64, bins), width: (hi - lo) / float64(bins)}
}

// binFor returns the bin index for x, clamped to the edge bins.
func (h *Histogram) binFor(x float64) int {
	i := int((x - h.Lo) / h.width)
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	return i
}

// Add accumulates weight w at value x.
func (h *Histogram) Add(x, w float64) { h.Counts[h.binFor(x)] += w }

// Observe accumulates a unit count at value x.
func (h *Histogram) Observe(x float64) { h.Add(x, 1) }

// BinCenter returns the midpoint value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + float64((float64(i)+0.5)*h.width)
}

// Total returns the accumulated weight over all bins.
func (h *Histogram) Total() float64 { return Sum(h.Counts) }

// MaxBin returns the index of the heaviest bin (the first, under ties).
func (h *Histogram) MaxBin() int {
	best, bestW := 0, h.Counts[0]
	for i, w := range h.Counts {
		if w > bestW {
			best, bestW = i, w
		}
	}
	return best
}

// Series is a time-indexed sequence of values (e.g. one value per day).
type Series struct {
	Label  string
	Values []float64
}

// NewSeries allocates a named series of the given length.
func NewSeries(label string, n int) *Series {
	return &Series{Label: label, Values: make([]float64, n)}
}

// Smoothed returns a new series holding the trailing moving average.
func (s *Series) Smoothed(window int) *Series {
	return &Series{Label: s.Label + " (moving avg)", Values: MovingAverage(s.Values, window)}
}

// Filter returns the values for which keep reports true.
func Filter(xs []float64, keep func(float64) bool) []float64 {
	var out []float64
	for _, x := range xs {
		if keep(x) {
			out = append(out, x)
		}
	}
	return out
}

// Correlation returns the Pearson correlation coefficient between xs and
// ys, or 0 when undefined. Used by the analysis layer to confirm the
// paper's "no obvious trends" observation.
func Correlation(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("stats: Correlation length mismatch %d vs %d", len(xs), len(ys)))
	}
	if len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += float64(dx * dy)
		sxx += float64(dx * dx)
		syy += float64(dy * dy)
	}
	//hpmlint:ignore floatcompare degenerate input (all values equal) sums to exactly 0.0
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// LinearFit returns the least-squares slope and intercept of ys against xs.
// It returns (0, mean(ys)) for degenerate inputs.
func LinearFit(xs, ys []float64) (slope, intercept float64) {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("stats: LinearFit length mismatch %d vs %d", len(xs), len(ys)))
	}
	if len(xs) < 2 {
		return 0, Mean(ys)
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx float64
	for i := range xs {
		dx := xs[i] - mx
		sxy += float64(dx * (ys[i] - my))
		sxx += float64(dx * dx)
	}
	//hpmlint:ignore floatcompare degenerate input (all xs equal) sums to exactly 0.0
	if sxx == 0 {
		return 0, my
	}
	slope = sxy / sxx
	return slope, my - float64(slope*mx)
}
