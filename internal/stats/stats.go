// Package stats provides the descriptive statistics used to reduce nine
// months of counter samples into the paper's tables and figures: means and
// standard deviations, weighted means, moving averages, percentiles,
// correlation and least-squares fits.
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
