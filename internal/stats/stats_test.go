package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v", got)
	}
}

func TestStdDev(t *testing.T) {
	// Population stddev of {2,4,4,4,5,5,7,9} is exactly 2.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := StdDev(xs); !approx(got, 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", got)
	}
	if got := StdDev([]float64{5}); got != 0 {
		t.Fatalf("StdDev single = %v", got)
	}
	if got := StdDev(nil); got != 0 {
		t.Fatalf("StdDev(nil) = %v", got)
	}
}

func TestMax(t *testing.T) {
	if got := Max([]float64{3, -1, 7, 2}); got != 7 {
		t.Fatalf("Max = %v, want 7", got)
	}
	if Max(nil) != 0 {
		t.Fatal("empty-slice Max not zero")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {-5, 1}, {110, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !approx(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("Percentile(nil) = %v", got)
	}
	// Interpolation between ranks.
	if got := Percentile([]float64{0, 10}, 25); !approx(got, 2.5, 1e-12) {
		t.Fatalf("interpolated percentile = %v, want 2.5", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Percentile(xs, 50)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{9, 1, 5}); got != 5 {
		t.Fatalf("Median = %v", got)
	}
}

func TestMovingAverage(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	got := MovingAverage(xs, 3)
	want := []float64{1, 1.5, 2, 3, 4}
	for i := range want {
		if !approx(got[i], want[i], 1e-12) {
			t.Fatalf("MovingAverage[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMovingAverageWindowOne(t *testing.T) {
	xs := []float64{4, 8, 15}
	got := MovingAverage(xs, 1)
	for i := range xs {
		if got[i] != xs[i] {
			t.Fatalf("window-1 moving average changed values: %v", got)
		}
	}
	// Degenerate window is clamped to 1.
	got = MovingAverage(xs, 0)
	for i := range xs {
		if got[i] != xs[i] {
			t.Fatalf("window-0 moving average changed values: %v", got)
		}
	}
}

func TestMovingAverageConstantInvariant(t *testing.T) {
	f := func(v uint8, n uint8, w uint8) bool {
		nn := int(n%50) + 1
		xs := make([]float64, nn)
		for i := range xs {
			xs[i] = float64(v)
		}
		out := MovingAverage(xs, int(w%10)+1)
		for _, o := range out {
			if !approx(o, float64(v), 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedMean(t *testing.T) {
	xs := []float64{10, 20}
	ws := []float64{1, 3}
	if got := WeightedMean(xs, ws); !approx(got, 17.5, 1e-12) {
		t.Fatalf("WeightedMean = %v", got)
	}
	if got := WeightedMean([]float64{1}, []float64{0}); got != 0 {
		t.Fatalf("zero-weight WeightedMean = %v", got)
	}
}

func TestWeightedMeanPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	WeightedMean([]float64{1}, []float64{1, 2})
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if got := Correlation(xs, ys); !approx(got, 1, 1e-12) {
		t.Fatalf("perfect correlation = %v", got)
	}
	neg := []float64{8, 6, 4, 2}
	if got := Correlation(xs, neg); !approx(got, -1, 1e-12) {
		t.Fatalf("perfect anticorrelation = %v", got)
	}
	flat := []float64{5, 5, 5, 5}
	if got := Correlation(xs, flat); got != 0 {
		t.Fatalf("degenerate correlation = %v", got)
	}
	if got := Correlation([]float64{1}, []float64{2}); got != 0 {
		t.Fatalf("single-point correlation = %v", got)
	}
}

func TestLinearFit(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x + 1
	slope, intercept := LinearFit(xs, ys)
	if !approx(slope, 2, 1e-12) || !approx(intercept, 1, 1e-12) {
		t.Fatalf("fit = %v, %v", slope, intercept)
	}
	// Degenerate: all xs equal.
	slope, intercept = LinearFit([]float64{5, 5}, []float64{1, 3})
	if slope != 0 || !approx(intercept, 2, 1e-12) {
		t.Fatalf("degenerate fit = %v, %v", slope, intercept)
	}
}

func TestMeanBoundsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		m := Mean(xs)
		return m >= Percentile(xs, 0)-1e-9 && m <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStdDevNonNegativeProperty(t *testing.T) {
	f := func(raw []int16) bool {
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		return StdDev(xs) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
