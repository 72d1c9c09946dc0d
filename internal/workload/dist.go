package workload

// Scalar and node-count distributions for the data-driven generator. The
// hard-coded draws the 1996 mix used (lognormal wall times, the Figure 2
// node-count marginal, the day-quality multiplier) become Dist / SizeDist
// values carried in the Mix, so a workload spec can swap them without
// touching generator code. Sampling consumes draws from the caller's
// substream only — a Dist owns no state — which keeps GenerateDay pure and
// bit-identical at any worker count.

import (
	"fmt"

	"repro/internal/rng"
)

// DistKind selects a scalar distribution family.
type DistKind uint8

const (
	// DistLogNormal draws exp(Normal(A, B)): A is mu, B is sigma.
	DistLogNormal DistKind = iota
	// DistNormal draws Normal(A, B): A is the mean, B the stddev.
	DistNormal
	// DistExponential draws Exponential with mean A.
	DistExponential
	// DistUniform draws uniformly from [A, B).
	DistUniform
	// DistConstant always yields A, consuming no randomness.
	DistConstant
)

// String names the distribution family the way specs spell it.
func (k DistKind) String() string {
	switch k {
	case DistLogNormal:
		return "lognormal"
	case DistNormal:
		return "normal"
	case DistExponential:
		return "exponential"
	case DistUniform:
		return "uniform"
	case DistConstant:
		return "constant"
	}
	return fmt.Sprintf("DistKind(%d)", uint8(k))
}

// Dist is one scalar distribution: a family, its two parameters (meaning
// per family, see the DistKind constants) and an optional clamp. A zero
// Min or Max disables that side of the clamp — every quantity the
// generator draws is positive, so zero never needs to be representable.
type Dist struct {
	Kind DistKind
	A, B float64
	// Min and Max clamp the draw after sampling (0 = unclamped). Clamping
	// after the draw, rather than redrawing, keeps the number of stream
	// draws per sample fixed — a redraw loop would make later draws in the
	// same substream depend on how often the tail was hit.
	Min, Max float64
}

// Sample draws one value. The draw count per call is fixed for a given
// Kind, so samplers can be interleaved on one substream deterministically.
func (d Dist) Sample(rnd *rng.Source) float64 {
	var v float64
	switch d.Kind {
	case DistLogNormal:
		v = rnd.LogNormal(d.A, d.B)
	case DistNormal:
		v = rnd.Normal(d.A, d.B)
	case DistExponential:
		v = rnd.Exponential(d.A)
	case DistUniform:
		v = rnd.Range(d.A, d.B)
	case DistConstant:
		v = d.A
	default:
		panic(fmt.Sprintf("workload: unknown distribution kind %d", d.Kind))
	}
	if d.Min > 0 && v < d.Min {
		v = d.Min
	}
	if d.Max > 0 && v > d.Max {
		v = d.Max
	}
	return v
}

// SizeDist is a discrete node-count distribution: Counts[i] is requested
// with probability Weights[i]/sum(Weights). The generator compiles it to
// an rng.Weighted once per campaign.
type SizeDist struct {
	Counts  []int
	Weights []float64
}

// sampler compiles the distribution; it panics on an empty or all-zero
// table, mirroring rng.NewWeighted (spec-driven mixes are validated long
// before they reach here).
func (s SizeDist) sampler() *rng.Weighted {
	if len(s.Counts) != len(s.Weights) {
		panic(fmt.Sprintf("workload: size distribution has %d counts but %d weights", len(s.Counts), len(s.Weights)))
	}
	return rng.NewWeighted(s.Weights)
}

// maxNodes returns the largest count the distribution can draw: the
// biggest count with a positive weight (0 for an empty table).
func (s SizeDist) maxNodes() int {
	most := 0
	for i, n := range s.Counts {
		if i < len(s.Weights) && s.Weights[i] > 0 && n > most {
			most = n
		}
	}
	return most
}
