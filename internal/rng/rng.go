// Package rng provides a deterministic pseudo-random number generator and
// the distributions the workload model draws from.
//
// The campaign simulation must be exactly reproducible from a seed across Go
// releases, so we implement xoshiro256** (seeded via splitmix64) locally
// instead of depending on math/rand's unspecified stream.
package rng

import "math"

// Source is a xoshiro256** generator. The zero value is not usable; obtain
// one from New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from the given seed via splitmix64. Any seed,
// including zero, yields a well-mixed state.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm += 0x9e3779b97f4a7c15
		src.s[i] = mix64(sm)
	}
	return &src
}

// mix64 is the splitmix64 finalizer: a bijective avalanche over 64 bits.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream returns the id-th substream of seed: the splitmix64 generator
// seeded at seed is jumped id+1 gamma increments forward and its output
// seeds a fresh Source. Substreams of one seed are statistically
// independent of each other and of New(seed), and — crucially for the
// parallel campaign engine — Stream(seed, id) depends only on (seed, id),
// never on how many draws any other stream has consumed or on the order
// streams are created in.
func Stream(seed, id uint64) *Source {
	return New(mix64(seed + (id+1)*0x9e3779b97f4a7c15))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// step is one xoshiro256** step: the output for state (s0, s1, s2, s3)
// and the state after it. Uint64 and Fill share it, so a bulk fill is the
// Uint64 sequence by construction.
func step(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
	out = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return out, s0, s1, s2, rotl(s3, 45)
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Source) Uint64() uint64 {
	out, s0, s1, s2, s3 := step(r.s[0], r.s[1], r.s[2], r.s[3])
	r.s = [4]uint64{s0, s1, s2, s3}
	return out
}

// Fill sets dst to the next len(dst) outputs: the values, in order, of
// len(dst) Uint64 calls, leaving the source where they would. The state
// stays in locals for the whole fill instead of being reloaded and
// stored once per draw.
func (r *Source) Fill(dst []uint64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range dst {
		dst[i], s0, s1, s2, s3 = step(s0, s1, s2, s3)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// Float64 returns a uniform value in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Range returns a uniform float64 in [lo, hi).
func (r *Source) Range(lo, hi float64) float64 {
	return lo + float64((hi-lo)*r.Float64())
}

// IntRange returns a uniform int in [lo, hi]. It panics if hi < lo.
func (r *Source) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool { return r.Float64() < p }

// Normal returns a normally distributed value with the given mean and
// standard deviation, via the Box-Muller transform.
func (r *Source) Normal(mean, stddev float64) float64 {
	// Reject u1 == 0 so the log is finite.
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + float64(stddev*z)
}

// NormalClamped returns a Normal draw clamped to [lo, hi].
func (r *Source) NormalClamped(mean, stddev, lo, hi float64) float64 {
	v := r.Normal(mean, stddev)
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// LogNormal returns exp(Normal(mu, sigma)); mu and sigma parameterise the
// underlying normal, not the resulting distribution's mean.
func (r *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Exponential returns an exponentially distributed value with the given
// mean (i.e. rate 1/mean).
func (r *Source) Exponential(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Weighted selects an index according to the given non-negative weights.
// It panics if weights is empty or sums to zero.
type Weighted struct {
	cum []float64
}

// NewWeighted builds a weighted sampler over the given weights.
func NewWeighted(weights []float64) *Weighted {
	if len(weights) == 0 {
		panic("rng: NewWeighted with no weights")
	}
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w < 0 {
			panic("rng: NewWeighted with negative weight")
		}
		total += w
		cum[i] = total
	}
	if total == 0 {
		panic("rng: NewWeighted with zero total weight")
	}
	return &Weighted{cum: cum}
}

// Sample draws an index with probability proportional to its weight.
func (w *Weighted) Sample(r *Source) int {
	x := r.Float64() * w.cum[len(w.cum)-1]
	// Binary search for the first cumulative weight exceeding x.
	lo, hi := 0, len(w.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if w.cum[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Len reports the number of outcomes.
func (w *Weighted) Len() int { return len(w.cum) }
