// Package workload generates the synthetic loads and node capacities the
// paper evaluates with: virtual-server loads drawn from a Gaussian or a
// Pareto model parameterized by the fraction of the identifier space a
// virtual server owns, and a Gnutella-like node-capacity profile.
//
// Following the paper's setup (§5.1): with f the fraction of the
// identifier space owned by a virtual server (exponentially distributed,
// as arises naturally from random identifiers on the Chord ring), μ and σ
// the mean and standard deviation of the total system load,
//
//   - the Gaussian model draws loads from N(μf, (σ√f)²), and
//   - the Pareto model uses shape α = 1.5 with mean μf (infinite variance).
//
// Node capacities follow the Gnutella-like profile: capacity 1, 10, 10²,
// 10³ and 10⁴ with probability 20%, 45%, 30%, 4.9% and 0.1%.
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// LoadModel draws a non-negative load for a virtual server owning
// fraction f of the identifier space.
type LoadModel interface {
	// Load returns the load of a virtual server owning fraction f of
	// the identifier space. Implementations must return a value >= 0.
	Load(rng *rand.Rand, f float64) float64
	// Name identifies the model in experiment output.
	Name() string
}

// Gaussian is the Gaussian load model: N(Mu·f, (Sigma·√f)²), truncated
// at zero (negative draws clamp to 0; with the paper's parameters these
// are rare, and clamping preserves non-negativity of load).
type Gaussian struct {
	Mu    float64 // mean of the total system load
	Sigma float64 // standard deviation of the total system load
}

// Load implements LoadModel.
func (g Gaussian) Load(rng *rand.Rand, f float64) float64 {
	x := g.Mu*f + g.Sigma*math.Sqrt(f)*rng.NormFloat64()
	if x < 0 {
		return 0
	}
	return x
}

// Name implements LoadModel.
func (g Gaussian) Name() string { return "gaussian" }

// Pareto is the heavy-tailed load model: a Pareto distribution with shape
// Alpha (> 1) and mean Mu·f. The scale is derived from the mean:
// x_m = mean·(α−1)/α. With the paper's α = 1.5 the variance is infinite.
type Pareto struct {
	Alpha float64 // shape parameter, must be > 1 so the mean exists
	Mu    float64 // mean of the total system load
}

// Load implements LoadModel.
func (p Pareto) Load(rng *rand.Rand, f float64) float64 {
	if p.Alpha <= 1 {
		panic(fmt.Sprintf("workload: Pareto shape %v has no mean", p.Alpha))
	}
	mean := p.Mu * f
	xm := mean * (p.Alpha - 1) / p.Alpha
	// Inverse-CDF sampling: X = x_m · U^(−1/α), U ∈ (0, 1].
	u := 1 - rng.Float64() // (0, 1]
	return xm * math.Pow(u, -1/p.Alpha)
}

// Name implements LoadModel.
func (p Pareto) Name() string { return "pareto" }

// CapacityClass is one row of a capacity profile: nodes receive Capacity
// with probability Prob.
type CapacityClass struct {
	Capacity float64
	Prob     float64
}

// Profile is a discrete node-capacity distribution.
type Profile []CapacityClass

// GnutellaProfile returns the paper's Gnutella-like capacity profile.
func GnutellaProfile() Profile {
	return Profile{
		{Capacity: 1, Prob: 0.20},
		{Capacity: 10, Prob: 0.45},
		{Capacity: 100, Prob: 0.30},
		{Capacity: 1000, Prob: 0.049},
		{Capacity: 10000, Prob: 0.001},
	}
}

// Sample draws one capacity from the profile.
func (p Profile) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	var cum float64
	for _, c := range p {
		cum += c.Prob
		if u < cum {
			return c.Capacity
		}
	}
	// Floating-point slack: fall through to the last class.
	return p[len(p)-1].Capacity
}
