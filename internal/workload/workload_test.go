package workload

import (
	"math"
	"math/rand"
	"testing"
)

func TestGaussianMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := Gaussian{Mu: 1e6, Sigma: 1e4}
	f := 0.001
	n := 200000
	var sum, ss float64
	for i := 0; i < n; i++ {
		x := g.Load(rng, f)
		if x < 0 {
			t.Fatal("negative load")
		}
		sum += x
	}
	mean := sum / float64(n)
	wantMean := g.Mu * f
	if math.Abs(mean-wantMean)/wantMean > 0.01 {
		t.Errorf("Gaussian mean = %v, want ~%v", mean, wantMean)
	}
	rng = rand.New(rand.NewSource(2))
	for i := 0; i < n; i++ {
		x := g.Load(rng, f)
		d := x - wantMean
		ss += d * d
	}
	std := math.Sqrt(ss / float64(n))
	wantStd := g.Sigma * math.Sqrt(f)
	if math.Abs(std-wantStd)/wantStd > 0.03 {
		t.Errorf("Gaussian std = %v, want ~%v", std, wantStd)
	}
}

func TestGaussianClampsNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Force a regime where negatives would be common without clamping.
	g := Gaussian{Mu: 0, Sigma: 100}
	for i := 0; i < 10000; i++ {
		if g.Load(rng, 0.5) < 0 {
			t.Fatal("clamp failed")
		}
	}
}

func TestParetoMeanAndTail(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := Pareto{Alpha: 1.5, Mu: 1e6}
	f := 0.01
	wantMean := p.Mu * f
	xm := wantMean * (p.Alpha - 1) / p.Alpha
	n := 2_000_000
	var sum float64
	exceed := 0
	for i := 0; i < n; i++ {
		x := p.Load(rng, f)
		if x < xm {
			t.Fatalf("Pareto draw %v below scale %v", x, xm)
		}
		sum += x
		if x > 10*xm {
			exceed++
		}
	}
	mean := sum / float64(n)
	// α=1.5 has infinite variance so the sample mean converges slowly;
	// allow a loose band.
	if mean < 0.85*wantMean || mean > 1.4*wantMean {
		t.Errorf("Pareto mean = %v, want ~%v", mean, wantMean)
	}
	// Tail check: P(X > 10·x_m) = 10^(−α) = 10^(−1.5) ≈ 0.0316.
	frac := float64(exceed) / float64(n)
	if math.Abs(frac-math.Pow(10, -1.5)) > 0.003 {
		t.Errorf("Pareto tail fraction = %v, want ~%v", frac, math.Pow(10, -1.5))
	}
}

func TestParetoBadShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pareto with alpha<=1 should panic")
		}
	}()
	Pareto{Alpha: 1, Mu: 1}.Load(rand.New(rand.NewSource(1)), 0.1)
}

func TestModelNames(t *testing.T) {
	if (Gaussian{}).Name() != "gaussian" || (Pareto{}).Name() != "pareto" {
		t.Fatal("model names wrong")
	}
}

func TestGnutellaProfileValid(t *testing.T) {
	var sum, mean float64
	for _, c := range GnutellaProfile() {
		if c.Prob < 0 || c.Capacity <= 0 {
			t.Errorf("class %+v: want a positive capacity and a non-negative probability", c)
		}
		sum += c.Prob
		mean += c.Capacity * c.Prob
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %v, want 1", sum)
	}
	// Expected mean: 1·.2 + 10·.45 + 100·.3 + 1000·.049 + 10000·.001 = 93.7
	if math.Abs(mean-93.7) > 1e-9 {
		t.Errorf("mean capacity = %v, want 93.7", mean)
	}
}

func TestProfileSampleFrequencies(t *testing.T) {
	p := GnutellaProfile()
	rng := rand.New(rand.NewSource(5))
	counts := map[float64]int{}
	n := 500000
	for i := 0; i < n; i++ {
		counts[p.Sample(rng)]++
	}
	for _, c := range p {
		frac := float64(counts[c.Capacity]) / float64(n)
		if math.Abs(frac-c.Prob) > 0.005+c.Prob*0.05 {
			t.Errorf("capacity %v sampled at %v, want %v", c.Capacity, frac, c.Prob)
		}
	}
}

func BenchmarkGaussianLoad(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := Gaussian{Mu: 1e6, Sigma: 1e4}
	for i := 0; i < b.N; i++ {
		g.Load(rng, 0.001)
	}
}

func BenchmarkParetoLoad(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := Pareto{Alpha: 1.5, Mu: 1e6}
	for i := 0; i < b.N; i++ {
		p.Load(rng, 0.001)
	}
}
