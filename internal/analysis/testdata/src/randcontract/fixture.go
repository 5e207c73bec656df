// Fixture for the randcontract analyzer: flagged cases carry a
// trailing want-comment with a message substring, everything else
// must stay clean.
package randcontract

import (
	"math/rand"

	"p2plb/internal/faults"
	"p2plb/internal/par"
	"p2plb/internal/sim"
)

// badGo consumes the engine RNG on a spawned goroutine.
func badGo(eng *sim.Engine, out chan<- int) {
	go func() {
		out <- eng.Rand().Intn(10) // want "single-goroutine"
	}()
}

// badPar captures a *rand.Rand inside a par worker callback.
func badPar(rng *rand.Rand, xs []float64) {
	par.For(len(xs), 0, func(i int) {
		xs[i] = rng.Float64() // want "captured *rand.Rand"
	})
}

// badHandoff passes the RNG itself into a goroutine at spawn time.
func badHandoff(rng *rand.Rand, f func(*rand.Rand)) {
	go f(rng) // want "captured *rand.Rand"
}

// badFieldRand reaches a struct-held RNG from a worker callback.
type holder struct{ rng *rand.Rand }

func (h *holder) badField(xs []float64) {
	par.Map(xs, 0, func(x float64) float64 {
		return x + h.rng.Float64() // want "captured *rand.Rand"
	})
}

// badFaults consults a shared fault injector from par workers: the
// injector's counters and restart stream are single-goroutine state.
func badFaults(in *faults.Injector, xs []float64) {
	par.For(len(xs), 0, func(i int) {
		if len(in.Deliveries("k", uint64(i), 0, 1, 0, 1)) > 0 { // want "captured *faults.Injector"
			xs[i] = 1
		}
	})
}

// badFaultsGo reads an injector counter on a spawned goroutine.
func badFaultsGo(in *faults.Injector, out chan<- int64) {
	go func() {
		out <- in.Dropped() // want "captured *faults.Injector"
	}()
}

// goodFaults builds one injector per trial inside the worker: the
// sanctioned pattern, not flagged.
func goodFaults(seed int64, xs []float64) {
	par.For(len(xs), 0, func(i int) {
		in, err := faults.New(seed+int64(i), faults.Plan{Drop: 0.1})
		if err != nil {
			return
		}
		if len(in.Deliveries("k", uint64(i), 0, 1, 0, 1)) > 0 {
			xs[i] = 1
		}
	})
}

// goodPerWorker gives each worker its own engine: the sanctioned
// pattern, not flagged.
func goodPerWorker(seed int64, xs []float64) {
	par.For(len(xs), 0, func(i int) {
		eng := sim.NewEngine(seed + int64(i))
		xs[i] = eng.Rand().Float64()
	})
}

// goodSequential consumes all randomness before the fan-out and gives
// each worker a derived-seed RNG.
func goodSequential(eng *sim.Engine, xs []float64) {
	seeds := make([]int64, len(xs))
	for i := range seeds {
		seeds[i] = eng.Rand().Int63()
	}
	par.For(len(xs), 0, func(i int) {
		rng := rand.New(rand.NewSource(seeds[i]))
		xs[i] = rng.Float64()
	})
}

// goodSingleGoroutine uses the engine RNG outside any fan-out.
func goodSingleGoroutine(eng *sim.Engine) int {
	return eng.Rand().Intn(10)
}
