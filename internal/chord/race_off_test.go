//go:build !race

package chord

// raceEnabled keeps cost-ratio measurements out of -race runs, where the
// race runtime's own bookkeeping dominates every memory access.
const raceEnabled = false
