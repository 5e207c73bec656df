//go:build !race

package protocol

// raceEnabled keeps the 6,400-node equivalence cases out of -race runs:
// the 512-node cases drive the same fork, join and replay paths, and at
// the race detector's slowdown the large ones would cost minutes.
const raceEnabled = false
