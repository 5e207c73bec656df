//go:build !race

package sim

// raceEnabled keeps allocation counts out of -race runs, where the race
// runtime allocates on its own account.
const raceEnabled = false
