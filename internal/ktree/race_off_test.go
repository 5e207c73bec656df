//go:build !race

package ktree

// raceEnabled keeps allocation budgets out of -race runs, where the
// race runtime allocates on its own account.
const raceEnabled = false
