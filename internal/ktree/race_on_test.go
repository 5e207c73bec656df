//go:build race

package ktree

const raceEnabled = true
