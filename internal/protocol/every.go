package protocol

import "p2plb/internal/sim"

// Every starts a balancing round every interval on eng: the one
// periodic regime every long-running caller schedules rounds with.
// start is the round starter, usually a Runner's StartRound method
// value (or a wrapper of it). The ticks land at the virtual times
// eng.Every gives them.
//
// A tick while a round started here is still in flight is skipped.
// Otherwise before runs first; it may mutate the workload or the
// membership, and returning false skips the tick. done receives every
// started round's outcome, and done(nil, err) when start fails
// synchronously. The round repairs the tree itself (Runner.StartRound),
// so nothing repairs it between rounds.
//
// stop cancels the ticks and is idempotent. A round in flight still
// completes and reaches done; no tick, before or start runs after stop.
func Every(eng *sim.Engine, interval sim.Time, start func(func(*Result, error)) error, before func() bool, done func(*Result, error)) (stop func()) {
	active := false
	return eng.Every(interval, func() {
		if active || !before() {
			return
		}
		active = true
		if err := start(func(res *Result, err error) {
			active = false
			done(res, err)
		}); err != nil {
			active = false
			done(nil, err)
		}
	})
}
