package core

import "p2plb/internal/chord"

// LoadSource is where the balancer's per-VS loads come from. The
// paper's figures sample vs.Load once from a workload.LoadModel at build
// time (workload.NewRing); the serving layer instead *observes* load as
// a decayed request rate that drifts between rounds
// (Mirrezaei–Shahparian's regime). A Balancer whose Config carries a
// LoadSource calls Refresh at the top of every round so classification
// sees the source's current view; a nil LoadSource means vs.Load is
// maintained externally: sampled once, or kept by an object store.
//
// Refresh must be deterministic given the source's own state: it runs
// on the engine goroutine and may only iterate the ring in its
// canonical VServers order.
type LoadSource interface {
	// Refresh brings every virtual server's Load field up to date with
	// the source's current view, before classification reads it.
	Refresh(ring *chord.Ring)
	// Name identifies the source in reports.
	Name() string
}
