// Package lbnode holds the per-KT-node state of the paper's
// load-balancing scheme, written as pure transitions — (state, incoming
// message) → (state′, outgoing actions) — with no notion of time,
// delivery, retransmission or concurrency.
//
// One round of the scheme keeps its per-node state in three machines:
//
//   - LBICollect — the LBI converge-cast epoch at one KT node: deposit
//     the local reports, merge each child subtree's reply as it arrives,
//     and close (complete or expired) exactly once (§3.2).
//   - VSACollect — the VSA converge-cast epoch: merge children's
//     unpaired lists, then pair at rendezvous points by
//     core.PairList.Rendezvous (threshold reached, or the root) and hand
//     leftovers upward (§3.4).
//   - Handoff — the two-phase virtual-server transfer for one pairing:
//     assign → prepare/reserve → commit, with abort on invalid or
//     failed endpoints; the commit applies exactly once (§3.4 VST).
//
// internal/protocol and the deployed daemon (internal/cluster) drive all
// three. Classification is no machine: a driver calls core.ClassifyNode
// once per node, when the global tuple first reaches it (§3.3).
//
// The rules these machines apply are core's, shared with every driver:
// the round's placement (core.PlaceRound: which leaf each report and
// advertisement enters at), the deposit of an advertisement
// (core.PairList.Deposit) and the rendezvous rule. Drivers own
// everything else: internal/protocol steps these machines through
// sim.Engine events (acks, retries, epoch timers, fault injection are
// transport concerns), internal/cluster drives the same machines over
// TCP with a WAL under the handoff, and core.Balancer runs the same
// rules as a closed-form fold, one goroutine per root child merged at
// the root in child order. Because the machines are pure and
// single-threaded per node, a driver may call them from any scheduling
// discipline; the lbvet layercheck analyzer enforces
// that this package never imports sim, faults or par and never spawns
// goroutines.
package lbnode
