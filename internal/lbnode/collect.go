package lbnode

import "p2plb/internal/core"

// LBICollect is the LBI converge-cast epoch at one KT node: the local
// reports merge at construction, each child subtree's reply is buffered
// under its child index as it arrives, and the epoch closes exactly
// once — when the last child replies, or when the executor's timer
// expires it with partial data. Replies after the close are absorbed
// without effect (the executor still acknowledges them so the sender
// stops retransmitting).
//
// Buffering instead of merging on arrival is what makes the aggregate
// order-independent: LBI merging adds floats, so the parenthesization
// matters in the last ulp. Aggregate folds locals first, then children
// in child-index order, no matter in which order the replies physically
// arrived — so a message-level round under any delivery order and
// core.Balancer's closed-form fold (which merges in the same order)
// produce the bit-identical global tuple.
type LBICollect struct {
	epoch
	local core.LBI
	subs  []childLBI
}

// childLBI is one child subtree's buffered reply and whether it arrived.
type childLBI struct {
	agg core.LBI
	got bool
}

// epoch is the close-once bookkeeping both collectors share: how many
// children have yet to reply, and whether the epoch has closed.
type epoch struct {
	pending int
	closed  bool
}

func openEpoch(children int) epoch { return epoch{pending: children, closed: children == 0} }

// replied counts one child's reply, closing the epoch at the last; it
// reports whether this reply closed it.
func (e *epoch) replied() bool {
	e.pending--
	e.closed = e.pending == 0
	return e.closed
}

// Expire closes a still-open epoch with partial data, returning how
// many children never replied. An already-closed epoch reports
// (0, false) — the timer lost the race and must not act.
func (e *epoch) Expire() (timedOut int, expired bool) {
	if e.closed {
		return 0, false
	}
	e.closed = true
	return e.pending, true
}

// Done reports whether the epoch has closed.
func (e *epoch) Done() bool { return e.closed }

// NewLBICollect starts an epoch over the node's deposited reports and
// the number of child subtrees it will query. With no children (a leaf,
// or an internal node whose slots are all empty) the epoch is complete
// immediately.
func NewLBICollect(reports []core.LBI, children int) *LBICollect {
	c := MakeLBICollect(reports, children)
	return &c
}

// MakeLBICollect is NewLBICollect in value form, for embedding the
// machine inside a caller-owned walk object (or, for a leaf that
// completes immediately, on the caller's stack) instead of a separate
// heap allocation per tree node.
func MakeLBICollect(reports []core.LBI, children int) LBICollect {
	c := LBICollect{epoch: openEpoch(children)}
	for _, rep := range reports {
		c.local = c.local.Merge(rep)
	}
	if children > 0 {
		c.subs = make([]childLBI, children)
	}
	return c
}

// ChildReply buffers the aggregate of the child subtree at index idx.
// It returns true when this reply completes the epoch; a reply after
// the epoch closed, or a duplicate for an index already answered, is
// absorbed and returns false.
func (c *LBICollect) ChildReply(idx int, sub core.LBI) bool {
	if c.closed || c.subs[idx].got {
		return false
	}
	c.subs[idx] = childLBI{agg: sub, got: true}
	return c.replied()
}

// Aggregate folds the merged LBI gathered so far — locals first, then
// the buffered child replies in child-index order (missing children,
// after an expiry, are skipped). Meaningful once the epoch closed.
func (c *LBICollect) Aggregate() core.LBI {
	agg := c.local
	for _, sub := range c.subs {
		if sub.got {
			agg = agg.Merge(sub.agg)
		}
	}
	return agg
}

// VSACollect is the VSA converge-cast epoch at one KT node: the node's
// own inbox of advertisements seeds the list, children's unpaired lists
// merge as they arrive, and the epoch closes exactly once. After the
// close the node may act as a rendezvous point (Rendezvous) and hands
// whatever remains unpaired to its parent (Lists).
//
// The machine holds a list only once it is handed one: a node with no
// deposits takes over the first child list that arrives rather than
// copying it into a fresh one, so most leaves allocate nothing.
type VSACollect struct {
	epoch
	lists *core.PairList
}

// NewVSACollect starts an epoch over the node's deposited advertisement
// list and the number of child subtrees it will query. The machine owns
// every list it is handed, the inbox and each child's: pairing and
// upward propagation mutate them in place, and a child's list may
// become the one the machine holds. A nil inbox is a node with no
// deposits, and until a child hands it a list the machine holds nil,
// which reads as empty (see core.PairList).
func NewVSACollect(inbox *core.PairList, children int) *VSACollect {
	c := MakeVSACollect(inbox, children)
	return &c
}

// MakeVSACollect is NewVSACollect in value form — see MakeLBICollect.
func MakeVSACollect(inbox *core.PairList, children int) VSACollect {
	return VSACollect{epoch: openEpoch(children), lists: inbox}
}

// ChildReply merges one child subtree's unpaired list (which is consumed
// — §3.4's upward flow; nil is an empty list). It returns true when this
// reply completes the epoch; a reply after the close is absorbed and
// returns false.
func (c *VSACollect) ChildReply(sub *core.PairList) bool {
	if c.closed {
		return false
	}
	if c.lists == nil {
		c.lists = sub
	} else if sub != nil {
		c.lists.Merge(sub)
	}
	return c.replied()
}

// Rendezvous runs core.PairList.Rendezvous, the §3.4 rendezvous rule,
// on the closed epoch's list. It returns the emitted pairings; unpaired
// entries stay held for the parent.
func (c *VSACollect) Rendezvous(isRoot bool, threshold int, lmin float64) []core.Pair {
	return c.lists.Rendezvous(isRoot, threshold, lmin)
}

// Lists returns the list of entries still held (after Rendezvous: the
// unpaired remainder that flows to the parent); nil when neither the
// inbox nor any child handed the epoch a list.
func (c *VSACollect) Lists() *core.PairList { return c.lists }
