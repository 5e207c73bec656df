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
	local   core.LBI
	subs    []core.LBI
	got     []bool
	pending int
	closed  bool
}

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
	c := LBICollect{pending: children}
	for _, rep := range reports {
		c.local = c.local.Merge(rep)
	}
	if children > 0 {
		c.subs = make([]core.LBI, children)
		c.got = make([]bool, children)
	} else {
		c.closed = true
	}
	return c
}

// ChildReply buffers the aggregate of the child subtree at index idx.
// It returns true when this reply completes the epoch; a reply after
// the epoch closed, or a duplicate for an index already answered, is
// absorbed and returns false.
func (c *LBICollect) ChildReply(idx int, sub core.LBI) bool {
	if c.closed || c.got[idx] {
		return false
	}
	c.subs[idx] = sub
	c.got[idx] = true
	c.pending--
	if c.pending == 0 {
		c.closed = true
		return true
	}
	return false
}

// Expire closes a still-open epoch with partial data, returning how
// many children never replied. An already-closed epoch reports
// (0, false) — the timer lost the race and must not act.
func (c *LBICollect) Expire() (timedOut int, expired bool) {
	if c.closed {
		return 0, false
	}
	c.closed = true
	return c.pending, true
}

// Done reports whether the epoch has closed.
func (c *LBICollect) Done() bool { return c.closed }

// Aggregate folds the merged LBI gathered so far — locals first, then
// the buffered child replies in child-index order (missing children,
// after an expiry, are skipped). Meaningful once the epoch closed.
func (c *LBICollect) Aggregate() core.LBI {
	agg := c.local
	for i, sub := range c.subs {
		if c.got[i] {
			agg = agg.Merge(sub)
		}
	}
	return agg
}

// VSACollect is the VSA converge-cast epoch at one KT node: the node's
// own inbox of advertisements seeds the list, children's unpaired lists
// merge as they arrive, and the epoch closes exactly once. After the
// close the node may act as a rendezvous point (Rendezvous) and hands
// whatever remains unpaired to its parent (Lists).
type VSACollect struct {
	lists   *core.PairList
	pending int
	closed  bool
}

// NewVSACollect starts an epoch over the node's deposited advertisement
// list (nil means none) and the number of child subtrees it will query.
// The inbox PairList is consumed: pairing and upward propagation mutate
// it in place.
func NewVSACollect(inbox *core.PairList, children int) *VSACollect {
	c := MakeVSACollect(inbox, children)
	return &c
}

// MakeVSACollect is NewVSACollect in value form — see MakeLBICollect.
func MakeVSACollect(inbox *core.PairList, children int) VSACollect {
	if inbox == nil {
		inbox = &core.PairList{}
	}
	c := VSACollect{lists: inbox, pending: children}
	if c.pending == 0 {
		c.closed = true
	}
	return c
}

// ChildReply merges one child subtree's unpaired list (which is consumed
// — §3.4's upward flow). It returns true when this reply completes the
// epoch; a reply after the close is absorbed and returns false.
func (c *VSACollect) ChildReply(sub *core.PairList) bool {
	if c.closed {
		return false
	}
	c.lists.Merge(sub)
	c.pending--
	if c.pending == 0 {
		c.closed = true
		return true
	}
	return false
}

// Expire closes a still-open epoch with partial data, returning how
// many children never replied; (0, false) if already closed.
func (c *VSACollect) Expire() (timedOut int, expired bool) {
	if c.closed {
		return 0, false
	}
	c.closed = true
	return c.pending, true
}

// Done reports whether the epoch has closed.
func (c *VSACollect) Done() bool { return c.closed }

// Rendezvous runs core.PairList.Rendezvous, the §3.4 rendezvous rule,
// on the closed epoch's list. It returns the emitted pairings; unpaired
// entries stay held for the parent.
func (c *VSACollect) Rendezvous(isRoot bool, threshold int, lmin float64) []core.Pair {
	return c.lists.Rendezvous(isRoot, threshold, lmin)
}

// Lists returns the list of entries still held (after Rendezvous: the
// unpaired remainder that flows to the parent).
func (c *VSACollect) Lists() *core.PairList { return c.lists }
