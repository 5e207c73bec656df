package chord

import (
	"fmt"
	"slices"

	"p2plb/internal/ident"
)

// blockSize is the most virtual servers one block of the ring holds. A
// join or leave shifts the two arrays of one block, O(blockSize), and
// touches no other block unless it splits or merges one.
const blockSize = 256

// block is a run of consecutive live virtual servers in ring order, as
// two parallel arrays: a search reads ids alone and dereferences no
// VServer. A block is never empty.
type block struct {
	ids []ident.ID
	vss []*VServer
}

// searchIDs returns the index of the first of the ascending ids that is
// not less than id (len(ids) if none): the binary search under every
// positional query.
//
//lbvet:hotpath
func searchIDs(ids []ident.ID, id ident.ID) int {
	lo, hi := 0, len(ids)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ident.Less(ids[m], id) { // wrap is a caller concern
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// home returns the block an identifier's ring position falls in: the
// last block whose first ID is below id, or block 0 when none is. The
// ring must not be empty.
//
//lbvet:hotpath
func (r *Ring) home(id ident.ID) int {
	return max(searchIDs(r.mins, id)-1, 0)
}

// seek returns the position of the first virtual server whose ID is not
// less than id, as a block and an offset in it; (len(r.blocks), 0) when
// every ID is less.
//
//lbvet:hotpath
func (r *Ring) seek(id ident.ID) (b, i int) {
	if len(r.blocks) == 0 {
		return 0, 0
	}
	b = r.home(id)
	if i = searchIDs(r.blocks[b].ids, id); i == len(r.blocks[b].ids) {
		return b + 1, 0
	}
	return b, i
}

// rank returns how many virtual servers have an ID less than id: the
// sizes of the blocks ahead of id's position, summed. That is
// O(V/blockSize), and only NumVServersIn asks; running counts kept per
// block would charge the same to every join and leave instead.
func (r *Ring) rank(id ident.ID) int {
	b, i := r.seek(id)
	for _, blk := range r.blocks[:b] {
		i += len(blk.ids)
	}
	return i
}

// at returns the virtual server at position (b, i).
func (r *Ring) at(b, i int) *VServer { return r.blocks[b].vss[i] }

// next returns the position clockwise after (b, i), wrapping at the top.
func (r *Ring) next(b, i int) (int, int) {
	switch {
	case i+1 < len(r.blocks[b].ids):
		return b, i + 1
	case b+1 < len(r.blocks):
		return b + 1, 0
	}
	return 0, 0
}

// prev returns the position counterclockwise before (b, i).
func (r *Ring) prev(b, i int) (int, int) {
	switch {
	case i > 0:
		return b, i - 1
	case b > 0:
		return b - 1, len(r.blocks[b-1].ids) - 1
	}
	b = len(r.blocks) - 1
	return b, len(r.blocks[b].ids) - 1
}

// place records (b, i) as vs's position for the current epoch.
func (r *Ring) place(vs *VServer, b, i int) {
	vs.blk, vs.off, vs.posEpoch = int32(b), int32(i), r.epoch
}

// insert puts vs into ring order, splitting its block first if the
// block is full, and returns where vs landed. The caller bumps the
// epoch.
func (r *Ring) insert(vs *VServer) (int, int) {
	if len(r.blocks) == 0 {
		r.blocks = append(r.blocks, block{ids: []ident.ID{vs.ID}, vss: []*VServer{vs}})
		r.mins = append(r.mins, vs.ID)
		r.numVS = 1
		return 0, 0
	}
	b := r.home(vs.ID)
	i := searchIDs(r.blocks[b].ids, vs.ID)
	if len(r.blocks[b].ids) >= r.blockMax {
		r.split(b)
		if h := len(r.blocks[b].ids); i > h {
			b, i = b+1, i-h
		}
	}
	blk := &r.blocks[b]
	blk.ids = slices.Insert(blk.ids, i, vs.ID)
	blk.vss = slices.Insert(blk.vss, i, vs)
	if i == 0 {
		r.mins[b] = vs.ID
	}
	r.numVS++
	return b, i
}

// split moves the upper half of block b into a new block after it.
func (r *Ring) split(b int) {
	blk := &r.blocks[b]
	h := len(blk.ids) / 2
	upper := block{
		ids: append(make([]ident.ID, 0, r.blockMax), blk.ids[h:]...),
		vss: append(make([]*VServer, 0, r.blockMax), blk.vss[h:]...),
	}
	clear(blk.vss[h:])
	blk.ids, blk.vss = blk.ids[:h], blk.vss[:h]
	r.blocks = slices.Insert(r.blocks, b+1, upper)
	r.mins = slices.Insert(r.mins, b+1, upper.ids[0])
}

// delete removes the virtual server at (b, i). A block that empties
// goes; one that falls below a quarter full merges with a neighbour.
// The caller bumps the epoch.
func (r *Ring) delete(b, i int) {
	blk := &r.blocks[b]
	blk.ids = slices.Delete(blk.ids, i, i+1)
	blk.vss = slices.Delete(blk.vss, i, i+1)
	r.numVS--
	switch {
	case len(blk.ids) == 0:
		r.dropBlock(b)
	case len(blk.ids) < r.blockMax/4 && len(r.blocks) > 1:
		r.merge(b)
	case i == 0:
		r.mins[b] = blk.ids[0]
	}
}

// dropBlock removes block b from the top-level arrays.
func (r *Ring) dropBlock(b int) {
	r.blocks = slices.Delete(r.blocks, b, b+1)
	r.mins = slices.Delete(r.mins, b, b+1)
}

// merge joins block b with its successor block (its predecessor if b is
// the last) when the two fit in one, and otherwise shares their virtual
// servers out evenly between them.
func (r *Ring) merge(b int) {
	l := min(b, len(r.blocks)-2)
	left, right := &r.blocks[l], &r.blocks[l+1]
	n := len(left.ids) + len(right.ids)
	if n <= r.blockMax {
		left.ids = append(left.ids, right.ids...)
		left.vss = append(left.vss, right.vss...)
		clear(right.vss) // its array may outlive the block (fill)
		r.mins[l] = left.ids[0]
		r.dropBlock(l + 1)
		return
	}
	h := n / 2
	if k := h - len(left.ids); k > 0 {
		left.ids = append(left.ids, right.ids[:k]...)
		left.vss = append(left.vss, right.vss[:k]...)
		right.ids = slices.Delete(right.ids, 0, k)
		right.vss = slices.Delete(right.vss, 0, k)
	} else {
		right.ids = slices.Insert(right.ids, 0, left.ids[h:]...)
		right.vss = slices.Insert(right.vss, 0, left.vss[h:]...)
		clear(left.vss[h:])
		left.ids, left.vss = left.ids[:h], left.vss[:h]
	}
	r.mins[l], r.mins[l+1] = left.ids[0], right.ids[0]
}

// fill replaces the blocks with vss, which is in ring order, filling
// each block to about three quarters so that the joins that follow
// shift a block before they split one. Each block's arrays are
// full-capacity windows of one array per field, so a fill allocates the
// same few arrays at any size. vss becomes the flat view of the new
// epoch, which the caller has bumped.
func (r *Ring) fill(vss []*VServer) {
	per := max(r.blockMax*3/4, 1)
	nb := (len(vss) + per - 1) / per
	r.blocks = make([]block, nb)
	r.mins = make([]ident.ID, nb)
	ids, ptrs := make([]ident.ID, nb*r.blockMax), make([]*VServer, nb*r.blockMax)
	for b := range r.blocks {
		lo, hi := b*len(vss)/nb, (b+1)*len(vss)/nb
		w := b * r.blockMax
		blk := block{ids: ids[w : w+hi-lo : w+r.blockMax], vss: ptrs[w : w+hi-lo : w+r.blockMax]}
		copy(blk.vss, vss[lo:hi])
		for i, vs := range blk.vss {
			blk.ids[i] = vs.ID
			r.place(vs, b, i)
		}
		r.blocks[b], r.mins[b] = blk, blk.ids[0]
	}
	r.numVS = len(vss)
	r.flat, r.flatEpoch = vss, r.epoch
}

// VServers returns the live virtual servers in ring order. The slice is
// built from the blocks at most once per membership epoch and is valid
// until the next join or leave; it must not be modified.
func (r *Ring) VServers() []*VServer {
	if r.flatEpoch != r.epoch {
		flat := r.flat[:0]
		for _, blk := range r.blocks {
			flat = append(flat, blk.vss...)
		}
		if len(flat) < len(r.flat) {
			clear(r.flat[len(flat):]) // departed virtual servers
		}
		r.flat, r.flatEpoch = flat, r.epoch
	}
	return r.flat
}

// NumVServers returns the number of live virtual servers.
func (r *Ring) NumVServers() int { return r.numVS }

// checkBlocks verifies the block layout (CheckInvariants): ascending
// IDs, parallel arrays, block minima, the count, block sizes between a
// quarter full (unless alone) and full, and a current flat view equal
// to the blocks.
func (r *Ring) checkBlocks() {
	if len(r.mins) != len(r.blocks) {
		panic(fmt.Sprintf("chord: %d blocks with %d minima", len(r.blocks), len(r.mins)))
	}
	var prev *VServer
	count := 0
	for b, blk := range r.blocks {
		n := len(blk.ids)
		switch {
		case n == 0 || n != len(blk.vss):
			panic(fmt.Sprintf("chord: block %d holds %d IDs and %d virtual servers", b, n, len(blk.vss)))
		case n > r.blockMax || (n < r.blockMax/4 && len(r.blocks) > 1):
			panic(fmt.Sprintf("chord: block %d holds %d virtual servers, outside [%d, %d]", b, n, r.blockMax/4, r.blockMax))
		case r.mins[b] != blk.ids[0]:
			panic(fmt.Sprintf("chord: block %d minimum %s, first ID %s", b, r.mins[b], blk.ids[0]))
		}
		count += n
		for i, vs := range blk.vss {
			if blk.ids[i] != vs.ID {
				panic(fmt.Sprintf("chord: block %d offset %d holds ID %s for vs %s", b, i, blk.ids[i], vs.ID))
			}
			if prev != nil && !ident.Less(prev.ID, vs.ID) {
				panic(fmt.Sprintf("chord: ring out of order at block %d offset %d", b, i))
			}
			if vs.posEpoch == r.epoch && (int(vs.blk) != b || int(vs.off) != i) {
				panic(fmt.Sprintf("chord: vs %s caches current-epoch position (%d, %d) != (%d, %d)", vs.ID, vs.blk, vs.off, b, i))
			}
			prev = vs
		}
	}
	if count != r.numVS {
		panic(fmt.Sprintf("chord: blocks hold %d virtual servers, the count says %d", count, r.numVS))
	}
	if r.flatEpoch == r.epoch {
		flat := r.flat
		for _, blk := range r.blocks {
			if len(flat) < len(blk.vss) || !slices.Equal(flat[:len(blk.vss)], blk.vss) {
				panic("chord: the current flat view differs from the blocks")
			}
			flat = flat[len(blk.vss):]
		}
		if len(flat) != 0 {
			panic("chord: the current flat view is longer than the ring")
		}
	}
}
