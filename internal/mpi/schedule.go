package mpi

import (
	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// Collective schedules. Each algorithm is written once, over a rank
// list: ranks[i] is the global rank of schedule index i and me is the
// caller's index. The world's flat collectives pass the identity list,
// a Group passes its member list, and the hierarchical collectives
// (hcoll.go, hvcoll.go) compose the same schedules over one node's
// ranks and over the per-node leaders. Pairwise and ring schedules read
// their blocks through blockView callbacks, so one schedule serves
// regular slots, irregular v-blocks, leader stages and reduction chunks
// alike.

// blockView returns the buffer, datatype and count of schedule block i.
type blockView func(i int) (mem.Buffer, *datatype.Datatype, int)

// carries reports whether count elements of dt move any bytes. A block
// that does not is elided on both sides of a step: sender and receiver
// derive that from the same collective signature.
func carries(dt *datatype.Datatype, count int) bool {
	return count > 0 && int64(count)*dt.Size() > 0
}

// slots views a regular buffer: block r is count elements of dt
// starting r*count extents from the origin.
func slots(buf mem.Buffer, dt *datatype.Datatype, count int) blockView {
	return func(r int) (mem.Buffer, *datatype.Datatype, int) {
		return vslot(buf, dt, count, r*count), dt, count
	}
}

// vblocks views an irregular buffer: block r is counts[r] elements of
// dt at displs[r] extents. Empty blocks view nothing, so their
// displacements are never read.
func vblocks(buf mem.Buffer, dt *datatype.Datatype, counts, displs []int) blockView {
	return func(r int) (mem.Buffer, *datatype.Datatype, int) {
		if !carries(dt, counts[r]) {
			return mem.Buffer{}, dt, 0
		}
		return vslot(buf, dt, counts[r], displs[r]), dt, counts[r]
	}
}

// sendRecv is one schedule step on a single tag: post the send and the
// receive (each only if it carries bytes), then wait for the send and
// the receive in that order. It reports whether a receive completed.
func (m *Rank) sendRecv(p *sim.Proc, tag int,
	sbuf mem.Buffer, sdt *datatype.Datatype, scount, to int,
	rbuf mem.Buffer, rdt *datatype.Datatype, rcount, from int) bool {
	var sreq, rreq *Request
	if carries(sdt, scount) {
		sreq = m.isendOn(p, sbuf, sdt, scount, to, tag)
	}
	if carries(rdt, rcount) {
		rreq = m.Irecv(rbuf, rdt, rcount, from, tag)
	}
	if sreq != nil {
		sreq.Wait(p)
	}
	if rreq != nil {
		rreq.Wait(p)
	}
	return rreq != nil
}

// copyBlock moves the caller's own block i from send to recv through
// the datatype engines, unless it is empty.
func (m *Rank) copyBlock(p *sim.Proc, send, recv blockView, i int) {
	sbuf, sdt, scount := send(i)
	rbuf, rdt, rcount := recv(i)
	if carries(sdt, scount) {
		m.localCopy(p, sbuf, sdt, scount, rbuf, rdt, rcount)
	}
}

// PairwisePeers returns the step-s partners of index i in an n-member
// pairwise exchange (steps s = 1..n-1): i^s both ways when n is a power
// of two, otherwise send to (i+s) mod n and receive from (i-s) mod n.
// The modelled collectives (internal/model) pair ranks and nodes with
// the same rule.
func PairwisePeers(n, i, s int) (to, from int) {
	if n&(n-1) == 0 {
		t := i ^ s
		return t, t
	}
	return (i + s) % n, (i - s + n) % n
}

// pairwise is the pairwise exchange over ranks: step s sends block to
// to ranks[to] and receives block from from ranks[from], with (to,
// from) = PairwisePeers(n, me, s), every step on the same tag. The
// caller's own block is not part of the schedule (see copyBlock).
func (m *Rank) pairwise(p *sim.Proc, ranks []int, me, tag int, send, recv blockView) {
	n := len(ranks)
	for s := 1; s < n; s++ {
		to, from := PairwisePeers(n, me, s)
		sbuf, sdt, scount := send(to)
		rbuf, rdt, rcount := recv(from)
		m.sendRecv(p, tag, sbuf, sdt, scount, ranks[to], rbuf, rdt, rcount, ranks[from])
	}
}

// ring is the ring schedule over ranks: in step s = 0..n-2 the caller
// sends block (me+first-s) mod n to its right neighbour and receives
// the block before it from its left, on tag+s. An allgather starts from
// the caller's own block (first = 0); a reduce-scatter leaves member i
// owning block i+1, so the allgather that completes an allreduce starts
// from first = 1. got, when non-nil, runs after each completed receive
// with the received block's index (the reduce-scatter's combine).
func (m *Rank) ring(p *sim.Proc, ranks []int, me, first, tag int, send, recv blockView, got func(blk int)) {
	n := len(ranks)
	right, left := ranks[(me+1)%n], ranks[(me-1+n)%n]
	for s := 0; s < n-1; s++ {
		sblk := (me + first - s + n) % n
		rblk := (sblk - 1 + n) % n
		sbuf, sdt, scount := send(sblk)
		rbuf, rdt, rcount := recv(rblk)
		if m.sendRecv(p, tag+s, sbuf, sdt, scount, right, rbuf, rdt, rcount, left) && got != nil {
			got(rblk)
		}
	}
}

// bcastBinomial broadcasts (buf, dt, count) from ranks[root] to every
// other member over a binomial tree rotated so the root is virtual
// rank 0: receive from the parent (the virtual rank with its lowest set
// bit cleared), then forward to the children in decreasing mask order.
// One tag serves the whole tree (every hop is a distinct rank pair).
// Every member must call it.
func (m *Rank) bcastBinomial(p *sim.Proc, ranks []int, me, root, tag int, buf mem.Buffer, dt *datatype.Datatype, count int) {
	size := len(ranks)
	if size <= 1 {
		return
	}
	vrank := (me - root + size) % size
	mask := 1
	for mask < size {
		if vrank&mask != 0 {
			m.recvOn(p, buf, dt, count, ranks[((vrank-mask)+root)%size], tag)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vrank+mask < size && vrank&(mask-1) == 0 && vrank&mask == 0 {
			m.sendOn(p, buf, dt, count, ranks[(vrank+mask+root)%size], tag)
		}
		mask >>= 1
	}
}

// tokenDT is the 8-byte barrier token.
var tokenDT = datatype.Contiguous(1, datatype.Int64)

// barrierRounds is ceil(log2(size)), the dissemination round count.
func barrierRounds(size int) int {
	n := 0
	for k := 1; k < size; k <<= 1 {
		n++
	}
	return n
}

// dissemination is the dissemination barrier over ranks: round k sends
// a token to the member 2^k ahead and receives one from the member 2^k
// behind, on tag+k; after barrierRounds rounds every member has
// transitively heard from every other.
func (m *Rank) dissemination(p *sim.Proc, ranks []int, me, tag int) {
	size := len(ranks)
	if size == 1 {
		return
	}
	tok := m.scratch(8)
	in := m.scratch(8)
	for s, k := 0, 1; k < size; s, k = s+1, k<<1 {
		m.sendRecv(p, tag+s,
			tok.Slice(0, 8), tokenDT, 1, ranks[(me+k)%size],
			in.Slice(0, 8), tokenDT, 1, ranks[(me-k+size)%size])
	}
	m.freeScratch(in)
	m.freeScratch(tok)
}
