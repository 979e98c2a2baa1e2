package mpi

import (
	"fmt"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// Group is an ordered subset of the world's ranks with its own
// collective operations — the communicator-like handle the application
// workload layer (internal/workload) schedules jobs on. Two co-scheduled
// jobs on one cluster each get a Group over their own ranks, so a job's
// barriers and allreduces never synchronize (or cross-match) with the
// other job's: every group operation is built from point-to-point
// messages between group members only, tagged out of a per-group tag
// block.
//
// Group algorithms are deliberately *always* the group-local ones, even
// when the group spans the whole world — a job measured alone and the
// same job measured against a co-scheduled neighbour must run the exact
// same schedule, so the difference between the two runs is pure fabric
// contention (the per-job slowdown the interference studies report),
// never an algorithm switch.
type Group struct {
	w     *World
	id    int
	ranks []int // global ranks, group order
	local []int // global rank -> local index, -1 for non-members
	seq   []int64
}

// Group tag blocks sit above the world-collective tag space
// (collTagBase + collSeq): each group owns groupTagSpan tags starting at
// groupTagBase + id*groupTagSpan, and members advance the group's
// sequence identically per operation, exactly like collSeq.
const (
	groupTagBase = 1 << 24
	groupTagSpan = 1 << 20
)

// AllreduceAlg selects the group allreduce schedule.
type AllreduceAlg int

// Allreduce algorithms: the bandwidth-optimal ring
// (reduce-scatter + allgather, the schedule ML frameworks use for large
// fused gradient buckets) and the latency-optimal binomial tree
// (reduce to the group root + broadcast).
const (
	AllreduceRing AllreduceAlg = iota
	AllreduceTree
)

func (a AllreduceAlg) String() string {
	if a == AllreduceRing {
		return "ring"
	}
	return "tree"
}

// NewGroup builds a group over the given global ranks (in group order).
// Ranks must be in range and distinct. Call before Run, once per job,
// and share the handle across the group's ranks.
func (w *World) NewGroup(ranks []int) *Group {
	if len(ranks) == 0 {
		panic("mpi: empty group")
	}
	g := &Group{
		w:     w,
		id:    w.groupSeq,
		ranks: append([]int(nil), ranks...),
		local: make([]int, len(w.ranks)),
		seq:   make([]int64, len(ranks)),
	}
	w.groupSeq++
	for i := range g.local {
		g.local[i] = -1
	}
	for lr, r := range ranks {
		if r < 0 || r >= len(w.ranks) {
			panic(fmt.Sprintf("mpi: group rank %d out of range", r))
		}
		if g.local[r] >= 0 {
			panic(fmt.Sprintf("mpi: duplicate group rank %d", r))
		}
		g.local[r] = lr
	}
	return g
}

// Size returns the number of group members.
func (g *Group) Size() int { return len(g.ranks) }

// Ranks returns the group's global ranks in group order.
func (g *Group) Ranks() []int { return append([]int(nil), g.ranks...) }

// Contains reports whether global rank r is a member.
func (g *Group) Contains(r int) bool { return r >= 0 && r < len(g.local) && g.local[r] >= 0 }

// LocalRank returns m's index within the group; m must be a member.
func (g *Group) LocalRank(m *Rank) int {
	lr := g.local[m.rank]
	if lr < 0 {
		panic(fmt.Sprintf("mpi: rank %d is not in the group", m.rank))
	}
	return lr
}

// tagBlock reserves n consecutive tags from the group's block. Every
// member must reserve the same budget per operation (budgets depend only
// on group and world size), mirroring the world collSeq discipline.
func (g *Group) tagBlock(lr, n int) int {
	t := groupTagBase + g.id*groupTagSpan + int(g.seq[lr])
	g.seq[lr] += int64(n)
	if g.seq[lr] > groupTagSpan {
		panic("mpi: group tag space exhausted")
	}
	return t
}

// Barrier blocks until every group member has entered it
// (dissemination algorithm over point-to-point token messages; only
// group traffic, so two jobs' barriers are fully independent).
func (g *Group) Barrier(m *Rank) {
	lr := g.LocalRank(m)
	tag := g.tagBlock(lr, barrierRounds(len(g.ranks)))
	m.dissemination(m.p, g.ranks, lr, tag)
}

// Allreduce combines count elements of dt (a contiguous single-primitive
// layout, as for Reduce) from every member's sendBuf into every member's
// recvBuf. The ring algorithm is reduce-scatter + allgather around the
// group ring; the tree algorithm is a binomial reduce to the group root
// followed by a binomial broadcast. Both run entirely on group-member
// point-to-point traffic.
func (g *Group) Allreduce(m *Rank, sendBuf, recvBuf mem.Buffer, dt *datatype.Datatype, count int, op Op, alg AllreduceAlg) {
	prim := reducePrim(dt)
	lr := g.LocalRank(m)
	p := m.p
	switch alg {
	case AllreduceRing:
		tag := g.tagBlock(lr, 2*len(g.ranks))
		g.allreduceRing(m, p, tag, lr, sendBuf, recvBuf, dt, count, prim, op)
	case AllreduceTree:
		tag := g.tagBlock(lr, m.Size()+1)
		g.allreduceTree(m, p, tag, lr, sendBuf, recvBuf, dt, count, prim, op)
	default:
		panic("mpi: unknown allreduce algorithm")
	}
}

// allreduceTree: binomial reduce into the group root's recvBuf, then
// binomial broadcast of the result. Every member accumulates in its own
// recvBuf (valid everywhere for an allreduce), so no extra staging is
// needed beyond binomialReduce's internal receive buffer.
func (g *Group) allreduceTree(m *Rank, p *sim.Proc, tag, lr int, sendBuf, recvBuf mem.Buffer, dt *datatype.Datatype, count int, prim datatype.Primitive, op Op) {
	n := int64(count) * dt.Size()
	acc := recvBuf.Slice(0, n)
	m.localCopy(p, sendBuf, dt, count, acc, dt, count)
	m.binomialReduce(p, g.ranks, lr, 0, tag, acc, dt, count, prim, op)
	m.bcastBinomial(p, g.ranks, lr, 0, tag+m.Size(), recvBuf.Slice(0, n), dt, count)
}

// chunkOff returns the byte offset of ring chunk c when n bytes of
// 8-byte words are split into size near-equal chunks.
func chunkOff(n int64, size, c int) int64 {
	words := n / 8
	return (words * int64(c) / int64(size)) * 8
}

// allreduceRing: reduce-scatter around the ring (after size-1 steps,
// member lr owns the fully combined chunk (lr+1) mod size), then an
// allgather ring redistributes the combined chunks. Chunk boundaries
// are 8-byte aligned; empty chunks (count < group size) are elided
// symmetrically on both sides.
func (g *Group) allreduceRing(m *Rank, p *sim.Proc, tag, lr int, sendBuf, recvBuf mem.Buffer, dt *datatype.Datatype, count int, prim datatype.Primitive, op Op) {
	size := len(g.ranks)
	n := int64(count) * dt.Size()
	m.localCopy(p, sendBuf, dt, count, recvBuf.Slice(0, n), dt, count)
	if size == 1 || n == 0 {
		return
	}
	base := datatype.Float64
	if prim == datatype.PrimInt64 {
		base = datatype.Int64
	}
	chunk := func(c int) (mem.Buffer, *datatype.Datatype, int) {
		lo, hi := chunkOff(n, size, c), chunkOff(n, size, c+1)
		return recvBuf.Slice(lo, hi-lo), base, int((hi - lo) / 8)
	}

	// Receive staging for the combine phase, in the accumulator's
	// location class.
	maxChunk := int64(0)
	for c := 0; c < size; c++ {
		if w := chunkOff(n, size, c+1) - chunkOff(n, size, c); w > maxChunk {
			maxChunk = w
		}
	}
	var tmp mem.Buffer
	if maxChunk > 0 {
		if recvBuf.Kind() == mem.Device {
			tmp = m.ringBuf(recvBuf.Space(), maxChunk)
		} else {
			tmp = m.scratch(maxChunk)
		}
	}
	staged := func(c int) (mem.Buffer, *datatype.Datatype, int) {
		_, cdt, k := chunk(c)
		return tmp.Slice(0, int64(k)*8), cdt, k
	}
	combine := func(c int) {
		acc, _, k := chunk(c)
		m.combine(p, acc, tmp.Slice(0, int64(k)*8), prim, op)
	}

	// Reduce-scatter, then the allgather of the combined chunks: after
	// the first ring member lr owns chunk lr+1, where the second starts.
	m.ring(p, g.ranks, lr, 0, tag, chunk, staged, combine)
	m.ring(p, g.ranks, lr, 1, tag+size-1, chunk, chunk, nil)

	if tmp.IsValid() {
		if tmp.Kind() == mem.Device {
			m.releaseRing(tmp)
		} else {
			m.freeScratch(tmp)
		}
	}
}

// Alltoallv exchanges scounts[j] elements of sdt (at sdispls[j], in
// extent units) with every group member j, receiving rcounts[i] at
// rdispls[i] from member i — the group-scoped counterpart of the world
// Alltoallv, indices in group order. Zero-count pairs move no bytes and
// post no messages; the count matrices are part of the collective's
// signature as in the world variant.
func (g *Group) Alltoallv(m *Rank, sendBuf mem.Buffer, scounts, sdispls []int, sdt *datatype.Datatype,
	recvBuf mem.Buffer, rcounts, rdispls []int, rdt *datatype.Datatype) {
	size := len(g.ranks)
	checkVArgs("group Alltoallv", size, scounts, sdispls)
	checkVArgs("group Alltoallv", size, rcounts, rdispls)
	lr := g.LocalRank(m)
	tag := g.tagBlock(lr, 1)
	send, recv := vblocks(sendBuf, sdt, scounts, sdispls), vblocks(recvBuf, rdt, rcounts, rdispls)
	m.copyBlock(m.p, send, recv, lr)
	m.pairwise(m.p, g.ranks, lr, tag, send, recv)
}

// SendRecvLocal exchanges (count, dt) messages with two group members
// given by their local indices, drawing the tag from the group block so
// neighbouring phases never cross-match.
func (g *Group) SendRecvLocal(m *Rank, sendBuf mem.Buffer, sdt *datatype.Datatype, scount, destLocal int,
	recvBuf mem.Buffer, rdt *datatype.Datatype, rcount, srcLocal int) {
	lr := g.LocalRank(m)
	tag := g.tagBlock(lr, 1)
	m.sendRecv(m.p, tag, sendBuf, sdt, scount, g.ranks[destLocal], recvBuf, rdt, rcount, g.ranks[srcLocal])
}
