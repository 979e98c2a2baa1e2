package mpi

import (
	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// Topology-aware collectives. On a blocked multi-node layout (see
// detectHierarchy) each collective runs in phases: an intra-node phase
// over the shared-memory/PCIe channels, and an inter-node phase in
// which one leader per node (the node's first rank, or the collective
// root acting for its own node) carries the aggregated traffic over
// the IB tier. Each phase is one of the shared schedules of schedule.go
// run over a node's rank list (nodeGroup) or the leaders' (leaderGroup).
// The flat algorithms — the same schedules over the world's identity
// rank list — are the fallback for every other layout and produce
// byte-identical buffers; Tuning.Collectives = CollFlat forces them for
// differential testing.
//
// Tag discipline: every hierarchical phase draws its tags from the
// block the caller reserved with tagBlock, and every rank reserves the
// same amount at call time (the dispatch decision is a world-level
// property), so collective and point-to-point traffic can interleave
// freely — including several nonblocking collectives in flight at once.

// hierOn reports whether this world's collectives run the hierarchical
// algorithms.
func (m *Rank) hierOn() bool { return m.w.TopologyAware() }

// nodeGroup returns the ranks placed on the given node, in rank order
// (a window of the world's identity list; a rank's index in it is its
// rank mod rpn).
func (m *Rank) nodeGroup(node int) []int {
	rpn := m.w.hier.rpn
	return m.w.ids[node*rpn : (node+1)*rpn]
}

// actingLeader returns the rank speaking for node on the IB tier: the
// node's first rank, except on the root's node where the root itself
// leads (saving an intra-node forward of the root's data).
func (m *Rank) actingLeader(node, root int) int {
	if node == root/m.w.hier.rpn {
		return root
	}
	return node * m.w.hier.rpn
}

// leaderGroup returns every node's acting leader, in node order; a
// leader's index in it is its node. leaderGroup(0) is every node's
// first rank, the leader list of the rootless collectives.
func (m *Rank) leaderGroup(root int) []int {
	g := make([]int, m.w.hier.nodes)
	for nd := range g {
		g[nd] = m.actingLeader(nd, root)
	}
	return g
}

// hierBcast: binomial over the per-node leaders on the IB tier, then
// binomial within each node over shared memory.
func (m *Rank) hierBcast(p *sim.Proc, tag int, buf mem.Buffer, dt *datatype.Datatype, count, root int) {
	h := m.w.hier
	myNode := m.rank / h.rpn
	lead := m.actingLeader(myNode, root)
	if m.rank == lead {
		sp := p.BeginBytes("coll.bcast.inter", int64(count)*dt.Size())
		m.bcastBinomial(p, m.leaderGroup(root), myNode, root/h.rpn, tag, buf, dt, count)
		sp.End()
	}
	sp := p.BeginBytes("coll.bcast.intra", int64(count)*dt.Size())
	m.bcastBinomial(p, m.nodeGroup(myNode), m.rank%h.rpn, lead%h.rpn, tag+1, buf, dt, count)
	sp.End()
}

// hierAllgather: each node's slots are gathered to its leader in place,
// the leaders ring whole node slabs over the IB tier (one message per
// step carrying rpn slots, instead of the flat ring's size-1 slot-sized
// hops per rank), and each leader broadcasts the assembled buffer to
// its node. Slot r starts at r*count*extent, so a node's rpn
// consecutive slots — and the whole buffer — are themselves valid
// (dt, k*count) views, which keeps every wire hop inside the datatype
// engine.
func (m *Rank) hierAllgather(p *sim.Proc, tag int, buf mem.Buffer, dt *datatype.Datatype, count int) {
	size := m.Size()
	h := m.w.hier
	rpn, nnodes := h.rpn, h.nodes
	myNode := m.rank / rpn
	li := m.rank % rpn
	lead := myNode * rpn
	stride := int64(count) * dt.Extent()
	packed := int64(count) * dt.Size()

	tagIn := tag
	tagRing := tag + rpn
	tagOut := tag + rpn + nnodes

	slot := func(r int) mem.Buffer {
		return buf.Slice(int64(r)*stride, spanOf(dt, count))
	}

	// Phase 1: gather the node's slots at the leader, in place.
	sp := p.BeginBytes("coll.allgather.intra", packed)
	if li != 0 {
		m.sendOn(p, slot(m.rank), dt, count, lead, tagIn+li)
	} else {
		reqs := make([]*Request, 0, rpn-1)
		for i := 1; i < rpn; i++ {
			reqs = append(reqs, m.Irecv(slot(lead+i), dt, count, lead+i, tagIn+i))
		}
		for _, rq := range reqs {
			rq.Wait(p)
		}
	}
	sp.End()

	// Phase 2: leaders ring aggregated node slabs over the IB tier.
	if li == 0 && nnodes > 1 {
		sp := p.BeginBytes("coll.allgather.inter", packed*int64(rpn)*int64(nnodes-1))
		slab := slots(buf, dt, rpn*count)
		m.ring(p, m.leaderGroup(0), myNode, 0, tagRing, slab, slab, nil)
		sp.End()
	}

	// Phase 3: broadcast the assembled buffer within each node.
	sp = p.BeginBytes("coll.allgather.intra", packed*int64(size))
	m.bcastBinomial(p, m.nodeGroup(myNode), li, 0, tagOut, buf, dt, size*count)
	sp.End()
}

// hierAlltoall aggregates each node's outgoing traffic at its leader
// and exchanges one large message per node pair over the IB tier —
// nodes² wire messages instead of the flat algorithm's ranks² — at the
// cost of staging the node's traffic through leader host scratch.
//
// With P ranks, R ranks per node and B packed bytes per (src, dst)
// pair, the leader's send stage holds its members' packed send buffers
// back to back (member li at offset li*P*B); the block member li sends
// to global rank d*R+di sits at li*P*B + (d*R+di)*B, so the traffic
// bound for node d is an Hvector of R blocks of R*B bytes with stride
// P*B. The receive stage is source-major — src node s's block at
// s*R*R*B, inside it src member li at li*R*B, dest member di at di*B —
// so dest member di's column is an Hvector of P blocks of B bytes with
// stride R*B, which unpacks straight into (rdt, rcount*P) in rank
// order.
func (m *Rank) hierAlltoall(p *sim.Proc, tag int, sendBuf mem.Buffer, sdt *datatype.Datatype, scount int,
	recvBuf mem.Buffer, rdt *datatype.Datatype, rcount int) {
	size := m.Size()
	h := m.w.hier
	rpn, nnodes := h.rpn, h.nodes
	myNode := m.rank / rpn
	li := m.rank % rpn
	lead := myNode * rpn
	B := int64(scount) * sdt.Size()
	P := int64(size)

	tagIn := tag
	tagInter := tag + rpn
	tagOut := tag + rpn + 1

	if li != 0 {
		// Members hand their whole send buffer to the leader and receive
		// their column of the node's inbound traffic back; both transfers
		// ride the signature rule that any layout may be received as the
		// same number of packed bytes.
		sp := p.BeginBytes("coll.alltoall.intra", B*P)
		m.sendOn(p, sendBuf, sdt, scount*size, lead, tagIn+li)
		m.recvOn(p, recvBuf, rdt, rcount*size, lead, tagOut+li)
		sp.End()
		return
	}

	sendStage := m.scratch(int64(rpn) * P * B)
	recvStage := m.scratch(P * int64(rpn) * B)

	// Phase 1: collect the members' packed send buffers.
	sp := p.BeginBytes("coll.alltoall.intra", B*P*int64(rpn))
	reqs := make([]*Request, 0, rpn-1)
	for i := 1; i < rpn; i++ {
		reqs = append(reqs, m.Irecv(sendStage.Slice(int64(i)*P*B, P*B), datatype.Byte, int(P*B), lead+i, tagIn+i))
	}
	m.localCopy(p, sendBuf, sdt, scount*size, sendStage.Slice(0, P*B), datatype.Byte, int(P*B))
	for _, rq := range reqs {
		rq.Wait(p)
	}
	sp.End()

	// Phase 2: pairwise exchange of per-node aggregates, the own
	// node's block by local copy.
	nodeBlk := int64(rpn) * int64(rpn) * B
	sendTo := func(d int) (mem.Buffer, *datatype.Datatype, int) {
		base := int64(d) * int64(rpn) * B
		span := int64(rpn-1)*P*B + int64(rpn)*B
		return sendStage.Slice(base, span), datatype.Hvector(rpn, int(int64(rpn)*B), P*B, datatype.Byte), 1
	}
	inbound := func(s int) (mem.Buffer, *datatype.Datatype, int) {
		return recvStage.Slice(int64(s)*nodeBlk, nodeBlk), datatype.Byte, int(nodeBlk)
	}
	m.copyBlock(p, sendTo, inbound, myNode)
	if nnodes > 1 {
		sp := p.BeginBytes("coll.alltoall.inter", nodeBlk*int64(nnodes-1))
		m.pairwise(p, m.leaderGroup(0), myNode, tagInter, sendTo, inbound)
		sp.End()
	}

	// Phase 3: hand each member its column of the receive stage.
	colSpan := (P-1)*int64(rpn)*B + B
	col := func(di int) (mem.Buffer, *datatype.Datatype) {
		return recvStage.Slice(int64(di)*B, colSpan), datatype.Hvector(int(P), int(B), int64(rpn)*B, datatype.Byte)
	}
	sp = p.BeginBytes("coll.alltoall.intra", B*P*int64(rpn))
	for di := 1; di < rpn; di++ {
		src, hv := col(di)
		m.sendOn(p, src, hv, 1, lead+di, tagOut+di)
	}
	{
		src, hv := col(0)
		m.localCopy(p, src, hv, 1, recvBuf, rdt, rcount*size)
	}
	sp.End()

	m.freeScratch(recvStage)
	m.freeScratch(sendStage)
}

// hierReduce: binomial reduction to the leader within each node, then
// binomial over the acting leaders to the root. The combine association
// differs from the flat tree — exact for Int64 and OpMax; Float64 sums
// may round differently, as on any real topology-aware MPI.
func (m *Rank) hierReduce(p *sim.Proc, tag int, sendBuf, recvBuf mem.Buffer, dt *datatype.Datatype, count int, op Op, root int) {
	prim := reducePrim(dt)
	n := int64(count) * dt.Size()
	size := m.Size()
	h := m.w.hier
	myNode := m.rank / h.rpn
	lead := m.actingLeader(myNode, root)

	var acc mem.Buffer
	if m.rank == root {
		acc = recvBuf.Slice(0, n)
	} else if sendBuf.Kind() == mem.Device {
		acc = m.ringBuf(sendBuf.Space(), n).Slice(0, n)
	} else {
		acc = m.scratch(n).Slice(0, n)
	}
	m.localCopy(p, sendBuf, dt, count, acc, dt, count)

	sp := p.BeginBytes("coll.reduce.intra", n)
	m.binomialReduce(p, m.nodeGroup(myNode), m.rank%h.rpn, lead%h.rpn, tag, acc, dt, count, prim, op)
	sp.End()
	if m.rank == lead {
		sp := p.BeginBytes("coll.reduce.inter", n)
		m.binomialReduce(p, m.leaderGroup(root), myNode, root/h.rpn, tag+size, acc, dt, count, prim, op)
		sp.End()
	}
	if m.rank != root {
		m.releaseAccum(acc)
	}
}
