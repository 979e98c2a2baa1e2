package mpi

import (
	"encoding/binary"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// Hierarchical irregular collectives. The node-pair aggregation of
// hcoll.go extends to per-peer counts by staging packed wire-format
// bytes through leader host scratch: blocks are irregular, so the
// stage layout is driven by prefix sums of the packed block sizes
// instead of the fixed strides of the regular algorithms, and the
// node-pair messages become Hindexed views over the stage. Leader
// election and the coll.*.intra/inter span discipline are unchanged.

// hierAllgatherv: every rank knows the full count vector (the MPI
// signature), so no metadata has to move. The node's blocks are packed
// into the leader's wire-format stage (prefix-sum offsets, rank order),
// leaders ring whole node aggregates of that stage over the IB tier,
// each leader broadcasts the assembled stage within its node, and every
// rank unpacks the remote blocks into its own buffer at displs[r].
func (m *Rank) hierAllgatherv(p *sim.Proc, tag int, buf mem.Buffer, counts, displs []int, dt *datatype.Datatype) {
	size := m.Size()
	h := m.w.hier
	rpn, nnodes := h.rpn, h.nodes
	myNode := m.rank / rpn
	li := m.rank % rpn
	lead := myNode * rpn

	// Packed bytes and stage offset per rank block; node aggregates are
	// contiguous in the stage because ranks are blocked onto nodes.
	B := make([]int64, size)
	off := make([]int64, size)
	var total int64
	for r := 0; r < size; r++ {
		B[r] = int64(counts[r]) * dt.Size()
		off[r] = total
		total += B[r]
	}
	if total == 0 {
		return
	}
	nodeOff := make([]int64, nnodes)
	nodeBytes := make([]int64, nnodes)
	for nd := 0; nd < nnodes; nd++ {
		nodeOff[nd] = off[nd*rpn]
		for i := 0; i < rpn; i++ {
			nodeBytes[nd] += B[nd*rpn+i]
		}
	}

	tagIn := tag
	tagRing := tag + rpn
	tagOut := tagRing + nnodes

	slot := func(r int) mem.Buffer { return vslot(buf, dt, counts[r], displs[r]) }
	stage := m.scratch(total)
	blk := func(r int) mem.Buffer { return stage.Slice(off[r], B[r]) }

	// Phase 1: assemble the node's blocks, already packed, at the
	// leader. Members send (dt, count); the leader receives straight
	// into wire format under the equal-packed-bytes signature rule.
	sp := p.BeginBytes("coll.allgatherv.intra", nodeBytes[myNode])
	if li != 0 {
		if B[m.rank] > 0 {
			m.sendOn(p, slot(m.rank), dt, counts[m.rank], lead, tagIn+li)
		}
	} else {
		reqs := make([]*Request, 0, rpn-1)
		for i := 1; i < rpn; i++ {
			if B[lead+i] == 0 {
				continue
			}
			reqs = append(reqs, m.Irecv(blk(lead+i), datatype.Byte, int(B[lead+i]), lead+i, tagIn+i))
		}
		if B[m.rank] > 0 {
			m.localCopy(p, slot(m.rank), dt, counts[m.rank], blk(m.rank), datatype.Byte, int(B[m.rank]))
		}
		for _, rq := range reqs {
			rq.Wait(p)
		}
	}
	sp.End()

	// Phase 2: leaders ring whole node aggregates of the packed stage;
	// an all-zero node simply sits the step out on both sides.
	if li == 0 && nnodes > 1 {
		sp := p.BeginBytes("coll.allgatherv.inter", total-nodeBytes[myNode])
		slab := func(nd int) (mem.Buffer, *datatype.Datatype, int) {
			return stage.Slice(nodeOff[nd], nodeBytes[nd]), datatype.Byte, int(nodeBytes[nd])
		}
		m.ring(p, m.leaderGroup(0), myNode, 0, tagRing, slab, slab, nil)
		sp.End()
	}

	// Phase 3: broadcast the assembled wire-format stage within the
	// node; every rank unpacks the remote blocks into place (its own
	// block is already there).
	sp = p.BeginBytes("coll.allgatherv.intra", total)
	m.bcastBinomial(p, m.nodeGroup(myNode), li, 0, tagOut, stage.Slice(0, total), datatype.Byte, int(total))
	for r := 0; r < size; r++ {
		if r == m.rank || B[r] == 0 {
			continue
		}
		m.localCopy(p, blk(r), datatype.Byte, int(B[r]), slot(r), dt, counts[r])
	}
	sp.End()
	m.freeScratch(stage)
}

// hierAlltoallv aggregates irregular node-pair traffic at the leaders.
// Unlike Allgatherv, each rank only knows its own count vectors, so the
// schedule opens with a metadata phase: every member hands its per-peer
// send/recv byte vectors to the leader, which assembles the node's
// send-byte matrix SB[member][dest] and recv-byte matrix
// RB[member][src]. Members then pack their outgoing blocks into one
// wire-format stream each; the leader concatenates the streams, carves
// the per-destination-node message out of them as an Hindexed view (one
// run per member — a member's blocks for one node are consecutive in
// its stream), and exchanges node pairs over the IB tier. Inbound node
// blocks land source-major; each destination member's column is again
// an Hindexed view (one block per source rank), handed back as a single
// packed stream the member unpacks at its own displacements.
func (m *Rank) hierAlltoallv(p *sim.Proc, tag int, sendBuf mem.Buffer, scounts, sdispls []int, sdt *datatype.Datatype,
	recvBuf mem.Buffer, rcounts, rdispls []int, rdt *datatype.Datatype) {
	size := m.Size()
	h := m.w.hier
	rpn, nnodes := h.rpn, h.nodes
	myNode := m.rank / rpn
	li := m.rank % rpn
	lead := myNode * rpn

	// This rank's packed byte vectors and their prefix sums.
	sB := make([]int64, size)
	rB := make([]int64, size)
	sOff := make([]int64, size)
	rOff := make([]int64, size)
	var sTot, rTot int64
	for r := 0; r < size; r++ {
		sB[r] = int64(scounts[r]) * sdt.Size()
		rB[r] = int64(rcounts[r]) * rdt.Size()
		sOff[r] = sTot
		rOff[r] = rTot
		sTot += sB[r]
		rTot += rB[r]
	}

	tagMeta := tag
	tagIn := tag + rpn
	tagInter := tag + 2*rpn
	tagOut := tag + 2*rpn + 1

	sslot := func(d int) mem.Buffer { return vslot(sendBuf, sdt, scounts[d], sdispls[d]) }
	rslot := func(s int) mem.Buffer { return vslot(recvBuf, rdt, rcounts[s], rdispls[s]) }

	if li != 0 {
		sp := p.BeginBytes("coll.alltoallv.intra", sTot+rTot)
		// Metadata: 2*size little-endian int64s (send bytes, recv bytes).
		meta := m.scratch(16 * int64(size))
		mb := meta.Bytes()
		for r := 0; r < size; r++ {
			binary.LittleEndian.PutUint64(mb[8*r:], uint64(sB[r]))
			binary.LittleEndian.PutUint64(mb[8*(size+r):], uint64(rB[r]))
		}
		m.sendOn(p, meta.Slice(0, 16*int64(size)), datatype.Byte, 16*size, lead, tagMeta+li)
		m.freeScratch(meta)

		// Pack the outgoing blocks into one wire-format stream and hand
		// it to the leader.
		if sTot > 0 {
			pack := m.scratch(sTot)
			for d := 0; d < size; d++ {
				if sB[d] == 0 {
					continue
				}
				m.localCopy(p, sslot(d), sdt, scounts[d], pack.Slice(sOff[d], sB[d]), datatype.Byte, int(sB[d]))
			}
			m.sendOn(p, pack.Slice(0, sTot), datatype.Byte, int(sTot), lead, tagIn+li)
			m.freeScratch(pack)
		}
		sp.End()

		// Receive the inbound stream (source-rank order) and unpack it.
		if rTot > 0 {
			sp := p.BeginBytes("coll.alltoallv.intra", rTot)
			rstage := m.scratch(rTot)
			m.recvOn(p, rstage.Slice(0, rTot), datatype.Byte, int(rTot), lead, tagOut+li)
			for s := 0; s < size; s++ {
				if rB[s] == 0 {
					continue
				}
				m.localCopy(p, rstage.Slice(rOff[s], rB[s]), datatype.Byte, int(rB[s]), rslot(s), rdt, rcounts[s])
			}
			m.freeScratch(rstage)
			sp.End()
		}
		return
	}

	// Leader. Phase 0: collect the members' byte vectors.
	SB := make([][]int64, rpn) // SB[i][d]: bytes member i sends to rank d
	RB := make([][]int64, rpn) // RB[i][s]: bytes member i receives from rank s
	SB[0], RB[0] = sB, rB
	sp := p.BeginBytes("coll.alltoallv.intra", 0)
	if rpn > 1 {
		metaIn := m.scratch(16 * int64(size) * int64(rpn-1))
		reqs := make([]*Request, 0, rpn-1)
		for i := 1; i < rpn; i++ {
			reqs = append(reqs, m.Irecv(metaIn.Slice(int64(i-1)*16*int64(size), 16*int64(size)),
				datatype.Byte, 16*size, lead+i, tagMeta+i))
		}
		for _, rq := range reqs {
			rq.Wait(p)
		}
		for i := 1; i < rpn; i++ {
			mb := metaIn.Slice(int64(i-1)*16*int64(size), 16*int64(size)).Bytes()
			SB[i] = make([]int64, size)
			RB[i] = make([]int64, size)
			for r := 0; r < size; r++ {
				SB[i][r] = int64(binary.LittleEndian.Uint64(mb[8*r:]))
				RB[i][r] = int64(binary.LittleEndian.Uint64(mb[8*(size+r):]))
			}
		}
		m.freeScratch(metaIn)
	}

	// Stage geometry from the matrices. Send side: member i's stream at
	// memOff[i], inside it rank d's block at prefS[i][d]. Recv side:
	// source node S's aggregate at inNodeOff[S]; inside it source rank
	// s's row (its blocks for members 0..rpn-1, in member order) at
	// rowOff[s], block (s -> member di) at rowOff[s] + prefix of RB.
	prefS := make([][]int64, rpn)
	memOff := make([]int64, rpn+1)
	for i := 0; i < rpn; i++ {
		prefS[i] = make([]int64, size+1)
		for d := 0; d < size; d++ {
			prefS[i][d+1] = prefS[i][d] + SB[i][d]
		}
		memOff[i+1] = memOff[i] + prefS[i][size]
	}
	nodeSendTot := memOff[rpn]

	rowTot := make([]int64, size) // bytes rank s sends into this node
	for s := 0; s < size; s++ {
		for di := 0; di < rpn; di++ {
			rowTot[s] += RB[di][s]
		}
	}
	inNodeOff := make([]int64, nnodes+1)
	rowOff := make([]int64, size)
	for nd := 0; nd < nnodes; nd++ {
		cur := inNodeOff[nd]
		for i := 0; i < rpn; i++ {
			rowOff[nd*rpn+i] = cur
			cur += rowTot[nd*rpn+i]
		}
		inNodeOff[nd+1] = cur
	}
	nodeRecvTot := inNodeOff[nnodes]
	nodeIn := func(nd int) int64 { return inNodeOff[nd+1] - inNodeOff[nd] }
	// inOff returns the recv-stage offset of block (src rank s -> dest
	// member di).
	inOff := func(s, di int) int64 {
		o := rowOff[s]
		for d := 0; d < di; d++ {
			o += RB[d][s]
		}
		return o
	}

	var sendStage, recvStage mem.Buffer
	if nodeSendTot > 0 {
		sendStage = m.scratch(nodeSendTot)
	}
	if nodeRecvTot > 0 {
		recvStage = m.scratch(nodeRecvTot)
	}

	// Phase 1: concatenate the members' packed streams; the leader's own
	// blocks are packed locally.
	reqs := make([]*Request, 0, rpn-1)
	for i := 1; i < rpn; i++ {
		if n := memOff[i+1] - memOff[i]; n > 0 {
			reqs = append(reqs, m.Irecv(sendStage.Slice(memOff[i], n), datatype.Byte, int(n), lead+i, tagIn+i))
		}
	}
	for d := 0; d < size; d++ {
		if sB[d] == 0 {
			continue
		}
		m.localCopy(p, sslot(d), sdt, scounts[d], sendStage.Slice(prefS[0][d], sB[d]), datatype.Byte, int(sB[d]))
	}
	for _, rq := range reqs {
		rq.Wait(p)
	}
	sp.End()

	// outView carves the node-pair message for destination node nd out
	// of the send stage: one run per member (its consecutive blocks for
	// nd's ranks), zero runs elided. inView is source node nd's slot of
	// the receive stage.
	outView := func(nd int) (mem.Buffer, *datatype.Datatype, int) {
		var bls []int
		var displs []int64
		for i := 0; i < rpn; i++ {
			start := memOff[i] + prefS[i][nd*rpn]
			n := prefS[i][(nd+1)*rpn] - prefS[i][nd*rpn]
			if n == 0 {
				continue
			}
			bls = append(bls, int(n))
			displs = append(displs, start)
		}
		if len(bls) == 0 {
			return mem.Buffer{}, nil, 0
		}
		return sendStage, datatype.Hindexed(bls, displs, datatype.Byte), 1
	}
	inView := func(nd int) (mem.Buffer, *datatype.Datatype, int) {
		n := nodeIn(nd)
		if n == 0 {
			return mem.Buffer{}, datatype.Byte, 0
		}
		return recvStage.Slice(inNodeOff[nd], n), datatype.Byte, int(n)
	}

	// Phase 2: node-pair exchange. Own node first, then the pairwise
	// schedule over the IB tier; zero-byte node pairs are skipped on
	// both sides (the sender knows from SB, the receiver from RB).
	m.copyBlock(p, outView, inView, myNode)
	if nnodes > 1 {
		var interBytes int64
		for nd := 0; nd < nnodes; nd++ {
			if nd != myNode {
				interBytes += nodeIn(nd)
			}
		}
		sp := p.BeginBytes("coll.alltoallv.inter", interBytes)
		m.pairwise(p, m.leaderGroup(0), myNode, tagInter, outView, inView)
		sp.End()
	}

	// Phase 3: hand each member its column — one block per source rank,
	// in rank order, which is exactly the member's unpack order.
	sp = p.BeginBytes("coll.alltoallv.intra", nodeRecvTot)
	for di := 1; di < rpn; di++ {
		var bls []int
		var displs []int64
		var total int64
		for s := 0; s < size; s++ {
			if RB[di][s] == 0 {
				continue
			}
			bls = append(bls, int(RB[di][s]))
			displs = append(displs, inOff(s, di))
			total += RB[di][s]
		}
		if total == 0 {
			continue
		}
		m.sendOn(p, recvStage, datatype.Hindexed(bls, displs, datatype.Byte), 1, lead+di, tagOut+di)
	}
	// The leader's own column unpacks straight into recvBuf.
	for s := 0; s < size; s++ {
		if rB[s] == 0 {
			continue
		}
		m.localCopy(p, recvStage.Slice(inOff(s, 0), rB[s]), datatype.Byte, int(rB[s]), rslot(s), rdt, rcounts[s])
	}
	sp.End()

	if recvStage.IsValid() {
		m.freeScratch(recvStage)
	}
	if sendStage.IsValid() {
		m.freeScratch(sendStage)
	}
}
