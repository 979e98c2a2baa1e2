package mpi

import (
	"fmt"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// Irregular ("v") collectives: per-peer counts and displacements, the
// building blocks of sparse alltoalls (MoE dispatch), variable-block
// gathers and ragged halo exchanges. Displacements are in units of the
// datatype extent (the MPI convention): block r of a buffer is
// buf.Slice(displs[r]*extent, spanOf(dt, counts[r])). A zero count
// moves no bytes and posts no message; both sides of a zero pair agree
// because the count vectors are part of the collective's signature
// (sender j and receiver i must satisfy scounts_j[i]*size(sdt) ==
// rcounts_i[j]*size(rdt), exactly as in MPI).

func checkVArgs(what string, size int, counts, displs []int) {
	if len(counts) != size || len(displs) != size {
		panic(fmt.Sprintf("mpi: %s wants %d counts and displacements, got %d and %d",
			what, size, len(counts), len(displs)))
	}
	for _, c := range counts {
		if c < 0 {
			panic(fmt.Sprintf("mpi: %s negative count", what))
		}
	}
}

// vslot returns block r of an irregular buffer: counts[r] elements of
// dt starting displs[r] extents from the buffer origin.
func vslot(buf mem.Buffer, dt *datatype.Datatype, count, displ int) mem.Buffer {
	return buf.Slice(int64(displ)*dt.Extent(), spanOf(dt, count))
}

// Alltoallv exchanges scounts[j] elements of sdt (at sdispls[j]) with
// every rank j, receiving rcounts[i] elements of rdt (at rdispls[i])
// from every rank i. Topology-aware worlds aggregate the irregular
// node-pair traffic at per-node leaders (hvcoll.go); otherwise the flat
// pairwise exchange runs, skipping zero-count pairs entirely.
func (m *Rank) Alltoallv(sendBuf mem.Buffer, scounts, sdispls []int, sdt *datatype.Datatype,
	recvBuf mem.Buffer, rcounts, rdispls []int, rdt *datatype.Datatype) {
	checkVArgs("Alltoallv", m.Size(), scounts, sdispls)
	checkVArgs("Alltoallv", m.Size(), rcounts, rdispls)
	m.alltoallv(m.p, m.tagBlock(m.alltoallvTags()), sendBuf, scounts, sdispls, sdt, recvBuf, rcounts, rdispls, rdt)
}

func (m *Rank) alltoallv(p *sim.Proc, tag int, sendBuf mem.Buffer, scounts, sdispls []int, sdt *datatype.Datatype,
	recvBuf mem.Buffer, rcounts, rdispls []int, rdt *datatype.Datatype) {
	if m.hierOn() {
		m.hierAlltoallv(p, tag, sendBuf, scounts, sdispls, sdt, recvBuf, rcounts, rdispls, rdt)
		return
	}
	send, recv := vblocks(sendBuf, sdt, scounts, sdispls), vblocks(recvBuf, rdt, rcounts, rdispls)
	m.copyBlock(p, send, recv, m.rank)
	m.pairwise(p, m.w.ids, m.rank, tag, send, recv)
}

// Allgatherv gathers counts[r] elements of dt from every rank r (read
// from its own block of buf) into every rank's buf at displs[r]. The
// count and displacement vectors are global knowledge — every rank
// passes the same ones — so zero blocks are skipped symmetrically.
func (m *Rank) Allgatherv(buf mem.Buffer, counts, displs []int, dt *datatype.Datatype) {
	checkVArgs("Allgatherv", m.Size(), counts, displs)
	m.allgatherv(m.p, m.tagBlock(m.allgatherTags()), buf, counts, displs, dt)
}

func (m *Rank) allgatherv(p *sim.Proc, tag int, buf mem.Buffer, counts, displs []int, dt *datatype.Datatype) {
	if m.hierOn() {
		m.hierAllgatherv(p, tag, buf, counts, displs, dt)
		return
	}
	blk := vblocks(buf, dt, counts, displs)
	m.ring(p, m.w.ids, m.rank, 0, tag, blk, blk, nil)
}

// Gatherv collects each rank's (sendBuf, sdt, scount) into root's
// recvBuf at rdispls[r]. Only the root reads rcounts/rdispls (MPI
// semantics — non-root ranks may pass nil), so the algorithm is the
// linear flat one on every topology: the root is the only rank that
// knows the irregular layout, which rules out leader staging.
func (m *Rank) Gatherv(sendBuf mem.Buffer, sdt *datatype.Datatype, scount int,
	recvBuf mem.Buffer, rcounts, rdispls []int, rdt *datatype.Datatype, root int) {
	tag := m.tagBlock(m.gatherTags())
	if m.rank == root {
		checkVArgs("Gatherv", m.Size(), rcounts, rdispls)
	}
	m.gatherv(m.p, tag, sendBuf, sdt, scount, vblocks(recvBuf, rdt, rcounts, rdispls), root)
}

// gatherv is the linear gather: every other rank sends its block to
// the root on tag + its rank; the root posts one receive per rank in
// rank order (its own block by local copy) and then waits for them in
// the same order. Empty blocks move nothing.
func (m *Rank) gatherv(p *sim.Proc, tag int, sendBuf mem.Buffer, sdt *datatype.Datatype, scount int,
	recv blockView, root int) {
	size := m.Size()
	if m.rank != root {
		if carries(sdt, scount) {
			m.sendOn(p, sendBuf, sdt, scount, root, tag+m.rank)
		}
		return
	}
	reqs := make([]*Request, 0, size-1)
	for r := 0; r < size; r++ {
		slot, rdt, rcount := recv(r)
		if !carries(rdt, rcount) {
			continue
		}
		if r == root {
			m.localCopy(p, sendBuf, sdt, scount, slot, rdt, rcount)
			continue
		}
		reqs = append(reqs, m.Irecv(slot, rdt, rcount, r, tag+r))
	}
	for _, rq := range reqs {
		rq.Wait(p)
	}
}

// Scatterv distributes scounts[r] elements of sdt from root's sendBuf
// at sdispls[r] to rank r's recvBuf. Only the root reads the vectors.
func (m *Rank) Scatterv(sendBuf mem.Buffer, scounts, sdispls []int, sdt *datatype.Datatype,
	recvBuf mem.Buffer, rdt *datatype.Datatype, rcount, root int) {
	tag := m.tagBlock(m.gatherTags())
	if m.rank == root {
		checkVArgs("Scatterv", m.Size(), scounts, sdispls)
	}
	m.scatterv(m.p, tag, vblocks(sendBuf, sdt, scounts, sdispls), recvBuf, rdt, rcount, root)
}

// scatterv is the linear scatter, the mirror of gatherv: the root posts
// one send per rank in rank order on tag + the destination rank (its
// own block by local copy) and then waits for them in order.
func (m *Rank) scatterv(p *sim.Proc, tag int, send blockView,
	recvBuf mem.Buffer, rdt *datatype.Datatype, rcount, root int) {
	size := m.Size()
	if m.rank != root {
		if carries(rdt, rcount) {
			m.recvOn(p, recvBuf, rdt, rcount, root, tag+m.rank)
		}
		return
	}
	reqs := make([]*Request, 0, size-1)
	for r := 0; r < size; r++ {
		slot, sdt, scount := send(r)
		if !carries(sdt, scount) {
			continue
		}
		if r == root {
			m.localCopy(p, slot, sdt, scount, recvBuf, rdt, rcount)
			continue
		}
		reqs = append(reqs, m.isendOn(p, slot, sdt, scount, r, tag+r))
	}
	for _, rq := range reqs {
		rq.Wait(p)
	}
}
