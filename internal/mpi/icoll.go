package mpi

import (
	"fmt"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// Nonblocking collectives. Each I* call reserves its tag block
// synchronously — so every rank advances collSeq identically no matter
// how calls, kernels and waits interleave — and then hands the same
// schedule the blocking call would run to a per-collective progress
// process. The returned Request completes when the schedule finishes;
// the caller's process is free to launch kernels or further collectives
// in the meantime, which is exactly the overlap the paper's pipelined
// engine exists to serve.
//
// The progress engine advances a collective at channel granularity: the
// schedule process blocks in the next channel operation (send, receive,
// staging copy) and the simulator's cooperative scheduler interleaves
// it with the rank's main process between those operations. Fragments
// are not the progress unit — fragment pipelining belongs to the
// point-to-point strategies underneath (DESIGN decision 13).

// startColl spawns the schedule on a dedicated progress process and
// returns the request that completes when it finishes. The process is
// non-daemon, so an un-waited collective still runs to completion
// before the simulation ends.
func (m *Rank) startColl(name string, bytes int64, schedule func(p *sim.Proc)) *Request {
	req := &Request{done: m.w.eng.NewFuture()}
	m.collOut++
	m.icollSeq++
	m.w.eng.Spawn(fmt.Sprintf("rank%d.icoll.%s.%d", m.rank, name, m.icollSeq), func(p *sim.Proc) {
		h := p.BeginBytes("coll.async."+name, bytes)
		schedule(p)
		h.End()
		p.Count("mpi.icoll", 1)
		m.collOut--
		req.done.Complete(nil)
	})
	return req
}

// CollOutstanding reports nonblocking collectives started but not yet
// completed. Zero after a quiescent point (every request waited on).
func (m *Rank) CollOutstanding() int { return m.collOut }

// cloneInts snapshots a count/displacement vector at call time, so the
// caller may reuse its slices immediately after an I* call returns.
func cloneInts(v []int) []int {
	if v == nil {
		return nil
	}
	return append([]int(nil), v...)
}

// Ibcast is the nonblocking Bcast.
func (m *Rank) Ibcast(buf mem.Buffer, dt *datatype.Datatype, count, root int) *Request {
	tag := m.tagBlock(m.bcastTags())
	return m.startColl("bcast", int64(count)*dt.Size(), func(p *sim.Proc) {
		m.bcast(p, tag, buf, dt, count, root)
	})
}

// Ireduce is the nonblocking Reduce.
func (m *Rank) Ireduce(sendBuf, recvBuf mem.Buffer, dt *datatype.Datatype, count int, op Op, root int) *Request {
	tag := m.tagBlock(m.reduceTags())
	return m.startColl("reduce", int64(count)*dt.Size(), func(p *sim.Proc) {
		m.reduce(p, tag, sendBuf, recvBuf, dt, count, op, root)
	})
}

// Iallreduce is the nonblocking Allreduce.
func (m *Rank) Iallreduce(sendBuf, recvBuf mem.Buffer, dt *datatype.Datatype, count int, op Op) *Request {
	tagR := m.tagBlock(m.reduceTags())
	tagB := m.tagBlock(m.bcastTags())
	return m.startColl("allreduce", int64(count)*dt.Size(), func(p *sim.Proc) {
		m.allreduce(p, tagR, tagB, sendBuf, recvBuf, dt, count, op)
	})
}

// Iallgather is the nonblocking Allgather.
func (m *Rank) Iallgather(buf mem.Buffer, dt *datatype.Datatype, count int) *Request {
	tag := m.tagBlock(m.allgatherTags())
	return m.startColl("allgather", int64(m.Size())*int64(count)*dt.Size(), func(p *sim.Proc) {
		m.allgather(p, tag, buf, dt, count)
	})
}

// Iallgatherv is the nonblocking Allgatherv.
func (m *Rank) Iallgatherv(buf mem.Buffer, counts, displs []int, dt *datatype.Datatype) *Request {
	checkVArgs("Iallgatherv", m.Size(), counts, displs)
	tag := m.tagBlock(m.allgatherTags())
	counts, displs = cloneInts(counts), cloneInts(displs)
	var total int64
	for _, c := range counts {
		total += int64(c) * dt.Size()
	}
	return m.startColl("allgatherv", total, func(p *sim.Proc) {
		m.allgatherv(p, tag, buf, counts, displs, dt)
	})
}

// Ialltoall is the nonblocking Alltoall.
func (m *Rank) Ialltoall(sendBuf mem.Buffer, sdt *datatype.Datatype, scount int,
	recvBuf mem.Buffer, rdt *datatype.Datatype, rcount int) *Request {
	tag := m.tagBlock(m.alltoallTags())
	return m.startColl("alltoall", int64(m.Size())*int64(scount)*sdt.Size(), func(p *sim.Proc) {
		m.alltoall(p, tag, sendBuf, sdt, scount, recvBuf, rdt, rcount)
	})
}

// Ialltoallv is the nonblocking Alltoallv.
func (m *Rank) Ialltoallv(sendBuf mem.Buffer, scounts, sdispls []int, sdt *datatype.Datatype,
	recvBuf mem.Buffer, rcounts, rdispls []int, rdt *datatype.Datatype) *Request {
	checkVArgs("Ialltoallv", m.Size(), scounts, sdispls)
	checkVArgs("Ialltoallv", m.Size(), rcounts, rdispls)
	tag := m.tagBlock(m.alltoallvTags())
	scounts, sdispls = cloneInts(scounts), cloneInts(sdispls)
	rcounts, rdispls = cloneInts(rcounts), cloneInts(rdispls)
	var total int64
	for _, c := range scounts {
		total += int64(c) * sdt.Size()
	}
	return m.startColl("alltoallv", total, func(p *sim.Proc) {
		m.alltoallv(p, tag, sendBuf, scounts, sdispls, sdt, recvBuf, rcounts, rdispls, rdt)
	})
}

// Ibarrier is the nonblocking Barrier: the dissemination schedule
// Group.Barrier runs, over the world's ranks and reserved collective
// tags (the blocking Barrier's mailbox rendezvous cannot overlap with
// itself, reserved tags can).
func (m *Rank) Ibarrier() *Request {
	tag := m.tagBlock(m.barrierTags())
	return m.startColl("barrier", 0, func(p *sim.Proc) {
		m.dissemination(p, m.w.ids, m.rank, tag)
	})
}
