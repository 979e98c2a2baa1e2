package mpi

import (
	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// Collectives built on the datatype-aware point-to-point layer. The
// paper's conclusion positions the GPU datatype engine as the substrate
// for "any point-to-point, collective, I/O and one-sided" operation;
// these collectives demonstrate that the engine composes: every hop
// packs/unpacks GPU-resident non-contiguous data through the same
// pipelined protocols.
//
// Every algorithm takes an explicit *sim.Proc and a pre-reserved tag
// block: the public blocking entry points pass the rank's main process,
// while the nonblocking I* variants (icoll.go) reserve tags at call
// time and run the same schedule on a spawned progress process.

// collTagBase keeps collective traffic out of the user's tag space.
const collTagBase = 1 << 20

// tagBlock reserves n consecutive collective tags and returns the
// first. Reservation happens at call time — before any nonblocking
// schedule is spawned — so concurrent collectives draw disjoint tag
// ranges and every rank advances collSeq identically. Budgets depend
// only on the world size, never on the data or topology path taken, so
// the reservation is symmetric across ranks by construction.
func (m *Rank) tagBlock(n int) int {
	t := collTagBase + m.collSeq
	m.collSeq += n
	return t
}

// Per-collective tag budgets (see tagBlock). Each is the worst case of
// the flat and hierarchical schedules for that operation.
func (m *Rank) bcastTags() int     { return 2 }
func (m *Rank) allgatherTags() int { return 2 * m.Size() }
func (m *Rank) alltoallTags() int  { return 2 * m.Size() }
func (m *Rank) gatherTags() int    { return m.Size() }
func (m *Rank) reduceTags() int    { return 2 * m.Size() }
func (m *Rank) barrierTags() int   { return m.Size() }
func (m *Rank) alltoallvTags() int { return 4 * m.Size() }

// Bcast broadcasts count elements of dt from root. Every rank's buf
// must describe the same signature. On a multi-node world with several
// ranks per node (blocked layout) the broadcast is hierarchical —
// binomial over one leader per node on the IB tier, then binomial
// within each node over the shared-memory tier; otherwise it is the
// flat binomial tree.
func (m *Rank) Bcast(buf mem.Buffer, dt *datatype.Datatype, count, root int) {
	m.bcast(m.p, m.tagBlock(m.bcastTags()), buf, dt, count, root)
}

func (m *Rank) bcast(p *sim.Proc, tag int, buf mem.Buffer, dt *datatype.Datatype, count, root int) {
	if m.hierOn() && count > 0 {
		m.hierBcast(p, tag, buf, dt, count, root)
		return
	}
	m.bcastBinomial(p, m.w.ids, m.rank, root, tag, buf, dt, count)
}

// Allgather gathers each rank's count elements of dt (read from its slot
// of buf) into every rank's buf: buf must hold Size() consecutive
// (dt, count) slots, each starting at rank*count*extent. GPU-resident
// non-contiguous slots are packed and unpacked by the datatype engine on
// every hop. Topology-aware worlds gather each node's slots to its
// leader first, ring the aggregated node slabs over the IB tier, and
// broadcast the result within each node; otherwise the flat ring runs.
func (m *Rank) Allgather(buf mem.Buffer, dt *datatype.Datatype, count int) {
	m.allgather(m.p, m.tagBlock(m.allgatherTags()), buf, dt, count)
}

func (m *Rank) allgather(p *sim.Proc, tag int, buf mem.Buffer, dt *datatype.Datatype, count int) {
	if m.hierOn() && count > 0 {
		m.hierAllgather(p, tag, buf, dt, count)
		return
	}
	blk := slots(buf, dt, count)
	m.ring(p, m.w.ids, m.rank, 0, tag, blk, blk, nil)
}

// spanOf is the memory footprint of (dt, count) from the origin.
func spanOf(dt *datatype.Datatype, count int) int64 {
	if count == 0 {
		return 0
	}
	return int64(count-1)*dt.Extent() + dt.TrueLB() + dt.TrueExtent()
}
