package mpi

import (
	"gpuddt/internal/datatype"
	"gpuddt/internal/ib"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// In-network (SHARP-style) Reduce/Allreduce: instead of a second
// binomial tree over the per-node leaders on the IB tier, each leader
// hands its node's partial to the fat-tree switches, whose ALUs fold
// the partials on the way up and multicast the result back down
// (ib.Fabric.SwitchReduce). Selected by Tuning.Collectives ==
// CollSwitch — normally written by the auto-tuner (internal/tune) only
// where the measured switch path beats hierReduce. The combine
// association (node partials folded in node order at the switch)
// differs from both the flat and the hierarchical tree, with the same
// caveat hierReduce documents: exact for Int64 and OpMax; Float64 sums
// may round differently.

// switchOn reports whether this world's Reduce/Allreduce run at the
// switches: requested by the tuning, a blocked multi-node layout, and a
// fabric that actually has switch ALUs (a spine tier). Everything else
// falls back to the CollAuto dispatch.
func (m *Rank) switchOn() bool {
	return m.w.tun.coll == CollSwitch &&
		m.w.hier.nodes > 1 &&
		m.w.fabric.Params().Topo.Hierarchical()
}

// switchReduce: binomial reduction to each node's acting leader over
// shared memory, one in-network fold across the leaders' switches, and
// — for Allreduce (allTag >= 0) — an intra-node broadcast of the
// multicast result. allTag < 0 gives Reduce semantics: only root keeps
// the result (the switch still multicasts to every leader; non-root
// leaders drop the bytes without unpacking).
func (m *Rank) switchReduce(p *sim.Proc, tag int, sendBuf, recvBuf mem.Buffer, dt *datatype.Datatype, count int, op Op, root, allTag int) {
	prim := reducePrim(dt)
	n := int64(count) * dt.Size()
	h := m.w.hier
	myNode := m.rank / h.rpn
	all := allTag >= 0
	lead := m.actingLeader(myNode, root)

	var acc mem.Buffer
	if all || m.rank == root {
		acc = recvBuf.Slice(0, n)
	} else if sendBuf.Kind() == mem.Device {
		acc = m.ringBuf(sendBuf.Space(), n).Slice(0, n)
	} else {
		acc = m.scratch(n).Slice(0, n)
	}
	m.localCopy(p, sendBuf, dt, count, acc, dt, count)

	g, li := m.nodeGroup(myNode), m.rank%h.rpn
	sp := p.BeginBytes("coll.reduce.intra", n)
	m.binomialReduce(p, g, li, lead%h.rpn, tag, acc, dt, count, prim, op)
	sp.End()

	if m.rank == lead {
		sp := p.BeginBytes("coll.reduce.sharp", n)
		host := m.scratch(n).Slice(0, n)
		m.packToHost(p, acc, dt, count, host)
		members := make([]*ib.HCA, h.nodes)
		for nd := range members {
			members[nd] = m.w.hcas[nd]
		}
		res := m.w.fabric.SwitchReduce(p, tag, members, myNode, host.Bytes(), func(a, b []byte) {
			combineBytes(a, b, prim, op)
		})
		if all || m.rank == root {
			copy(host.Bytes(), res)
			m.unpackFromHost(p, acc, dt, count, host)
		}
		m.freeScratch(host)
		sp.End()
	}
	if all {
		sp := p.BeginBytes("coll.bcast.intra", n)
		m.bcastBinomial(p, g, li, lead%h.rpn, allTag, acc, dt, count)
		sp.End()
	}
	if !all && m.rank != root {
		m.releaseAccum(acc)
	}
}
