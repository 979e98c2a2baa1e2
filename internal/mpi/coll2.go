package mpi

import (
	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// Gather collects each rank's (sendBuf, sdt, scount) into rank root's
// recvBuf, where slot r starts at r*rcount*extent(rdt): the linear
// Gatherv schedule with uniform blocks. Non-root ranks pass an invalid
// recvBuf.
func (m *Rank) Gather(sendBuf mem.Buffer, sdt *datatype.Datatype, scount int,
	recvBuf mem.Buffer, rdt *datatype.Datatype, rcount, root int) {
	m.gatherv(m.p, m.tagBlock(m.gatherTags()), sendBuf, sdt, scount, slots(recvBuf, rdt, rcount), root)
}

// Scatter distributes slot r of root's sendBuf (r*scount*extent(sdt))
// to rank r's recvBuf: the linear Scatterv schedule with uniform blocks.
func (m *Rank) Scatter(sendBuf mem.Buffer, sdt *datatype.Datatype, scount int,
	recvBuf mem.Buffer, rdt *datatype.Datatype, rcount, root int) {
	m.scatterv(m.p, m.tagBlock(m.gatherTags()), slots(sendBuf, sdt, scount), recvBuf, rdt, rcount, root)
}

// Alltoall exchanges slot j of every rank's sendBuf with slot i of rank
// j's recvBuf (the building block of distributed transposes and FFTs).
// Topology-aware worlds aggregate each node's traffic at its leader and
// exchange one large message per node pair over the IB tier instead of
// ranks-squared small ones; otherwise the flat pairwise exchange runs
// (see PairwisePeers).
func (m *Rank) Alltoall(sendBuf mem.Buffer, sdt *datatype.Datatype, scount int,
	recvBuf mem.Buffer, rdt *datatype.Datatype, rcount int) {
	m.alltoall(m.p, m.tagBlock(m.alltoallTags()), sendBuf, sdt, scount, recvBuf, rdt, rcount)
}

func (m *Rank) alltoall(p *sim.Proc, tag int, sendBuf mem.Buffer, sdt *datatype.Datatype, scount int,
	recvBuf mem.Buffer, rdt *datatype.Datatype, rcount int) {
	if m.hierOn() && scount > 0 && int64(scount)*sdt.Size() == int64(rcount)*rdt.Size() {
		m.hierAlltoall(p, tag, sendBuf, sdt, scount, recvBuf, rdt, rcount)
		return
	}
	send, recv := slots(sendBuf, sdt, scount), slots(recvBuf, rdt, rcount)
	m.copyBlock(p, send, recv, m.rank)
	m.pairwise(p, m.w.ids, m.rank, tag, send, recv)
}

// localCopy moves (src, sdt, scount) into (dst, rdt, rcount) within the
// rank, through packed form: GPU layouts use the datatype engine (pack
// to a device scratch, unpack from it); host layouts use the CPU
// converter.
func (m *Rank) localCopy(p *sim.Proc, src mem.Buffer, sdt *datatype.Datatype, scount int,
	dst mem.Buffer, rdt *datatype.Datatype, rcount int) {
	packed := int64(scount) * sdt.Size()
	if capacity := int64(rcount) * rdt.Size(); packed > capacity {
		panic("mpi: local copy truncation")
	}
	if packed == 0 {
		return
	}
	// Contiguous-to-contiguous short cut.
	sw, sok := contigWindow(src, sdt, scount)
	dw, dok := contigWindow(dst, rdt, rcount)
	if sok && dok {
		m.mustRetry(p, "local.copy", func() error {
			return m.ctx.Memcpy(p, dw.Slice(0, packed), sw.Slice(0, packed))
		})
		return
	}
	var stage mem.Buffer
	if src.Kind() == mem.Device || dst.Kind() == mem.Device {
		// Stage in device memory on the rank's GPU.
		stage = m.ringBuf(m.ctx.Node().GPU(m.place.GPU).Mem(), packed)
	} else {
		stage = m.scratch(packed)
	}
	window := stage.Slice(0, packed)
	if src.Kind() == mem.Device {
		m.engineFor(src).Pack(p, src, sdt, scount, window)
	} else if window.Kind() == mem.Device {
		// Host source into device stage: copy then treat as packed.
		hs := m.scratch(packed)
		m.CPUPack(p, src, sdt, scount, hs.Slice(0, packed))
		m.mustRetry(p, "local.copy", func() error {
			return m.ctx.Memcpy(p, window, hs.Slice(0, packed))
		})
		m.freeScratch(hs)
	} else {
		m.CPUPack(p, src, sdt, scount, window)
	}
	if dst.Kind() == mem.Device {
		m.engineFor(dst).Unpack(p, dst, rdt, rcount, window)
	} else if window.Kind() == mem.Device {
		hs := m.scratch(packed)
		m.mustRetry(p, "local.copy", func() error {
			return m.ctx.Memcpy(p, hs.Slice(0, packed), window)
		})
		m.CPUUnpack(p, dst, rdt, rcount, hs.Slice(0, packed))
		m.freeScratch(hs)
	} else {
		m.CPUUnpack(p, dst, rdt, rcount, window)
	}
	if stage.Kind() == mem.Device {
		m.releaseRing(stage)
	} else {
		m.freeScratch(stage)
	}
}
