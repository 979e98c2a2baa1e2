package mpi

import (
	"encoding/binary"
	"fmt"
	"math"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// Op is a reduction operator.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpMax
)

// Reduce combines count primitives of dt from every rank's sendBuf into
// root's recvBuf. dt must be a contiguous layout of a single primitive
// type (Float64 or Int64). The combine runs as a memory-bound GPU
// kernel when the buffers live in device memory, and on the CPU
// (charging the host bus) otherwise. Topology-aware worlds reduce
// within each node first and then over one leader per node on the IB
// tier — note the different combine association order; exact for Int64
// and OpMax, and for Float64 values whose partial sums are exactly
// representable.
func (m *Rank) Reduce(sendBuf, recvBuf mem.Buffer, dt *datatype.Datatype, count int, op Op, root int) {
	m.reduce(m.p, m.tagBlock(m.reduceTags()), sendBuf, recvBuf, dt, count, op, root)
}

func (m *Rank) reduce(p *sim.Proc, tag int, sendBuf, recvBuf mem.Buffer, dt *datatype.Datatype, count int, op Op, root int) {
	if m.switchOn() && count > 0 {
		m.switchReduce(p, tag, sendBuf, recvBuf, dt, count, op, root, -1)
		return
	}
	if m.hierOn() && count > 0 {
		m.hierReduce(p, tag, sendBuf, recvBuf, dt, count, op, root)
		return
	}
	m.reduceFlat(p, tag, sendBuf, recvBuf, dt, count, op, root)
}

// reduceFlat is the topology-blind binomial reduction.
func (m *Rank) reduceFlat(p *sim.Proc, tag int, sendBuf, recvBuf mem.Buffer, dt *datatype.Datatype, count int, op Op, root int) {
	prim := reducePrim(dt)
	n := int64(count) * dt.Size()

	// Accumulator: root accumulates into recvBuf; interior nodes use a
	// scratch in the same location class as their send buffer.
	var acc mem.Buffer
	if m.rank == root {
		acc = recvBuf.Slice(0, n)
	} else if sendBuf.Kind() == mem.Device {
		acc = m.ringBuf(sendBuf.Space(), n).Slice(0, n)
	} else {
		acc = m.scratch(n).Slice(0, n)
	}
	m.localCopy(p, sendBuf, dt, count, acc, dt, count)
	m.binomialReduce(p, m.w.ids, m.rank, root, tag, acc, dt, count, prim, op)
	if m.rank != root {
		m.releaseAccum(acc)
	}
}

// binomialReduce combines every member's acc — already holding its
// contribution — into ranks[root]'s acc, over the binomial tree of
// bcastBinomial run in reverse (rotated so the root is virtual rank 0).
// me is the caller's index in ranks. Per-child messages are tagged
// tag + sender's global rank. Every member must call it.
func (m *Rank) binomialReduce(p *sim.Proc, ranks []int, me, root, tag int, acc mem.Buffer, dt *datatype.Datatype, count int, prim datatype.Primitive, op Op) {
	size := len(ranks)
	if size <= 1 {
		return
	}
	n := acc.Len()
	var tmp mem.Buffer
	vrank := (me - root + size) % size
	mask := 1
	for mask < size {
		if vrank&mask != 0 {
			parent := ranks[((vrank&^mask)+root)%size]
			m.sendOn(p, acc, dt, count, parent, tag+m.rank)
			break
		}
		if peer := vrank | mask; peer < size {
			child := ranks[(peer+root)%size]
			if !tmp.IsValid() {
				if acc.Kind() == mem.Device {
					tmp = m.ringBuf(acc.Space(), n).Slice(0, n)
				} else {
					tmp = m.scratch(n).Slice(0, n)
				}
			}
			m.recvOn(p, tmp, dt, count, child, tag+child)
			m.combine(p, acc, tmp, prim, op)
		}
		mask <<= 1
	}
	if tmp.IsValid() {
		m.releaseAccum(tmp)
	}
}

// Allreduce is Reduce to rank 0 followed by Bcast.
func (m *Rank) Allreduce(sendBuf, recvBuf mem.Buffer, dt *datatype.Datatype, count int, op Op) {
	tagR := m.tagBlock(m.reduceTags())
	tagB := m.tagBlock(m.bcastTags())
	m.allreduce(m.p, tagR, tagB, sendBuf, recvBuf, dt, count, op)
}

func (m *Rank) allreduce(p *sim.Proc, tagR, tagB int, sendBuf, recvBuf mem.Buffer, dt *datatype.Datatype, count int, op Op) {
	if m.switchOn() && count > 0 {
		// The switch multicasts the result to every node's leader on the
		// way down, so only the intra-node broadcast remains.
		m.switchReduce(p, tagR, sendBuf, recvBuf, dt, count, op, 0, tagB)
		return
	}
	m.reduce(p, tagR, sendBuf, recvBuf, dt, count, op, 0)
	m.bcast(p, tagB, recvBuf, dt, count, 0)
}

func (m *Rank) releaseAccum(b mem.Buffer) {
	if b.Kind() == mem.Device {
		m.releaseRing(b)
	} else {
		m.freeScratch(b)
	}
}

// reducePrim validates the datatype for reduction and returns its
// primitive kind.
func reducePrim(dt *datatype.Datatype) datatype.Primitive {
	if !dt.IsContiguous() {
		panic("mpi: Reduce requires a contiguous datatype")
	}
	sig := dt.Signature()
	if len(sig) != 1 {
		panic("mpi: Reduce requires a single primitive type")
	}
	switch sig[0].Prim {
	case datatype.PrimFloat64, datatype.PrimInt64:
		return sig[0].Prim
	default:
		panic(fmt.Sprintf("mpi: Reduce does not support %v", sig[0].Prim))
	}
}

// combine executes acc = acc (op) other, charging a memory-bound kernel
// on the GPU (2 reads + 1 write per element) or the host bus.
func (m *Rank) combine(p *sim.Proc, acc, other mem.Buffer, prim datatype.Primitive, op Op) {
	n := acc.Len()
	if acc.Kind() == mem.Device {
		dev := m.ctx.Node().GPU(m.ctx.Node().DeviceOf(acc.Space()))
		eng := m.engs[dev.ID()]
		dev.Compute(eng.Stream(), 3*n, 0).Await(p)
	} else {
		m.ctx.Node().HostBus().Transfer(p, 3*n)
	}
	combineBytes(acc.Bytes(), other.Bytes(), prim, op)
}

// combineBytes is the pure byte math of combine: a = a (op) b over
// packed little-endian primitives. Shared with the in-network switch
// reduction, which folds contributions without a Rank in sight.
func combineBytes(a, b []byte, prim datatype.Primitive, op Op) {
	n := int64(len(a))
	for off := int64(0); off+8 <= n; off += 8 {
		switch prim {
		case datatype.PrimFloat64:
			x := math.Float64frombits(binary.LittleEndian.Uint64(a[off:]))
			y := math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
			binary.LittleEndian.PutUint64(a[off:], math.Float64bits(apply(x, y, op)))
		case datatype.PrimInt64:
			x := int64(binary.LittleEndian.Uint64(a[off:]))
			y := int64(binary.LittleEndian.Uint64(b[off:]))
			r := x + y
			if op == OpMax && y <= x {
				r = x
			} else if op == OpMax {
				r = y
			}
			binary.LittleEndian.PutUint64(a[off:], uint64(r))
		}
	}
}

func apply(x, y float64, op Op) float64 {
	switch op {
	case OpSum:
		return x + y
	case OpMax:
		return math.Max(x, y)
	default:
		panic("mpi: unknown op")
	}
}
