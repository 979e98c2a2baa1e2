// Package shmem is an OpenSHMEM-style PGAS layer over the simulated
// cluster, demonstrating the paper's claim that the GPU datatype
// engine's ideas "can be easily ported ... to different programming
// paradigms (OpenSHMEM ...)" (§1).
//
// Every processing element (PE) owns a symmetric heap carved out of its
// GPU memory: allocations made collectively get identical offsets on
// every PE, so a SymBuffer is a valid remote address everywhere. Put and
// Get move contiguous data; IPut and IGet move strided/indexed layouts
// described by MPI datatypes, packed and scattered by the GPU datatype
// engine through the same pipelined one-sided machinery as mpi.Win.
package shmem

import (
	"fmt"

	"gpuddt/internal/cluster"
	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/mpi"
)

// Config sizes the job.
type Config struct {
	// Spec is the machine: one PE per rank of the spec's blocked
	// placement, on its hardware and tuning.
	Spec cluster.Spec
	// HeapBytes is the symmetric heap size per PE (default 256 MiB).
	HeapBytes int64
	// HeapOnHost places the symmetric heap in host memory instead of
	// the PE's GPU.
	HeapOnHost bool
}

// PE is one processing element.
type PE struct {
	m    *mpi.Rank
	win  *mpi.Win
	heap mem.Buffer
	brk  int64
	reqs []*mpi.Request // non-blocking ops outstanding until Quiet
}

// SymBuffer is a symmetric heap address: the same offset is valid on
// every PE.
type SymBuffer struct {
	Off int64
	Len int64
}

// Run builds the cluster and executes fn once per PE.
func Run(cfg Config, fn func(pe *PE)) {
	if cfg.HeapBytes == 0 {
		cfg.HeapBytes = 256 << 20
	}
	w := mpi.NewWorld(cfg.Spec.Config())
	w.Run(func(m *mpi.Rank) {
		var heap mem.Buffer
		if cfg.HeapOnHost {
			heap = m.MallocHost(cfg.HeapBytes)
		} else {
			heap = m.Malloc(cfg.HeapBytes)
		}
		pe := &PE{m: m, heap: heap}
		pe.win = m.WinCreate(heap)
		fn(pe)
	})
}

// Rank returns the PE number (shmem_my_pe).
func (pe *PE) Rank() int { return pe.m.Rank() }

// NPEs returns the number of PEs (shmem_n_pes).
func (pe *PE) NPEs() int { return pe.m.Size() }

// Underlying returns the mpi.Rank for interoperability.
func (pe *PE) Underlying() *mpi.Rank { return pe.m }

// Malloc carves n bytes out of the symmetric heap (shmem_malloc). It is
// collective: every PE must call it in the same order, and the returned
// offset is identical on all PEs.
func (pe *PE) Malloc(n int64) SymBuffer {
	off := (pe.brk + 255) &^ 255
	if off+n > pe.heap.Len() {
		panic(fmt.Sprintf("shmem: symmetric heap exhausted: want %d at %d of %d", n, off, pe.heap.Len()))
	}
	pe.brk = off + n
	pe.m.Barrier() // collective allocation discipline
	return SymBuffer{Off: off, Len: n}
}

// Local returns the calling PE's memory for a symmetric buffer.
func (pe *PE) Local(sb SymBuffer) mem.Buffer {
	return pe.heap.Slice(sb.Off, sb.Len)
}

// contig returns the byte datatype covering n bytes.
func contig(n int64) *datatype.Datatype {
	return datatype.Contiguous(int(n), datatype.Byte)
}

// Put copies the local bytes of src into PE target's instance of dst
// (shmem_putmem), blocking until remotely complete.
func (pe *PE) Put(dst SymBuffer, src mem.Buffer, target int) {
	if src.Len() != dst.Len {
		panic("shmem: Put length mismatch")
	}
	dt := contig(src.Len())
	pe.win.Put(src, dt, 1, target, dst.Off, dt, 1).Wait(pe.m.Proc())
}

// Get copies PE target's instance of src into local dst (shmem_getmem).
func (pe *PE) Get(dst mem.Buffer, src SymBuffer, target int) {
	if dst.Len() != src.Len {
		panic("shmem: Get length mismatch")
	}
	dt := contig(src.Len)
	pe.win.Get(dst, dt, 1, target, src.Off, dt, 1).Wait(pe.m.Proc())
}

// IPut transfers a strided/indexed layout: count elements of sdt read
// from the local buffer src land in PE target's symmetric region dst
// with layout (ddt, dcount) — the generalization of shmem_iput to
// arbitrary MPI datatypes, powered by the GPU datatype engine.
func (pe *PE) IPut(dst SymBuffer, ddt *datatype.Datatype, dcount int,
	src mem.Buffer, sdt *datatype.Datatype, scount, target int) {
	pe.win.Put(src, sdt, scount, target, dst.Off, ddt, dcount).Wait(pe.m.Proc())
}

// IGet is the inverse of IPut.
func (pe *PE) IGet(dst mem.Buffer, ddt *datatype.Datatype, dcount int,
	src SymBuffer, sdt *datatype.Datatype, scount, target int) {
	pe.win.Get(dst, ddt, dcount, target, src.Off, sdt, scount).Wait(pe.m.Proc())
}

// PutNBI starts a non-blocking put (shmem_putmem_nbi); completion is
// guaranteed only after Quiet.
func (pe *PE) PutNBI(dst SymBuffer, src mem.Buffer, target int) {
	dt := contig(src.Len())
	pe.reqs = append(pe.reqs, pe.win.Put(src, dt, 1, target, dst.Off, dt, 1))
}

// Quiet completes all outstanding non-blocking operations issued by
// this PE (shmem_quiet).
func (pe *PE) Quiet() {
	for _, r := range pe.reqs {
		r.Wait(pe.m.Proc())
	}
	pe.reqs = pe.reqs[:0]
}

// BarrierAll synchronizes every PE and completes outstanding ops
// (shmem_barrier_all).
func (pe *PE) BarrierAll() {
	pe.Quiet()
	pe.m.Barrier()
}
