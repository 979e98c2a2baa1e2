package mpi

import (
	"fmt"

	"gpuddt/internal/core"
	"gpuddt/internal/cuda"
	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// Wildcards for Recv.
const (
	AnySource = -1
	AnyTag    = -1
)

// Rank is one MPI process. The function passed to World.Run receives its
// Rank and calls the communication API on it; all API methods must be
// invoked from that function's process.
type Rank struct {
	w     *World
	rank  int
	place Placement
	ctx   *cuda.Ctx
	engs  []*core.Engine
	p     *sim.Proc // the rank's main process (set by Run)

	inbox          *sim.Mailbox // active-message delivery queue
	chans          []*Channel   // per-peer outgoing channels
	seq            int64        // message sequence for diagnostics
	posted         []*postedRecv
	unexp          []*rtsMsg // unexpected arrivals awaiting a recv
	scratchPool    []mem.Buffer
	scratchPooled  int64 // bytes currently retained in scratchPool
	scratchPeak    int64 // high-water mark of retained bytes
	scratchLargest int64 // largest single scratch request seen
	scratchOut     int64 // scratch buffers handed out, not yet returned
	ringPool       map[*mem.Space][]mem.Buffer
	ringOut        int64 // ring buffers handed out, not yet returned

	collSeq    int
	winSeq     int
	barrierBox *sim.Mailbox

	collOut  int // nonblocking collectives in flight (see CollOutstanding)
	icollSeq int // nonblocking collectives started, for process names
}

func newRank(w *World, r int, pl Placement) *Rank {
	node := w.nodes[pl.Node]
	rk := &Rank{
		w:          w,
		rank:       r,
		place:      pl,
		ctx:        cuda.NewCtx(node),
		inbox:      w.eng.NewMailbox(fmt.Sprintf("rank%d.am", r)),
		barrierBox: w.eng.NewMailbox(fmt.Sprintf("rank%d.barrier", r)),
	}
	for g := 0; g < node.NumGPUs(); g++ {
		rk.engs = append(rk.engs, core.New(rk.ctx, g, w.cfg.Engine))
	}
	// Progress daemon: executes incoming active messages in order.
	w.eng.SpawnDaemon(fmt.Sprintf("rank%d.progress", r), func(p *sim.Proc) {
		for {
			am := rk.inbox.Get(p).(amsg)
			am.fn(p)
		}
	})
	return rk
}

// Rank returns the process's rank.
func (m *Rank) Rank() int { return m.rank }

// World returns the world this rank belongs to.
func (m *Rank) World() *World { return m.w }

// ScratchHost hands out a pooled host bounce buffer of at least n bytes
// (for alternative strategies' staging).
func (m *Rank) ScratchHost(n int64) mem.Buffer { return m.scratch(n) }

// FreeScratchHost returns a ScratchHost buffer to the pool.
func (m *Rank) FreeScratchHost(b mem.Buffer) { m.freeScratch(b) }

// ScratchStats reports the scratch pool's currently retained bytes and
// the high-water mark of retained bytes over the rank's lifetime.
func (m *Rank) ScratchStats() (pooled, peak int64) { return m.scratchPooled, m.scratchPeak }

// ScratchOutstanding reports scratch buffers handed out and not yet
// returned to the pool. After a quiescent point (all requests waited
// on) it must be zero — anything else is a leak, e.g. a protocol
// attempt abandoned on a fault without releasing its staging.
func (m *Rank) ScratchOutstanding() int64 { return m.scratchOut }

// RingOutstanding is ScratchOutstanding for the staging-ring pool.
func (m *Rank) RingOutstanding() int64 { return m.ringOut }

// CPUPack packs host-resident (buf, dt, count) into dst on the CPU,
// charging the host memory bus.
func (m *Rank) CPUPack(p *sim.Proc, buf mem.Buffer, dt *datatype.Datatype, count int, dst mem.Buffer) {
	c := datatype.NewConverter(dt, count)
	m.ctx.Node().HostBus().Transfer(p, 2*c.Total())
	c.Pack(dst.Bytes(), buf.Bytes())
}

// CPUUnpack is the inverse of CPUPack. src may hold fewer packed bytes
// than the full layout (a partial receive); the bus is charged for the
// bytes actually moved.
func (m *Rank) CPUUnpack(p *sim.Proc, buf mem.Buffer, dt *datatype.Datatype, count int, src mem.Buffer) {
	c := datatype.NewConverter(dt, count)
	n := src.Len()
	if t := c.Total(); n > t {
		n = t
	}
	m.ctx.Node().HostBus().Transfer(p, 2*n)
	c.Unpack(buf.Bytes(), src.Bytes())
}

// Size returns the world size.
func (m *Rank) Size() int { return len(m.w.ranks) }

// Proc returns the rank's main simulated process.
func (m *Rank) Proc() *sim.Proc { return m.p }

// Now returns the current virtual time.
func (m *Rank) Now() sim.Time { return m.p.Now() }

// Ctx returns the rank's CUDA context.
func (m *Rank) Ctx() *cuda.Ctx { return m.ctx }

// GPUEngine returns the GPU datatype engine for device dev on the
// rank's node.
func (m *Rank) GPUEngine(dev int) *core.Engine { return m.engs[dev] }

// Engine returns the datatype engine of the rank's default GPU.
func (m *Rank) Engine() *core.Engine { return m.engs[m.place.GPU] }

// Malloc allocates device memory on the rank's default GPU.
func (m *Rank) Malloc(n int64) mem.Buffer { return m.ctx.Malloc(m.place.GPU, n) }

// MallocHost allocates host memory on the rank's node.
func (m *Rank) MallocHost(n int64) mem.Buffer { return m.ctx.MallocHost(n) }

// channel returns (building lazily) the outgoing channel to peer.
func (m *Rank) channel(peer int) *Channel {
	for len(m.chans) < len(m.w.ranks) {
		m.chans = append(m.chans, nil)
	}
	if m.chans[peer] == nil {
		m.chans[peer] = newChannel(m.w, m, m.w.ranks[peer])
	}
	return m.chans[peer]
}

// Send performs a blocking standard-mode send of count elements of dt
// from buf (whose byte 0 is the datatype origin; device or host memory).
func (m *Rank) Send(buf mem.Buffer, dt *datatype.Datatype, count, dest, tag int) {
	m.Isend(buf, dt, count, dest, tag).Wait(m.p)
}

// Recv performs a blocking receive into buf.
func (m *Rank) Recv(buf mem.Buffer, dt *datatype.Datatype, count, source, tag int) {
	m.Irecv(buf, dt, count, source, tag).Wait(m.p)
}

// sendOn / recvOn are Send/Recv driven from an explicit process, for
// collective schedules that may run on a spawned progress process
// instead of the rank's main one.
func (m *Rank) sendOn(p *sim.Proc, buf mem.Buffer, dt *datatype.Datatype, count, dest, tag int) {
	m.isendOn(p, buf, dt, count, dest, tag).Wait(p)
}

func (m *Rank) recvOn(p *sim.Proc, buf mem.Buffer, dt *datatype.Datatype, count, source, tag int) {
	m.Irecv(buf, dt, count, source, tag).Wait(p)
}

// SendRecv exchanges messages with the two peers without deadlocking.
func (m *Rank) SendRecv(
	sendBuf mem.Buffer, sendType *datatype.Datatype, sendCount, dest, sendTag int,
	recvBuf mem.Buffer, recvType *datatype.Datatype, recvCount, source, recvTag int,
) {
	s := m.Isend(sendBuf, sendType, sendCount, dest, sendTag)
	r := m.Irecv(recvBuf, recvType, recvCount, source, recvTag)
	s.Wait(m.p)
	r.Wait(m.p)
}

// Barrier blocks until every rank has entered it (linear gather/release
// through rank 0; adequate for the benchmark harness).
func (m *Rank) Barrier() {
	if m.Size() == 1 {
		return
	}
	if m.rank == 0 {
		for i := 1; i < m.Size(); i++ {
			m.barrierBox.Get(m.p)
		}
		for i := 1; i < m.Size(); i++ {
			peer := m.w.ranks[i]
			m.channel(i).AM(m.p, amHeaderBytes, func(p *sim.Proc) {
				peer.barrierBox.Put(struct{}{})
			})
		}
	} else {
		root := m.w.ranks[0]
		m.channel(0).AM(m.p, amHeaderBytes, func(p *sim.Proc) {
			root.barrierBox.Put(struct{}{})
		})
		m.barrierBox.Get(m.p)
	}
}
