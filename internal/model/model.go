// Package model is the modelled-payload mode of the scale sweep: a
// flyweight re-implementation of the scale collectives (flat and
// hierarchical alltoall/allgather) on the sharded discrete-event
// engine, sized for 16k+ ranks.
//
// Where an mpi.World gives every rank a goroutine, device buffers and
// the full protocol stack, a model world gives every rank a few dozen
// bytes of state machine and replaces payload bytes with
// mpi.SyntheticPayload generators: a message carries (kind, from,
// round, bytes, signature) and nothing else. Correctness is still
// checked end to end —
//
//   - every expected inbound block is marked exactly once in a
//     per-sampled-rank cover bitset (duplicates and omissions panic);
//   - messages addressed to sampled ranks carry a 64-bit content
//     signature computed by the sender from its own payload generator,
//     and the receiver independently recomputes and compares it;
//   - the final Result.Digest is the sha256 of the sampled ranks'
//     reconstructed packed receive images, byte-comparable with the
//     digest a real mpi.World produces for the same collective when
//     its buffers are filled with the same SyntheticPayload seeds.
//
// Timing uses the same first-order cost model everywhere: a per-message
// posting overhead plus a pack/unpack charge on each side, then link
// serialization on the shared resources the message crosses (node NIC
// tx/rx, the leaf uplink/downlink chosen by (srcNode+dstNode) % spines,
// or the intra-node bus). Ranks are partitioned across engine shards by
// fat-tree leaf, and the leaf-to-spine hop provides the conservative
// lookahead, so virtual times are byte-identical for any shard count.
package model

import (
	"crypto/sha256"
	"fmt"
	"unsafe"

	"gpuddt/internal/cluster"
	"gpuddt/internal/datatype"
	"gpuddt/internal/ib"
	"gpuddt/internal/mpi"
	"gpuddt/internal/pcie"
	"gpuddt/internal/sim"
)

// Seed bases shared with the real-payload arm (internal/bench fills
// real buffers from the same bases, which is what makes the two
// digests comparable).
const (
	SeedAllgather = 2000 // + contributing rank
	SeedAlltoall  = 3000 // + sending rank (whole send buffer)
)

// Calibration constants of the first-order cost model. The protocol
// constants (eager limit, AM latency) mirror the mpi defaults; the
// pack constants approximate a GPU pack kernel (launch overhead plus
// streaming rate) rather than re-simulating the pipeline.
const (
	modelEager     = 64 << 10             // mpi Tuning.Eager default
	modelAMLatency = 500 * sim.Nanosecond // intra-node active-message hop
	packLaunch     = 5 * sim.Microsecond  // per-message pack/unpack kernel launch
	packGBps       = 60.0                 // pack/unpack streaming rate
	busGBpsDefault = 10.0                 // intra-node bus (PCIe root complex)
	chaosRetryBase = 25 * sim.Microsecond // first retry backoff
	chaosMaxRetry  = 6
)

// Options configures one modelled collective.
type Options struct {
	// Spec is the cluster shape; it must carry a fat-tree topology
	// (cluster.Scale does).
	Spec cluster.Spec

	// Coll is "alltoall" or "allgather".
	Coll string

	// Flat selects the flat single-level schedule instead of the
	// hierarchical leader-based one.
	Flat bool

	// Shards is the requested engine shard count (clamped to the number
	// of fat-tree leaves; 0 = 1).
	Shards int

	// Dt and Count describe one rank's per-peer contribution.
	Dt    *datatype.Datatype
	Count int

	// SampleRanks bounds how many ranks get full content verification
	// (cover bitsets, message signatures, digest contribution). 0 or
	// >= world size means every rank.
	SampleRanks int

	// ChaosRate injects deterministic pseudo-random send retries with
	// this probability per attempt (0 disables). Retries perturb
	// timing, never content — the digest must be unchanged.
	ChaosRate float64
	ChaosSeed uint64

	// RecordSpans emits one per-rank completion span on the engine's
	// lock-free span log (off by default: 16k spans are cheap, but the
	// byte-identity gate compares Results, not logs).
	RecordSpans bool
}

// Result is the outcome of a modelled collective.
type Result struct {
	// Time is the virtual completion time (max over ranks).
	Time sim.Time

	// Digest is the sha256 over the sampled ranks' packed receive
	// images, ascending rank order. With SampleRanks=0 it equals the
	// digest of a real-payload run of the same collective.
	Digest [32]byte

	// Sampled lists the verified ranks.
	Sampled []int

	// Shards is the effective shard count used.
	Shards int

	// Lookahead is the conservative window width used.
	Lookahead sim.Time

	// Messages, Events, Faults, SigChecks count modelled messages,
	// dispatched engine events, injected chaos retries, and verified
	// message signatures.
	Messages  int64
	Events    int64
	Faults    int64
	SigChecks int64

	// StateBytes is the deterministic structural memory of the world:
	// rank state machines, per-resource clocks, cover bitsets and the
	// peak event heap. This is the flyweight counterpart of a real
	// world's FootprintBytes.
	StateBytes int64

	// HeapPeak is the largest single-shard pending-event count.
	HeapPeak int

	// Spans is the merged span log (only when RecordSpans).
	Spans []sim.ShardSpan
}

// MemPerRank returns StateBytes divided by the world size.
func (r Result) MemPerRank(p int) int64 {
	if p <= 0 {
		return 0
	}
	return r.StateBytes / int64(p)
}

// world is the flyweight simulation state. Everything indexed by rank,
// node or link is owned by the shard that owns the corresponding
// actor's leaf, so handlers touch it without locks.
type world struct {
	o     Options
	se    *sim.ShardedEngine
	ranks []rankSM

	p, nodes, rpn int
	radix, spines int
	leaves, eff   int
	b             int64 // packed bytes of one per-peer block
	dt            *datatype.Datatype
	count         int

	// calibration
	wire, upBw, busBw float64
	lat, hopLat       sim.Time
	overhead          sim.Time

	// per-rank clocks (owned by the rank's shard)
	cpu      []sim.Time
	lastSend []sim.Time
	doneAt   []sim.Time
	msgSeq   []uint32

	// per-resource next-free times. nodeTx/nodeRx/bus are owned by the
	// node's shard; up[leaf*spines+s] by the source leaf's shard;
	// down[leaf*spines+s] by the destination leaf's shard.
	nodeTx, nodeRx, bus []sim.Time
	up, down            []sim.Time

	// verification state
	sampled    []bool
	sampleList []int
	cover      [][]uint64 // nil for unsampled ranks
	covered    []int32
	colSig     []uint64 // hier-alltoall column signatures, lazily cached
	fullSigAG  uint64   // hier-allgather full-buffer signature

	// per-shard statistics (owner-written, merged after Run)
	shardMsgs   []int64
	shardFaults []int64
	shardSigs   []int64
}

// Run executes one modelled collective and returns its Result. It
// panics on any correctness violation (signature mismatch, duplicate
// or missing block, cross-shard lookahead violation) — those are model
// bugs, not runtime conditions — and returns an error only for
// unusable Options.
func Run(o Options) (Result, error) {
	w, err := build(o)
	if err != nil {
		return Result{}, err
	}
	w.se.Run()
	return w.finalize()
}

func build(o Options) (*world, error) {
	if o.Coll != "alltoall" && o.Coll != "allgather" {
		return nil, fmt.Errorf("model: unknown collective %q", o.Coll)
	}
	if o.Dt == nil {
		return nil, fmt.Errorf("model: Options.Dt is required")
	}
	if o.Count <= 0 {
		return nil, fmt.Errorf("model: Options.Count must be positive")
	}
	spec := o.Spec
	nodes := spec.Nodes
	if nodes == 0 {
		nodes = 1
	}
	gpn := spec.GPUsPerNode
	if gpn == 0 {
		gpn = 1
	}
	rpn := spec.RanksPerNode
	if rpn == 0 {
		rpn = gpn
	}
	ibp := spec.IB
	def := ib.DefaultParams()
	if ibp.WireGBps <= 0 {
		ibp.WireGBps = def.WireGBps
	}
	if ibp.Latency <= 0 {
		ibp.Latency = def.Latency
	}
	if ibp.PerMsgOverhead <= 0 {
		ibp.PerMsgOverhead = def.PerMsgOverhead
	}
	topo := ibp.Topo
	if !topo.Hierarchical() {
		return nil, fmt.Errorf("model: spec %v has no fat-tree topology (use cluster.Scale)", spec)
	}
	if topo.Spines <= 0 {
		topo.Spines = topo.LeafRadix
	}
	if topo.UplinkGBps <= 0 {
		topo.UplinkGBps = ibp.WireGBps
	}
	if topo.HopLatency <= 0 {
		topo.HopLatency = ibp.Latency / 2
	}
	busBw := spec.PCIe.RootGBps
	if busBw <= 0 {
		busBw = pcie.DefaultParams().RootGBps
		if busBw <= 0 {
			busBw = busGBpsDefault
		}
	}
	w := &world{
		o:      o,
		p:      nodes * rpn,
		nodes:  nodes,
		rpn:    rpn,
		radix:  topo.LeafRadix,
		spines: topo.Spines,
		dt:     o.Dt,
		count:  o.Count,
		b:      int64(o.Count) * o.Dt.Size(),

		wire:     ibp.WireGBps,
		upBw:     topo.UplinkGBps,
		busBw:    busBw,
		lat:      ibp.Latency,
		hopLat:   topo.HopLatency,
		overhead: ibp.PerMsgOverhead,
	}
	if w.upBw > w.wire {
		w.upBw = w.wire
	}
	w.leaves = (nodes + w.radix - 1) / w.radix
	w.eff = o.Shards
	if w.eff == 0 {
		w.eff = spec.Shards // a cluster.ScaleModelled spec carries the shard count
	}
	if w.eff < 1 {
		w.eff = 1
	}
	if w.eff > w.leaves {
		w.eff = w.leaves
	}
	lookahead := w.lat/2 + w.hopLat

	w.cpu = make([]sim.Time, w.p)
	w.lastSend = make([]sim.Time, w.p)
	w.doneAt = make([]sim.Time, w.p)
	w.msgSeq = make([]uint32, w.p)
	w.nodeTx = make([]sim.Time, nodes)
	w.nodeRx = make([]sim.Time, nodes)
	w.bus = make([]sim.Time, nodes)
	w.up = make([]sim.Time, w.leaves*w.spines)
	w.down = make([]sim.Time, w.leaves*w.spines)
	w.sampled = make([]bool, w.p)
	w.cover = make([][]uint64, w.p)
	w.covered = make([]int32, w.p)
	w.shardMsgs = make([]int64, w.eff)
	w.shardFaults = make([]int64, w.eff)
	w.shardSigs = make([]int64, w.eff)

	n := o.SampleRanks
	if n <= 0 || n >= w.p {
		n = w.p
	}
	words := (w.p + 63) / 64
	for i := 0; i < n; i++ {
		// Evenly spread samples so every leaf and both leader/member
		// roles appear in the verified set.
		r := i * w.p / n
		if w.sampled[r] {
			continue
		}
		w.sampled[r] = true
		w.sampleList = append(w.sampleList, r)
		w.cover[r] = make([]uint64, words)
	}

	if o.Coll == "alltoall" && !o.Flat {
		w.colSig = make([]uint64, w.p)
	}
	if o.Coll == "allgather" && !o.Flat && len(w.sampleList) > 0 && rpn > 1 {
		var s mpi.Sig64
		for g := 0; g < w.p; g++ {
			w.payAG(g).Sign(&s, 0, w.count)
		}
		w.fullSigAG = s.Sum64()
	}

	w.se = sim.NewShardedEngine(w.eff, lookahead)
	w.ranks = make([]rankSM, w.p)
	for r := 0; r < w.p; r++ {
		node := r / rpn
		a := &w.ranks[r]
		*a = rankSM{
			w:    w,
			r:    sim.ActorID(r),
			node: node,
			li:   r % rpn,
			lead: sim.ActorID(node * rpn),
		}
		id := w.se.AddActor(w.shardOfNode(node), a)
		if int(id) != r {
			panic("model: actor id drifted from rank")
		}
	}
	for r := 0; r < w.p; r++ {
		w.se.Post(0, sim.Event{To: sim.ActorID(r), Kind: kStart})
	}
	return w, nil
}

// shardOfNode maps a node's leaf to a shard block (leaf*eff/leaves),
// keeping whole leaves on one shard so only spine-crossing traffic is
// ever cross-shard.
func (w *world) shardOfNode(node int) int {
	return (node / w.radix) * w.eff / w.leaves
}

func (w *world) nodeOf(r sim.ActorID) int { return int(r) / w.rpn }

func (w *world) payA2A(r int) mpi.SyntheticPayload {
	return mpi.SyntheticPayload{Seed: SeedAlltoall + uint64(r), Dt: w.dt, Count: w.p * w.count}
}

func (w *world) payAG(r int) mpi.SyntheticPayload {
	return mpi.SyntheticPayload{Seed: SeedAllgather + uint64(r), Dt: w.dt, Count: w.count}
}

// packCost charges a pack or unpack of n bytes (kernel launch plus
// streaming).
func (w *world) packCost(n int64) sim.Time {
	return packLaunch + sim.TimeForBytes(n, packGBps)
}

// chaosDelay deterministically perturbs a send with retry backoff.
// The hash depends only on (seed, sender, per-sender message sequence,
// attempt) — simulation history, never shard scheduling — so chaos
// worlds stay byte-identical across shard counts.
func (w *world) chaosDelay(sc *sim.ShardCtx, from sim.ActorID) sim.Time {
	seq := w.msgSeq[from]
	w.msgSeq[from]++
	var d sim.Time
	for att := 0; att < chaosMaxRetry; att++ {
		h := mix64(w.o.ChaosSeed ^ uint64(from)<<32 ^ uint64(seq)<<8 ^ uint64(att))
		if float64(h>>11)/float64(1<<53) >= w.o.ChaosRate {
			break
		}
		d += chaosRetryBase << uint(att)
		w.shardFaults[sc.Shard()]++
	}
	return d
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// send models one point-to-point message: sender-side posting overhead
// and pack, optional chaos retries and rendezvous round trip, then
// serialization on the shared resources along the path. Delivery posts
// a single event to the receiving rank; spine-crossing messages post a
// relay event at the destination leaf first (arriving exactly one
// lookahead later, which is what licenses the cross-shard post).
func (w *world) send(sc *sim.ShardCtx, from, to sim.ActorID, kind, round int32, bytes int64) {
	now := sc.Now()
	st := w.cpu[from]
	if now > st {
		st = now
	}
	if ls := w.lastSend[from]; ls > st {
		st = ls
	}
	st += w.overhead + w.packCost(bytes)
	if w.o.ChaosRate > 0 {
		st += w.chaosDelay(sc, from)
	}
	var sig uint64
	if w.sampled[to] {
		sig = w.msgSig(kind, from, to, round)
	}
	w.shardMsgs[sc.Shard()]++
	ev := sim.Event{To: to, Kind: kind, From: from, Round: round, A: bytes, Sig: sig}
	sn, dn := w.nodeOf(from), w.nodeOf(to)

	if sn == dn {
		// Intra-node: active message over the shared bus.
		if bytes > modelEager {
			st += 2 * modelAMLatency // rendezvous handshake
		}
		bs := st
		if w.bus[sn] > bs {
			bs = w.bus[sn]
		}
		end := bs + sim.TimeForBytes(bytes, w.busBw)
		w.bus[sn] = end
		w.cpu[from] = st
		w.lastSend[from] = end
		sc.Post(end+modelAMLatency-now, ev)
		return
	}

	sl, dl := sn/w.radix, dn/w.radix
	if sl == dl {
		// Same leaf: one switch, source NIC tx and destination NIC rx.
		if bytes > modelEager {
			st += 2 * w.lat
		}
		ts := st
		if w.nodeTx[sn] > ts {
			ts = w.nodeTx[sn]
		}
		if w.nodeRx[dn] > ts {
			ts = w.nodeRx[dn]
		}
		end := ts + sim.TimeForBytes(bytes, w.wire)
		w.nodeTx[sn], w.nodeRx[dn] = end, end
		w.cpu[from] = st
		w.lastSend[from] = end
		sc.Post(end+w.lat-now, ev)
		return
	}

	// Spine-crossing: source NIC tx and the (leaf, spine) uplink are
	// owned here; the downlink and destination NIC are owned by the
	// destination leaf's shard and charged in the relay stage.
	if bytes > modelEager {
		st += 2 * (w.lat + 2*w.hopLat)
	}
	spine := (sn + dn) % w.spines
	ul := sl*w.spines + spine
	ts := st
	if w.nodeTx[sn] > ts {
		ts = w.nodeTx[sn]
	}
	if w.up[ul] > ts {
		ts = w.up[ul]
	}
	end := ts + sim.TimeForBytes(bytes, w.upBw)
	w.nodeTx[sn], w.up[ul] = end, end
	w.cpu[from] = st
	w.lastSend[from] = end
	ev.B = 1 // relay pending at the destination leaf
	sc.Post(end+w.lat/2+w.hopLat-now, ev)
}

// relay is the destination-leaf half of a spine-crossing message: it
// serializes on the downlink and destination NIC and re-posts the
// delivery locally.
func (w *world) relay(sc *sim.ShardCtx, ev sim.Event) {
	now := sc.Now()
	sn, dn := w.nodeOf(ev.From), w.nodeOf(ev.To)
	spine := (sn + dn) % w.spines
	dlink := (dn/w.radix)*w.spines + spine
	ts := now
	if w.down[dlink] > ts {
		ts = w.down[dlink]
	}
	if w.nodeRx[dn] > ts {
		ts = w.nodeRx[dn]
	}
	end := ts + sim.TimeForBytes(ev.A, w.upBw)
	w.down[dlink], w.nodeRx[dn] = end, end
	ev.B = 0
	sc.Post(end+w.hopLat+w.lat/2-now, ev)
}

// arrive charges the receive-side unpack and advances the rank's CPU
// clock.
func (w *world) arrive(sc *sim.ShardCtx, r sim.ActorID, bytes int64) {
	t := sc.Now()
	if w.cpu[r] > t {
		t = w.cpu[r]
	}
	w.cpu[r] = t + w.packCost(bytes)
}

// mark records that sampled rank r received the block contributed by
// global source src, panicking on duplicates.
func (w *world) mark(r sim.ActorID, src int) {
	bits := w.cover[r]
	if bits == nil {
		return
	}
	word, bit := src>>6, uint(src&63)
	if bits[word]&(1<<bit) != 0 {
		panic(fmt.Sprintf("model: rank %d received block %d twice", r, src))
	}
	bits[word] |= 1 << bit
	w.covered[r]++
}

// msgSig computes the content signature for a message. Sender and a
// sampled receiver evaluate the same pure function of (kind, from, to,
// round) against their own payload generators; a mismatch means the
// modelled schedule moved the wrong bytes.
func (w *world) msgSig(kind int32, from, to sim.ActorID, round int32) uint64 {
	switch kind {
	case kA2A:
		// Flat alltoall: sender's block for destination `to`.
		return w.payA2A(int(from)).PackedSig(int(to)*w.count, w.count)
	case kAG:
		// Flat allgather ring: the block originated by (from - round).
		origin := (int(from) - int(round)%w.p + w.p) % w.p
		return w.payAG(origin).PackedSig(0, w.count)
	case kA2AIn:
		// Hier alltoall gather: member's whole send buffer.
		return w.payA2A(int(from)).PackedSig(0, w.p*w.count)
	case kA2ANode:
		// Hier alltoall node pair: source node's blocks for every rank
		// on the destination node, member-major.
		sn, dn := w.nodeOf(from), w.nodeOf(to)
		var s mpi.Sig64
		for li := 0; li < w.rpn; li++ {
			w.payA2A(sn*w.rpn+li).Sign(&s, dn*w.rpn*w.count, w.rpn*w.count)
		}
		return s.Sum64()
	case kA2ACol:
		return w.colSigA2A(int(to))
	case kAGIn:
		// Hier allgather gather: member's contribution.
		return w.payAG(int(from)).PackedSig(0, w.count)
	case kAGSlab:
		// Hier allgather ring: the node slab originated by node
		// (fromNode - round), member-major.
		q := (w.nodeOf(from) - int(round)%w.nodes + w.nodes) % w.nodes
		var s mpi.Sig64
		for li := 0; li < w.rpn; li++ {
			w.payAG(q*w.rpn+li).Sign(&s, 0, w.count)
		}
		return s.Sum64()
	case kAGBcast:
		return w.fullSigAG
	}
	panic(fmt.Sprintf("model: msgSig of unknown kind %d", kind))
}

// colSigA2A returns (caching) the signature of hier-alltoall's phase-3
// column for destination rank dst: source-rank-major, every rank's
// block addressed to dst. Each cache entry is touched only by dst's
// own shard (the leader and its members share a node), so the lazy
// fill is race-free.
func (w *world) colSigA2A(dst int) uint64 {
	if s := w.colSig[dst]; s != 0 {
		return s
	}
	var s mpi.Sig64
	for g := 0; g < w.p; g++ {
		w.payA2A(g).Sign(&s, dst*w.count, w.count)
	}
	sig := s.Sum64()
	w.colSig[dst] = sig
	return sig
}

// verify recomputes an inbound message's signature at a sampled rank.
func (w *world) verify(sc *sim.ShardCtx, r sim.ActorID, ev sim.Event) {
	if !w.sampled[r] {
		return
	}
	if want := w.msgSig(ev.Kind, ev.From, r, ev.Round); want != ev.Sig {
		panic(fmt.Sprintf("model: signature mismatch on kind %d %d->%d round %d: sender %#x receiver %#x",
			ev.Kind, ev.From, r, ev.Round, ev.Sig, want))
	}
	w.shardSigs[sc.Shard()]++
}

func (w *world) finalize() (Result, error) {
	res := Result{
		Shards:    w.eff,
		Lookahead: w.se.Lookahead(),
		Events:    w.se.Events(),
		HeapPeak:  w.se.HeapPeak(),
		Sampled:   w.sampleList,
	}
	for i := 0; i < w.eff; i++ {
		res.Messages += w.shardMsgs[i]
		res.Faults += w.shardFaults[i]
		res.SigChecks += w.shardSigs[i]
	}
	for r := 0; r < w.p; r++ {
		if !w.ranks[r].done {
			return Result{}, fmt.Errorf("model: rank %d never completed (deadlocked schedule)", r)
		}
		if w.doneAt[r] > res.Time {
			res.Time = w.doneAt[r]
		}
	}
	for _, r := range w.sampleList {
		if int(w.covered[r]) != w.p {
			return Result{}, fmt.Errorf("model: rank %d image incomplete: %d of %d blocks", r, w.covered[r], w.p)
		}
	}
	h := sha256.New()
	for _, r := range w.sampleList {
		for g := 0; g < w.p; g++ {
			if w.o.Coll == "alltoall" {
				w.payA2A(g).WritePacked(h, r*w.count, w.count)
			} else {
				w.payAG(g).WritePacked(h, 0, w.count)
			}
		}
	}
	h.Sum(res.Digest[:0])
	res.StateBytes = w.footprint()
	if w.o.RecordSpans {
		res.Spans = w.se.Spans()
	}
	return res, nil
}

// footprint deterministically accounts the world's structural memory:
// the flyweight per-rank cost the 16k sweep reports.
func (w *world) footprint() int64 {
	const tsz = int64(unsafe.Sizeof(sim.Time(0)))
	n := int64(len(w.ranks)) * int64(unsafe.Sizeof(rankSM{}))
	n += int64(len(w.cpu)+len(w.lastSend)+len(w.doneAt)) * tsz
	n += int64(len(w.msgSeq)) * 4
	n += int64(len(w.nodeTx)+len(w.nodeRx)+len(w.bus)+len(w.up)+len(w.down)) * tsz
	n += int64(len(w.sampled)) + int64(len(w.covered))*4
	for _, c := range w.cover {
		n += int64(len(c)) * 8
	}
	n += int64(len(w.colSig)) * 8
	n += int64(w.se.HeapPeak()) * int64(unsafe.Sizeof(sim.Event{}))
	return n
}
