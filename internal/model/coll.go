package model

import (
	"fmt"

	"gpuddt/internal/sim"
)

// Event kinds. kStart seeds every rank at t=0; everything else is a
// modelled message whose schedule role the receiver decodes from
// (Kind, From, Round).
const (
	kStart   int32 = iota + 1
	kA2A           // flat alltoall: pairwise round payload
	kAG            // flat allgather: ring hop payload
	kA2AIn         // hier alltoall: member's whole send buffer -> leader
	kA2ANode       // hier alltoall: leader<->leader node block
	kA2ACol        // hier alltoall: leader -> member result column
	kAGIn          // hier allgather: member contribution -> leader
	kAGSlab        // hier allgather: leader ring node slab
	kAGBcast       // hier allgather: assembled buffer down the node tree
)

// rankSM is one rank's flyweight state machine: the entire per-rank
// footprint of a modelled world (compare with a real rank's goroutine,
// stacks and device buffers). The schedules mirror internal/mpi —
// flat pairwise alltoall and ring allgather, and the hierarchical
// leader-based variants of hcoll.go — so the modelled message pattern
// is the one the real worlds execute.
type rankSM struct {
	w    *world
	r    sim.ActorID
	node int
	li   int         // index within the node (0 = leader)
	lead sim.ActorID // node leader's rank

	round int32
	gotIn int32
	pend  map[int32]struct{}
	done  bool
}

// HandleEvent dispatches relay stages and the collective's schedule.
func (a *rankSM) HandleEvent(sc *sim.ShardCtx, ev sim.Event) {
	if ev.B == 1 {
		a.w.relay(sc, ev)
		return
	}
	if a.w.o.Coll == "alltoall" {
		if a.w.o.Flat {
			a.a2aFlat(sc, ev)
		} else {
			a.a2aHier(sc, ev)
		}
		return
	}
	if a.w.o.Flat {
		a.agFlat(sc, ev)
	} else {
		a.agHier(sc, ev)
	}
}

// finish records the rank's completion time: the later of its CPU
// clock and its last injected send.
func (a *rankSM) finish(sc *sim.ShardCtx) {
	w := a.w
	d := w.cpu[a.r]
	if w.lastSend[a.r] > d {
		d = w.lastSend[a.r]
	}
	if t := sc.Now(); t > d {
		d = t
	}
	w.doneAt[a.r] = d
	a.done = true
	if w.o.RecordSpans {
		sc.Span("rank", w.o.Coll, 0, d, int64(w.p)*w.b)
	}
}

// pendSet/pendHas/pendClear track out-of-order round arrivals (the
// pairwise and ring schedules complete round s only after the round-s
// message arrives, but the network may deliver s+1 first).
func (a *rankSM) pendSet(s int32) {
	if a.pend == nil {
		a.pend = make(map[int32]struct{}, 4)
	}
	a.pend[s] = struct{}{}
}

func (a *rankSM) pendHas(s int32) bool {
	_, ok := a.pend[s]
	return ok
}

func (a *rankSM) pendClear(s int32) { delete(a.pend, s) }

// --- flat alltoall: pairwise exchange -------------------------------

func (a *rankSM) a2aFlat(sc *sim.ShardCtx, ev sim.Event) {
	w := a.w
	switch ev.Kind {
	case kStart:
		// Local copy of the self block, then round 1.
		w.mark(a.r, int(a.r))
		w.cpu[a.r] = sc.Now() + 2*w.packCost(w.b)
		if w.p == 1 {
			a.finish(sc)
			return
		}
		a.round = 1
		a.sendA2A(sc, 1)
	case kA2A:
		w.arrive(sc, a.r, ev.A)
		w.verify(sc, a.r, ev)
		w.mark(a.r, int(ev.From))
		a.pendSet(ev.Round)
		for a.pendHas(a.round) {
			a.pendClear(a.round)
			a.round++
			if int(a.round) < w.p {
				a.sendA2A(sc, a.round)
			} else {
				a.finish(sc)
			}
		}
	default:
		panic(fmt.Sprintf("model: flat alltoall rank %d got kind %d", a.r, ev.Kind))
	}
}

func (a *rankSM) sendA2A(sc *sim.ShardCtx, s int32) {
	w := a.w
	to, _ := pair(w.p, int(a.r), int(s))
	w.send(sc, a.r, sim.ActorID(to), kA2A, s, w.b)
}

// --- flat allgather: ring -------------------------------------------

func (a *rankSM) agFlat(sc *sim.ShardCtx, ev sim.Event) {
	w := a.w
	switch ev.Kind {
	case kStart:
		w.mark(a.r, int(a.r))
		if w.p == 1 {
			a.finish(sc)
			return
		}
		a.round = 0
		a.sendAG(sc, 0)
	case kAG:
		w.arrive(sc, a.r, ev.A)
		w.verify(sc, a.r, ev)
		origin := (int(ev.From) - int(ev.Round)%w.p + w.p) % w.p
		w.mark(a.r, origin)
		a.pendSet(ev.Round)
		for a.pendHas(a.round) {
			a.pendClear(a.round)
			a.round++
			if a.round <= int32safe(w.p-2) {
				a.sendAG(sc, a.round)
			} else {
				a.finish(sc)
			}
		}
	default:
		panic(fmt.Sprintf("model: flat allgather rank %d got kind %d", a.r, ev.Kind))
	}
}

func (a *rankSM) sendAG(sc *sim.ShardCtx, s int32) {
	w := a.w
	right := (int(a.r) + 1) % w.p
	w.send(sc, a.r, sim.ActorID(right), kAG, s, w.b)
}

// --- hierarchical alltoall: gather, leader pairwise, scatter --------

func (a *rankSM) a2aHier(sc *sim.ShardCtx, ev sim.Event) {
	w := a.w
	switch ev.Kind {
	case kStart:
		if a.li != 0 {
			// Member: ship the whole send buffer to the leader, then
			// wait for the result column.
			w.send(sc, a.r, a.lead, kA2AIn, 0, int64(w.p)*w.b)
			return
		}
		// Leader: stage own buffer; the local node block (own-node
		// sources into own image) is exchanged in staging memory.
		w.cpu[a.r] = sc.Now() + 2*w.packCost(int64(w.p)*w.b)
		for li := 0; li < w.rpn; li++ {
			w.mark(a.r, a.node*w.rpn+li)
		}
		if w.rpn == 1 {
			a.a2aStartInter(sc)
		}
	case kA2AIn:
		w.arrive(sc, a.r, ev.A)
		w.verify(sc, a.r, ev)
		a.gotIn++
		if int(a.gotIn) == w.rpn-1 {
			a.a2aStartInter(sc)
		}
	case kA2ANode:
		w.arrive(sc, a.r, ev.A)
		w.verify(sc, a.r, ev)
		sn := w.nodeOf(ev.From)
		for li := 0; li < w.rpn; li++ {
			w.mark(a.r, sn*w.rpn+li)
		}
		a.pendSet(ev.Round)
		for a.pendHas(a.round) {
			a.pendClear(a.round)
			a.round++
			if int(a.round) < w.nodes {
				a.sendNode(sc, a.round)
			} else {
				a.a2aScatter(sc)
			}
		}
	case kA2ACol:
		w.arrive(sc, a.r, ev.A)
		w.verify(sc, a.r, ev)
		for g := 0; g < w.p; g++ {
			w.mark(a.r, g)
		}
		a.finish(sc)
	default:
		panic(fmt.Sprintf("model: hier alltoall rank %d got kind %d", a.r, ev.Kind))
	}
}

func (a *rankSM) a2aStartInter(sc *sim.ShardCtx) {
	if a.w.nodes == 1 {
		a.a2aScatter(sc)
		return
	}
	a.round = 1
	a.sendNode(sc, 1)
}

func (a *rankSM) sendNode(sc *sim.ShardCtx, s int32) {
	w := a.w
	dNode, _ := pair(w.nodes, a.node, int(s))
	w.send(sc, a.r, sim.ActorID(dNode*w.rpn), kA2ANode, s, int64(w.rpn)*int64(w.rpn)*w.b)
}

// a2aScatter is phase 3: the leader sends each member its result
// column and keeps its own by local copy.
func (a *rankSM) a2aScatter(sc *sim.ShardCtx) {
	w := a.w
	for di := 1; di < w.rpn; di++ {
		w.send(sc, a.r, a.lead+sim.ActorID(di), kA2ACol, 0, int64(w.p)*w.b)
	}
	if t := sc.Now(); t > w.cpu[a.r] {
		w.cpu[a.r] = t
	}
	w.cpu[a.r] += 2 * w.packCost(int64(w.p)*w.b)
	a.finish(sc)
}

// --- hierarchical allgather: gather, leader ring, broadcast ---------

func (a *rankSM) agHier(sc *sim.ShardCtx, ev sim.Event) {
	w := a.w
	switch ev.Kind {
	case kStart:
		if a.li != 0 {
			w.send(sc, a.r, a.lead, kAGIn, 0, w.b)
			return
		}
		w.mark(a.r, int(a.r))
		if w.rpn == 1 {
			a.agStartRing(sc)
		}
	case kAGIn:
		w.arrive(sc, a.r, ev.A)
		w.verify(sc, a.r, ev)
		w.mark(a.r, int(ev.From))
		a.gotIn++
		if int(a.gotIn) == w.rpn-1 {
			a.agStartRing(sc)
		}
	case kAGSlab:
		w.arrive(sc, a.r, ev.A)
		w.verify(sc, a.r, ev)
		q := (w.nodeOf(ev.From) - int(ev.Round)%w.nodes + w.nodes) % w.nodes
		for li := 0; li < w.rpn; li++ {
			w.mark(a.r, q*w.rpn+li)
		}
		a.pendSet(ev.Round)
		for a.pendHas(a.round) {
			a.pendClear(a.round)
			a.round++
			if a.round <= int32safe(w.nodes-2) {
				a.sendSlab(sc, a.round)
			} else {
				a.agBcastDown(sc)
			}
		}
	case kAGBcast:
		w.arrive(sc, a.r, ev.A)
		w.verify(sc, a.r, ev)
		for g := 0; g < w.p; g++ {
			w.mark(a.r, g)
		}
		a.forwardBcast(sc)
		a.finish(sc)
	default:
		panic(fmt.Sprintf("model: hier allgather rank %d got kind %d", a.r, ev.Kind))
	}
}

func (a *rankSM) agStartRing(sc *sim.ShardCtx) {
	if a.w.nodes == 1 {
		a.agBcastDown(sc)
		return
	}
	a.round = 0
	a.sendSlab(sc, 0)
}

func (a *rankSM) sendSlab(sc *sim.ShardCtx, s int32) {
	w := a.w
	right := (a.node + 1) % w.nodes
	w.send(sc, a.r, sim.ActorID(right*w.rpn), kAGSlab, s, int64(w.rpn)*w.b)
}

// agBcastDown ends the leader's ring and broadcasts the assembled
// buffer down the node's binomial tree.
func (a *rankSM) agBcastDown(sc *sim.ShardCtx) {
	a.forwardBcast(sc)
	a.finish(sc)
}

// forwardBcast sends the assembled buffer to this rank's children in
// the intra-node binomial broadcast tree (the same vrank/mask walk the
// real bcastFlat performs; the leader is vrank 0).
func (a *rankSM) forwardBcast(sc *sim.ShardCtx) {
	w := a.w
	vr := a.li
	mask := 1
	for mask < w.rpn {
		if vr&mask != 0 {
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vr&mask == 0 && vr+mask < w.rpn {
			w.send(sc, a.r, a.lead+sim.ActorID(vr+mask), kAGBcast, 0, int64(w.p)*w.b)
		}
		mask >>= 1
	}
}

// int32safe converts a small non-negative int for round comparisons.
func int32safe(n int) int32 {
	if n < 0 {
		return -1
	}
	return int32(n)
}
