package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"gpuddt/internal/cluster"
	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/mpi"
	"gpuddt/internal/shapes"
	"gpuddt/internal/sim"
)

// buildWorld is Spec.Config + mpi.NewWorld inside an mpi.world_build span.
func buildWorld(tc *tracer, spec cluster.Spec) *mpi.World {
	sp := tc.begin("mpi.world_build")
	w := mpi.NewWorld(spec.Config())
	tc.end(sp)
	return w
}

// runWorld is World.Run inside a sim.run span, with a span recorder
// attached when tracing; the recorder and the world's engines are then
// folded into the per-layer counts.
func runWorld(tc *tracer, w *mpi.World, fn func(m *mpi.Rank)) {
	rec := tc.record(w.Engine())
	sp := tc.begin("sim.run")
	w.Run(fn)
	tc.end(sp)
	if rec != nil {
		tc.simStats(rec)
		tc.add("sim.run_spans", float64(rec.SpanCount()))
	}
	tc.worldStats(w)
}

// closeWorld is World.Close inside a mem.close span.
func closeWorld(tc *tracer, w *mpi.World) {
	sp := tc.begin("mem.close")
	w.Close()
	tc.end(sp)
}

// cpuPack packs (dt, count) out of src with the reference CPU
// converter: the layout-independent image the oracles compare.
func cpuPack(dt *datatype.Datatype, count int, src []byte) []byte {
	c := datatype.NewConverter(dt, count)
	out := make([]byte, c.Total())
	c.Pack(out, src)
	return out
}

// layoutSpan is the buffer length (dt, count) touches.
func layoutSpan(dt *datatype.Datatype, count int) int64 {
	return int64(count-1)*dt.Extent() + dt.TrueLB() + dt.TrueExtent()
}

func digestOf(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// jitter moves base by a seeded -1, 0 or +1, so every seed gives the
// same mix of op shapes at slightly different sizes (and slightly
// different simulated times) without changing the host cost profile.
func jitter(rng *rand.Rand, base int) int {
	return base + rng.Intn(3) - 1
}

// p2pKinds are the paper's layouts: V is a column-major sub-matrix
// (vector), T the lower triangle (indexed), S a narrow sub-matrix of
// 128-byte columns received into a different leading dimension, X the
// transposed-matrix view of the §5.2.3 stress test, C the contiguous
// matrix. The three sizes of each land in the eager, single-fragment
// rendezvous and pipelined rendezvous regimes. Five layouts make 45 ops
// a round: with a round size of 5 mod 10, p50 and p90 fall inside one
// op shape's samples rather than between two shapes.
var p2pKinds = []struct {
	name  string
	sizes [3]int
	types func(n int) (send, recv *datatype.Datatype)
}{
	{"V", [3]int{48, 224, 512}, func(n int) (*datatype.Datatype, *datatype.Datatype) {
		return shapes.SubMatrix(n, n, n+32), shapes.SubMatrix(n, n, n+32)
	}},
	{"T", [3]int{64, 320, 720}, func(n int) (*datatype.Datatype, *datatype.Datatype) {
		return shapes.LowerTriangular(n), shapes.LowerTriangular(n)
	}},
	{"S", [3]int{128, 4096, 16384}, func(n int) (*datatype.Datatype, *datatype.Datatype) {
		return shapes.SubMatrix(16, n, 24), shapes.SubMatrix(16, n, 20)
	}},
	{"X", [3]int{40, 160, 384}, func(n int) (*datatype.Datatype, *datatype.Datatype) {
		return shapes.Transpose(n), shapes.Transpose(n)
	}},
	{"C", [3]int{48, 224, 512}, func(n int) (*datatype.Datatype, *datatype.Datatype) {
		return shapes.FullMatrix(n), shapes.FullMatrix(n)
	}},
}

var p2pTopos = []string{"1gpu", "2gpu", "ib"}

// buildP2P makes one op per (topology, layout, size regime).
func buildP2P(seed uint64) (*suite, error) {
	rng := rand.New(rand.NewSource(int64(mix64(seed))))
	var ops []*op
	out := &echoBufs{}
	for _, topo := range p2pTopos {
		for _, k := range p2pKinds {
			for _, base := range k.sizes {
				n := jitter(rng, base)
				id := fmt.Sprintf("%s/%s/%d", topo, k.name, n)
				ops = append(ops, pingPongOp(id, cluster.ByName(topo), k.types, n, rng.Uint64(), out))
			}
		}
	}
	return &suite{ops: ops}, nil
}

// echoBufs receive the raw bytes of a ping-pong's two receive buffers.
// Ops run and are checked one at a time, so all ops share one pair.
type echoBufs struct{ got, echoed []byte }

// pingPongOp builds, runs and closes one two-rank world: rank 0 sends
// a seeded payload in its layout, rank 1 receives it in its own layout
// and sends it back. The payload is generated in set-up; the op copies
// it into the sender's buffer and copies both received buffers out.
// Both receivers' CPU-packed images must equal the sender's; the op's
// simulated time is the round trip.
func pingPongOp(id string, spec cluster.Spec, mk func(int) (*datatype.Datatype, *datatype.Datatype), n int, paySeed uint64, out *echoBufs) *op {
	dt0, dt1 := mk(n)
	src := make([]byte, layoutSpan(dt0, 1))
	mem.SyntheticAt(paySeed, 0, src)
	sent := cpuPack(dt0, 1, src)
	o := &op{id: id, types: func() []*datatype.Datatype {
		a, b := mk(n)
		return []*datatype.Datatype{a, b}
	}}
	o.run = func(tc *tracer) (outcome, error) {
		w := buildWorld(tc, spec)
		var t0, t1 sim.Time
		runWorld(tc, w, func(m *mpi.Rank) {
			if m.Rank() == 1 {
				buf := m.Malloc(layoutSpan(dt1, 1))
				m.Barrier()
				m.Recv(buf, dt1, 1, 0, 0)
				out.got = append(out.got[:0], buf.Bytes()...)
				m.Send(buf, dt1, 1, 0, 1)
				return
			}
			buf := m.Malloc(int64(len(src)))
			back := m.Malloc(int64(len(src)))
			copy(buf.Bytes(), src)
			m.Barrier()
			t0 = m.Now()
			m.Send(buf, dt0, 1, 1, 0)
			m.Recv(back, dt0, 1, 1, 1)
			t1 = m.Now()
			out.echoed = append(out.echoed[:0], back.Bytes()...)
		})
		closeWorld(tc, w)
		return outcome{
			virtUs: (t1 - t0).Micros(),
			check: func() (string, error) {
				if !bytes.Equal(cpuPack(dt1, 1, out.got), sent) {
					return "", fmt.Errorf("receiver's packed image differs from the sender's")
				}
				if !bytes.Equal(cpuPack(dt0, 1, out.echoed), sent) {
					return "", fmt.Errorf("echoed packed image differs from the sender's")
				}
				return digestOf(sent), nil
			},
		}, nil
	}
	return o
}
