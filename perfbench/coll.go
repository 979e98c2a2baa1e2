package main

import (
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"

	"gpuddt/internal/cluster"
	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/model"
	"gpuddt/internal/mpi"
	"gpuddt/internal/shapes"
	"gpuddt/internal/sim"
)

// collSpec is the coll-fattree machine: 64 ranks, 16 nodes of 4 GPUs on
// two 8-node leaves with half the uplinks (2:1 oversubscribed).
func collSpec() cluster.Spec { return cluster.Scale(16, 4, 4, 2) }

// collBlock is the non-contiguous unit the datatype collectives move: a
// 16x8 double sub-matrix in a leading dimension of 12 (1 KiB packed).
func collBlock() *datatype.Datatype { return shapes.SubMatrix(16, 8, 12) }

// collBody prepares one rank's buffers from the set-up inputs and
// returns the collective call and the buffer holding the rank's result
// (the zero Buffer on ranks that receive nothing).
type collBody func(m *mpi.Rank) (run func(), result mem.Buffer)

// collArm runs one collective on a fresh world under the given tuning,
// copies every rank's raw result into caps (reusing its capacity; ranks
// without a result get an empty one), and returns the completion time:
// first entry to last exit.
func collArm(tc *tracer, spec cluster.Spec, tun *mpi.Tuning, body collBody, caps [][]byte) sim.Time {
	w := buildWorld(tc, spec.Tuned(tun))
	size := w.Size()
	starts := make([]sim.Time, size)
	ends := make([]sim.Time, size)
	runWorld(tc, w, func(m *mpi.Rank) {
		run, res := body(m)
		m.Barrier()
		starts[m.Rank()] = m.Now()
		run()
		ends[m.Rank()] = m.Now()
		caps[m.Rank()] = caps[m.Rank()][:0]
		if res.IsValid() {
			caps[m.Rank()] = append(caps[m.Rank()], res.Bytes()...)
		}
	})
	closeWorld(tc, w)
	t0, t1 := starts[0], ends[0]
	for r := 1; r < size; r++ {
		t0 = min(t0, starts[r])
		t1 = max(t1, ends[r])
	}
	return t1 - t0
}

// collCaps receive every rank's raw result of the two arms. Ops run and
// are checked one at a time, so all ops share one pair.
type collCaps [2][][]byte

// collOp runs the collective on the default (hierarchical or, for
// allreduce, in-network) arm and on the flat arm; the two must deliver
// byte-identical packed results. The op's simulated time is the first
// arm's; pack turns rank r's raw result into its packed image.
func collOp(id string, first *mpi.Tuning, body collBody, pack func(r int, raw []byte) []byte, types func() []*datatype.Datatype, caps *collCaps) *op {
	flat := &mpi.Tuning{Collectives: mpi.CollFlat}
	digest := func(caps [][]byte) string {
		imgs := make([][]byte, len(caps))
		for r, raw := range caps {
			imgs[r] = pack(r, raw)
		}
		return digestOf(imgs...)
	}
	return &op{id: id, types: types, run: func(tc *tracer) (outcome, error) {
		t := collArm(tc, collSpec(), first, body, caps[0])
		tf := collArm(tc, collSpec(), flat, body, caps[1])
		return outcome{
			virtUs: t.Micros(),
			arms:   map[string]float64{"flat": tf.Micros()},
			check: func() (string, error) {
				d, df := digest(caps[0]), digest(caps[1])
				if d != df {
					return "", fmt.Errorf("flat arm delivered %s, first arm %s", df, d)
				}
				return d, nil
			},
		}, nil
	}}
}

// synthetic returns n bytes of mem's synthetic pattern for seed.
func synthetic(seed uint64, n int64) []byte {
	b := make([]byte, n)
	mem.SyntheticAt(seed, 0, b)
	return b
}

// perRank generates one input image per rank.
func perRank(size int, gen func(r int) []byte) [][]byte {
	out := make([][]byte, size)
	for r := range out {
		out[r] = gen(r)
	}
	return out
}

// modelOp runs one modelled collective through model.Run.
func modelOp(id string, spec cluster.Spec, coll string, flat bool, sample int) *op {
	return &op{id: id, types: func() []*datatype.Datatype { return []*datatype.Datatype{collBlock()} },
		run: func(tc *tracer) (outcome, error) {
			sp := tc.begin("model.run")
			res, err := model.Run(model.Options{
				Spec: spec, Coll: coll, Flat: flat, Shards: modelShards(),
				Dt: collBlock(), Count: 1, SampleRanks: sample,
			})
			tc.end(sp)
			if err != nil {
				return outcome{}, err
			}
			tc.add("model.events", float64(res.Events))
			tc.add("model.state_b_per_rank", float64(res.MemPerRank(spec.Size())))
			return outcome{virtUs: res.Time.Micros(), digest: hex.EncodeToString(res.Digest[:8])}, nil
		}}
}

func int64Vec(n int) func() []*datatype.Datatype {
	return func() []*datatype.Datatype { return []*datatype.Datatype{datatype.Contiguous(n, datatype.Int64)} }
}

func blockTypes() []*datatype.Datatype { return []*datatype.Datatype{collBlock()} }

// buildColl makes the real collectives (each run hierarchical and flat),
// the modelled runs at the same shape as the real alltoall and
// allgather, and the modelled-only 128-rank points: 15 ops, so p50 and
// p90 fall inside one op shape's samples (see p2pKinds).
func buildColl(seed uint64) (*suite, error) {
	rng := rand.New(rand.NewSource(int64(mix64(seed ^ 0xc011))))
	spec := collSpec()
	size := spec.Size()
	root := size - 1 // a non-leader root exercises the leader election
	dt := collBlock()

	// Inputs are generated here, in set-up; the ops copy them into the
	// simulated buffers. Alltoall and allgather use the model's payload
	// generators, so the modelled digests must equal the real ones.
	a2aIn := perRank(size, func(r int) []byte { return synthetic(uint64(model.SeedAlltoall+r), layoutSpan(dt, size)) })
	alltoall := func(m *mpi.Rank) (func(), mem.Buffer) {
		send := m.Malloc(layoutSpan(dt, size))
		recv := m.Malloc(layoutSpan(dt, size))
		copy(send.Bytes(), a2aIn[m.Rank()])
		return func() { m.Alltoall(send, dt, 1, recv, dt, 1) }, recv
	}
	agIn := perRank(size, func(r int) []byte { return synthetic(uint64(model.SeedAllgather+r), layoutSpan(dt, 1)) })
	allgather := func(m *mpi.Rank) (func(), mem.Buffer) {
		buf := m.Malloc(layoutSpan(dt, size))
		copy(buf.Slice(int64(m.Rank())*dt.Extent(), layoutSpan(dt, 1)).Bytes(), agIn[m.Rank()])
		return func() { m.Allgather(buf, dt, 1) }, buf
	}
	packAll := func(_ int, raw []byte) []byte { return cpuPack(dt, size, raw) }

	const bcastCount = 8
	bcastIn := synthetic(rng.Uint64(), layoutSpan(dt, bcastCount))
	bcast := func(m *mpi.Rank) (func(), mem.Buffer) {
		buf := m.Malloc(layoutSpan(dt, bcastCount))
		if m.Rank() == root {
			copy(buf.Bytes(), bcastIn)
		}
		return func() { m.Bcast(buf, dt, bcastCount, root) }, buf
	}

	reduceN := jitter(rng, 4096)
	reduceSeed := rng.Uint64()
	reduceIn := perRank(size, func(r int) []byte { return synthetic(reduceSeed+uint64(r), int64(reduceN)*8) })
	reduce := func(m *mpi.Rank) (func(), mem.Buffer) {
		v := datatype.Contiguous(reduceN, datatype.Int64)
		send := m.Malloc(v.Size())
		recv := m.Malloc(v.Size())
		copy(send.Bytes(), reduceIn[m.Rank()])
		run := func() { m.Reduce(send, recv, v, 1, mpi.OpSum, root) }
		if m.Rank() != root {
			return run, mem.Buffer{}
		}
		return run, recv
	}

	allreduceN := jitter(rng, 1<<14)
	allreduceSeed := rng.Uint64()
	allreduceIn := perRank(size, func(r int) []byte { return synthetic(allreduceSeed+uint64(r), int64(allreduceN)*8) })
	allreduce := func(m *mpi.Rank) (func(), mem.Buffer) {
		v := datatype.Contiguous(allreduceN, datatype.Int64)
		send := m.MallocHost(v.Size())
		recv := m.MallocHost(v.Size())
		copy(send.Bytes(), allreduceIn[m.Rank()])
		return func() { m.Allreduce(send, recv, v, 1, mpi.OpSum) }, recv
	}
	raw := func(_ int, b []byte) []byte { return b }

	// Alltoallv: a seeded 0..1-block count matrix.
	counts := make([][]int, size)
	for i := range counts {
		counts[i] = make([]int, size)
		for j := range counts[i] {
			counts[i][j] = rng.Intn(2)
		}
	}
	vSeed := rng.Uint64()
	vcounts := func(me int) (sc, sd, rc, rd []int, st, rt int) {
		sc, sd = make([]int, size), make([]int, size)
		rc, rd = make([]int, size), make([]int, size)
		for j := 0; j < size; j++ {
			sc[j], sd[j] = counts[me][j], st
			rc[j], rd[j] = counts[j][me], rt
			st += sc[j]
			rt += rc[j]
		}
		return sc, sd, rc, rd, st, rt
	}
	vIn := perRank(size, func(r int) []byte {
		_, _, _, _, st, _ := vcounts(r)
		return synthetic(vSeed+uint64(r), layoutSpan(dt, max(st, 1)))
	})
	vRecv := make([]int, size)
	for r := range vRecv {
		_, _, _, _, _, vRecv[r] = vcounts(r)
	}
	alltoallv := func(m *mpi.Rank) (func(), mem.Buffer) {
		sc, sd, rc, rd, _, rt := vcounts(m.Rank())
		send := m.Malloc(int64(len(vIn[m.Rank()])))
		recv := m.Malloc(layoutSpan(dt, max(rt, 1)))
		copy(send.Bytes(), vIn[m.Rank()])
		return func() { m.Alltoallv(send, sc, sd, dt, recv, rc, rd, dt) }, recv
	}
	packV := func(r int, raw []byte) []byte { return cpuPack(dt, vRecv[r], raw) }

	caps := &collCaps{make([][]byte, size), make([][]byte, size)}

	big := cluster.Scale(32, 4, 4, 2) // 128 ranks, 4 leaves
	ops := []*op{
		collOp("alltoall", nil, alltoall, packAll, blockTypes, caps),
		collOp("allgather", nil, allgather, packAll, blockTypes, caps),
		collOp(fmt.Sprintf("bcast/%d", bcastCount), nil, bcast, func(_ int, b []byte) []byte { return cpuPack(dt, bcastCount, b) }, blockTypes, caps),
		collOp(fmt.Sprintf("reduce/%d", reduceN), nil, reduce, raw, int64Vec(reduceN), caps),
		collOp(fmt.Sprintf("allreduce/%d", allreduceN), nil, allreduce, raw, int64Vec(allreduceN), caps),
		collOp(fmt.Sprintf("switch-allreduce/%d", allreduceN), &mpi.Tuning{Collectives: mpi.CollSwitch}, allreduce, raw, int64Vec(allreduceN), caps),
		collOp("alltoallv", nil, alltoallv, packV, blockTypes, caps),
		modelOp("model/alltoall/hier", spec, "alltoall", false, 0),
		modelOp("model/alltoall/flat", spec, "alltoall", true, 0),
		modelOp("model/allgather/hier", spec, "allgather", false, 0),
		modelOp("model/allgather/flat", spec, "allgather", true, 0),
		modelOp("model/alltoall/hier/128", big, "alltoall", false, 32),
		modelOp("model/alltoall/flat/128", big, "alltoall", true, 32),
		modelOp("model/allgather/hier/128", big, "allgather", false, 32),
		modelOp("model/allgather/flat/128", big, "allgather", true, 32),
	}
	return &suite{ops: ops, round: collRound(ops)}, nil
}

// collRound checks the modelled digests against the real ones at the
// shared points and derives model_err and the hierarchical speedup.
func collRound(ops []*op) func(map[string]outcome, *tracer) (float64, error) {
	return func(res map[string]outcome, tc *tracer) (float64, error) {
		var logErr float64
		n := 0
		for _, coll := range []string{"alltoall", "allgather"} {
			real := res[coll]
			for _, arm := range []string{"hier", "flat"} {
				mo := res["model/"+coll+"/"+arm]
				if mo.digest != real.digest {
					return 0, fmt.Errorf("model %s/%s digest %s, real %s", coll, arm, mo.digest, real.digest)
				}
				t := real.virtUs
				if arm == "flat" {
					t = real.arms["flat"]
				}
				logErr += math.Abs(math.Log(mo.virtUs / t))
				n++
			}
		}
		var virt, speed []float64
		for _, o := range ops {
			r := res[o.id]
			virt = append(virt, r.virtUs)
			if f, ok := r.arms["flat"]; ok {
				speed = append(speed, f/r.virtUs)
			}
		}
		tc.set("model.err", math.Exp(logErr/float64(n))-1)
		tc.set("coll.hier_speedup.geomean", geomean(speed))
		return geomean(virt), nil
	}
}
