package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"gpuddt/internal/cluster"
	"gpuddt/internal/datatype"
	"gpuddt/internal/mpi"
	"gpuddt/internal/shapes"
	"gpuddt/internal/workload"
)

// Application jobs are 32 ranks on a 4:1 oversubscribed fat tree of
// 4-GPU nodes. Every family runs placed on 8 nodes (one leaf) and on 16
// nodes at 2 ranks per node (both leaves, so its traffic crosses the
// spine); the interference points co-schedule two jobs on 16 nodes.
const (
	appRanks = 32
	appOv    = 4
)

// mlSeed fixes the ML families' generator seed. That seed also draws the
// gradient-bucket sizes, which would reshape the job from one run seed
// to the next; the committed application sweep's seed keeps the job
// identical while the other families vary with the run seed.
const mlSeed = 0xA5

// The ML families: one training step over six log-normal gradient
// tensors fused into 256 KiB buckets, ring-allreduced; the tree variant
// adds the MoE phase's skewed Alltoallv.
var (
	mlRing = workload.MLTrain{Layers: 6, MeanKB: 12, Sigma: 1.2, FusionKB: 256, Iters: 1, Alg: mpi.AllreduceRing}
	mlTree = workload.MLTrain{Layers: 6, MeanKB: 12, Sigma: 1.2, FusionKB: 256, Iters: 1, Alg: mpi.AllreduceTree,
		MoETokens: 16, Hidden: 32}
)

func allRanks(n int) []int {
	r := make([]int, n)
	for i := range r {
		r[i] = i
	}
	return r
}

// appRun is workload.Run inside a workload.run.<family> span, with the
// run's span recorder folded into the per-layer counts when tracing.
func appRun(tc *tracer, family string, cfg mpi.Config, jobs []workload.JobSpec, active []bool) ([]workload.JobResult, error) {
	sp := tc.begin("workload.run." + family)
	res, rec, err := workload.Run(cfg, jobs, active, workload.Options{Trace: tc != nil})
	tc.end(sp)
	tc.simStats(rec)
	return res, err
}

// haloTypes builds the subarray faces a stencil rank with this interior
// box sends and receives.
func haloTypes(box []int) func() []*datatype.Datatype {
	return func() []*datatype.Datatype {
		padded := make([]int, len(box))
		for d, b := range box {
			padded[d] = b + 2
		}
		var dts []*datatype.Datatype
		for d, b := range box {
			for _, idx := range []int{0, 1, b, b + 1} {
				dts = append(dts, shapes.HaloFace(padded, d, idx))
			}
		}
		return dts
	}
}

// appJob is one family instance of apps-mix.
type appJob struct {
	w     workload.Workload
	seed  uint64
	types func() []*datatype.Datatype
}

// appOp runs one job owning the whole cluster of spec.
func appOp(id string, spec cluster.Spec, j appJob) *op {
	family := j.w.Name()
	jobs := []workload.JobSpec{{Name: family, W: j.w, Seed: j.seed, Ranks: allRanks(appRanks)}}
	return &op{id: id, types: j.types, run: func(tc *tracer) (outcome, error) {
		res, err := appRun(tc, family, spec.Config(), jobs, nil)
		if err != nil {
			return outcome{}, err
		}
		return outcome{virtUs: res[0].ElapsedUs, digest: res[0].Digest[:16]}, nil
	}}
}

// interferenceOp co-schedules two jobs under the policy and runs them
// together. Each job's digest must equal the digest it produced running
// alone on the same machine, recorded in set-up.
func interferenceOp(policy cluster.Policy, a, b appJob) (*op, error) {
	spec := cluster.Scale(2*appRanks/4, 4, 4, appOv)
	place, jobRanks, err := cluster.CoSchedule(spec, 2, appRanks, policy)
	if err != nil {
		return nil, err
	}
	cfg := spec.Config()
	cfg.Ranks = place
	jobs := []workload.JobSpec{
		{Name: a.w.Name(), W: a.w, Seed: a.seed, Ranks: jobRanks[0]},
		{Name: b.w.Name(), W: b.w, Seed: b.seed, Ranks: jobRanks[1]},
	}
	alone := make([]workload.JobResult, len(jobs))
	for j := range jobs {
		active := make([]bool, len(jobs))
		active[j] = true
		res, _, err := workload.Run(cfg, jobs, active, workload.Options{})
		if err != nil {
			return nil, fmt.Errorf("interference: %s alone: %w", jobs[j].Name, err)
		}
		alone[j] = res[0]
	}
	types := func() []*datatype.Datatype {
		var dts []*datatype.Datatype
		for _, j := range []appJob{a, b} {
			if j.types != nil {
				dts = append(dts, j.types()...)
			}
		}
		return dts
	}
	id := fmt.Sprintf("interference/%s+%s/%s", a.w.Name(), b.w.Name(), policy)
	return &op{id: id, types: types, run: func(tc *tracer) (outcome, error) {
		res, err := appRun(tc, "interference", cfg, jobs, nil)
		if err != nil {
			return outcome{}, err
		}
		var makespan, slow float64
		for j, r := range res {
			makespan = math.Max(makespan, r.ElapsedUs)
			slow += math.Log(r.ElapsedUs / alone[j].ElapsedUs)
		}
		return outcome{
			virtUs: makespan,
			arms:   map[string]float64{"slowdown": math.Exp(slow / float64(len(res)))},
			check: func() (string, error) {
				for j, r := range res {
					if r.Digest != alone[j].Digest {
						return "", fmt.Errorf("job %s digest %s together, %s alone", r.Job, r.Digest, alone[j].Digest)
					}
				}
				return res[0].Digest[:16] + res[1].Digest[:16], nil
			},
		}, nil
	}}, nil
}

// buildApps makes 15 ops (see p2pKinds for why 15): the five families
// on both placements, data-parallel training next to a stencil job
// under every placement policy, and MoE training next to checkpoint
// bursts under the two policies that share a leaf's uplinks (packed
// placement isolates the jobs by construction). The seed draws the
// payloads and moves the checkpoint's ring message by 1 KiB either way;
// the job shapes are otherwise fixed, because they set the op's host
// cost.
func buildApps(seed uint64) (*suite, error) {
	rng := rand.New(rand.NewSource(int64(mix64(seed ^ 0xa995))))
	ckpt := workload.Checkpoint{StateKB: 64, ChunkKB: 4, Iters: 2, Interval: 1, HaloKB: jitter(rng, 16)}
	s2 := workload.Stencil{Procs: []int{8, 4}, Box: []int{20, 20}, Iters: 2}
	s3 := workload.Stencil{Procs: []int{4, 4, 2}, Box: []int{12, 12, 12}, Iters: 2}
	fams := []appJob{
		{w: mlRing, seed: mlSeed},
		{w: mlTree, seed: mlSeed},
		{w: s2, seed: rng.Uint64(), types: haloTypes(s2.Box)},
		{w: s3, seed: rng.Uint64(), types: haloTypes(s3.Box)},
		{w: ckpt, seed: rng.Uint64(), types: func() []*datatype.Datatype {
			chunk := ckpt.ChunkKB * 1024 / 8
			return []*datatype.Datatype{datatype.Vector(ckpt.StateKB/ckpt.ChunkKB, chunk, appRanks*chunk, datatype.Float64)}
		}},
	}
	var ops []*op
	for _, rpn := range []int{4, 2} {
		spec := cluster.Scale(appRanks/rpn, rpn, rpn, appOv)
		for _, f := range fams {
			ops = append(ops, appOp(fmt.Sprintf("%s/%dx%d", f.w.Name(), appRanks/rpn, rpn), spec, f))
		}
	}
	halo := workload.Stencil{Procs: []int{8, 4}, Box: []int{24, 24}, Iters: 2}
	pairs := []struct {
		a, b     appJob
		policies []cluster.Policy
	}{
		{appJob{w: mlRing, seed: mlSeed + 1}, appJob{w: halo, seed: rng.Uint64(), types: haloTypes(halo.Box)}, cluster.Policies},
		{appJob{w: mlTree, seed: mlSeed + 2}, fams[4], []cluster.Policy{cluster.PolicySpread, cluster.PolicyStriped}},
	}
	for _, p := range pairs {
		for _, policy := range p.policies {
			o, err := interferenceOp(policy, p.a, p.b)
			if err != nil {
				return nil, err
			}
			ops = append(ops, o)
		}
	}
	return &suite{ops: ops, round: appsRound(ops)}, nil
}

// appsRound records each family's simulated time (geomean over its
// placements) and, over the interference points, their geomean time and
// slowdown.
func appsRound(ops []*op) func(map[string]outcome, *tracer) (float64, error) {
	return func(res map[string]outcome, tc *tracer) (float64, error) {
		var virt, slow []float64
		byFamily := map[string][]float64{}
		for _, o := range ops {
			r := res[o.id]
			virt = append(virt, r.virtUs)
			family, _, _ := strings.Cut(o.id, "/")
			byFamily[family] = append(byFamily[family], r.virtUs)
			if s, ok := r.arms["slowdown"]; ok {
				slow = append(slow, s)
			}
		}
		for family, v := range byFamily {
			tc.set("workload.virt_us."+family, geomean(v))
		}
		tc.set("workload.interference_slowdown", geomean(slow))
		return geomean(virt), nil
	}
}
