package main

import (
	"fmt"
	"math/rand"

	"gpuddt/internal/cluster"
	"gpuddt/internal/mpi"
	"gpuddt/internal/shapes"
	"gpuddt/internal/tune"
)

// committedSeed and committedDigest pin the repository's TUNING.json:
// at this seed the winners of a full pass must seal to this digest.
const (
	committedSeed   = 0xA5
	committedDigest = "ae46eeff5cd76110c0216ba6df770fa7ef93036d111c54e520e5f48b691b0074"
)

// candidates enumerates the tuner's grid for an objective kind in the
// tuner's own order (ties keep the earlier candidate).
func candidates(kind tune.Kind, s tune.Space) []tune.Candidate {
	const defEager, defFrag = 64 << 10, 1 << 20
	var out []tune.Candidate
	switch kind {
	case tune.KindP2P:
		for _, e := range s.Eager {
			for _, f := range s.Frag {
				out = append(out, tune.Candidate{Eager: e, Frag: f, Coll: "auto"})
			}
		}
	case tune.KindColl:
		for _, c := range s.Coll {
			out = append(out, tune.Candidate{Eager: defEager, Frag: defFrag, Coll: c})
		}
	case tune.KindApp:
		for _, e := range s.Eager {
			out = append(out, tune.Candidate{Eager: e, Frag: defFrag, Coll: "auto"})
		}
	}
	return out
}

// evalOp is one objective evaluation under one candidate tuning.
func evalOp(id string, pt tune.Point, tun *mpi.Tuning) *op {
	return &op{id: id, run: func(tc *tracer) (outcome, error) {
		sp := tc.begin("tune.eval")
		ev, err := pt.Obj.Run(pt.Spec, tun)
		tc.end(sp)
		if err != nil {
			return outcome{}, err
		}
		return outcome{virtUs: ev.Us, digest: ev.Digest}, nil
	}}
}

// tunePoint is one point of the grid and the ids of its ops.
type tunePoint struct {
	key   string
	def   string // id of the candidate that spells out the defaults
	cands []string
	grid  []tune.Candidate
}

// defaultCandidate is what a nil tuning resolves to: 64 KiB eager
// threshold, 1 MiB fragments, automatic collective selection. Every
// kind's grid contains it, so its evaluation is the point's default run.
var defaultCandidate = tune.Candidate{Eager: 64 << 10, Frag: 1 << 20, Coll: "auto"}

// buildTune makes one op per candidate evaluation of a tuner pass over
// DefaultSpace x DefaultPoints at the committed seed, plus the same
// search for two seeded points whose keys the committed table does not
// hold: a lower-triangular transfer across the spine of a 4:1 fat tree
// and an allreduce on a 2:1 fat tree. DefaultPoints' seed draws the
// application objective's gradient sizes, so taking it from the run
// seed would reshape the costliest evaluations from run to run. That
// makes 75 ops (see p2pKinds for why 5 mod 10).
func buildTune(seed uint64) (*suite, error) {
	rng := rand.New(rand.NewSource(int64(mix64(seed ^ 0x7e57))))
	space := tune.DefaultSpace()
	points := append(tune.DefaultPoints(committedSeed),
		tune.Point{Spec: cluster.Scale(16, 1, 1, 4), Obj: tune.P2P{Dt: shapes.LowerTriangular(jitter(rng, 300)), Count: 1}},
		tune.Point{Spec: cluster.Scale(8, 2, 2, 2), Obj: tune.Coll{Op: "allreduce", Elems: jitter(rng, 1<<13)}},
	)
	var ops []*op
	var pts []tunePoint
	for pi, pt := range points {
		tp := tunePoint{key: pt.Obj.Key(pt.Spec).String(), grid: candidates(pt.Obj.Kind(), space)}
		for _, c := range tp.grid {
			tun, err := c.Tuning()
			if err != nil {
				return nil, err
			}
			id := fmt.Sprintf("%02d/%d/%d/%s", pi, c.Eager>>10, c.Frag>>10, c.Coll)
			if c == defaultCandidate {
				tp.def = id
			}
			tp.cands = append(tp.cands, id)
			ops = append(ops, evalOp(id, pt, tun))
		}
		if tp.def == "" {
			return nil, fmt.Errorf("tune-grid: %s grid lacks the default candidate", tp.key)
		}
		pts = append(pts, tp)
	}
	return &suite{ops: ops, round: tuneRound(space, pts)}, nil
}

// tuneRound checks every candidate against its point's default digest,
// picks the winners exactly as the tuner does, and seals the
// DefaultPoints winners (all points but the two seeded last ones) into
// a table that must be TUNING.json's.
func tuneRound(space tune.Space, pts []tunePoint) func(map[string]outcome, *tracer) (float64, error) {
	return func(res map[string]outcome, tc *tracer) (float64, error) {
		tbl := &tune.Table{Version: tune.TableVersion, Seed: committedSeed, Space: space.String(), Entries: map[string]tune.Entry{}}
		var tuned, speed []float64
		for i, tp := range pts {
			def := res[tp.def]
			best, bestUs := defaultCandidate, def.virtUs
			for ci, id := range tp.cands {
				ev := res[id]
				if ev.digest != def.digest {
					return 0, fmt.Errorf("%s changed the payload digest of %s", id, tp.key)
				}
				if ev.virtUs < bestUs {
					best, bestUs = tp.grid[ci], ev.virtUs
				}
			}
			if i < len(pts)-2 {
				tbl.Entries[tp.key] = tune.Entry{Eager: best.Eager, Frag: best.Frag, Coll: best.Coll, DefaultUs: def.virtUs, TunedUs: bestUs}
			}
			tuned = append(tuned, bestUs)
			speed = append(speed, def.virtUs/bestUs)
		}
		tbl.Seal()
		if tbl.Digest != committedDigest {
			return 0, fmt.Errorf("winners seal to %s, committed TUNING.json has %s", tbl.Digest, committedDigest)
		}
		tc.set("tune.speedup.geomean", geomean(speed))
		tc.set("tune.evals_per_pass", float64(len(res)))
		return geomean(tuned), nil
	}
}
