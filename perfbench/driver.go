package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
)

// op is one closed-loop operation of a workload. run builds everything
// it needs through the public API, runs it to completion and returns
// the simulated completion time; the outcome's check then verifies the
// payload against the op's oracle outside the timed region and returns
// the payload digest.
type op struct {
	id    string
	types func() []*datatype.Datatype // fresh copies of the op's layouts (datatype.plan_us)
	run   func(tc *tracer) (outcome, error)
}

// outcome is what one op execution produced.
type outcome struct {
	virtUs float64                // simulated completion time
	digest string                 // digest of the verified payload
	arms   map[string]float64     // further simulated times the round check uses
	check  func() (string, error) // oracle comparison (untimed); sets digest
}

// verify runs the outcome's check, if any, and records its digest.
func (o *outcome) verify() error {
	if o.check == nil {
		return nil
	}
	d, err := o.check()
	o.digest = d
	return err
}

// suite is a workload instantiated for one seed: the ops of one round
// (every op shape exactly once) and the check run over a complete round.
type suite struct {
	ops   []*op
	round func(res map[string]outcome, tc *tracer) (float64, error)
}

// workloads maps each workload to the function building its suite for
// a seed. Building is part of set-up: it generates the inputs and
// records the oracles that need a run of their own (alone-run digests).
// README.md gives the reason for each workload.
var workloads = map[string]func(seed uint64) (*suite, error){
	"p2p-ddt":      buildP2P,
	"coll-fattree": buildColl,
	"apps-mix":     buildApps,
	"tune-grid":    buildTune,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for k := range workloads {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// setupReps is how many set-ups a run makes; setup_s is their median.
const setupReps = 3

// minSamples is the default floor on steady samples: p90 needs at least
// ten samples beyond it.
const minSamples = 100

// capThreads runs Go code on one thread. The simulated ranks hand
// control to each other one at a time, so a second thread adds only
// cross-CPU wake-ups: on a 2-CPU machine it made batch times 2.4 times
// noisier (13% vs 5.5% coefficient of variation).
func capThreads() { runtime.GOMAXPROCS(1) }

// modelShards is the modelled engine's shard count: one per Go thread.
func modelShards() int { return runtime.GOMAXPROCS(0) }

type runConfig struct {
	seed       uint64
	seconds    float64
	traced     bool
	minSamples int // keep looping past seconds until this many samples
}

// sample is one timed op of the steady state.
type sample struct {
	id      string
	ms      float64
	traced  bool
	allocB  float64
	allocN  float64
	gcCyc   float64
	gcCPU   float64
	totCPU  float64
	verifMs float64
}

// report is everything a run measured.
type report struct {
	workload   string
	seed       uint64
	attempted  int
	failed     int
	failures   []string
	samples    int
	beyondP90  int
	rounds     int
	metrics    map[string]metric
	info       map[string]metric // printed in the table, not in the result
	tracer     *tracer
	setupTimes []float64
	outcomes   map[string]outcome // each op's checked result, from set-up
}

func (r *report) failedRatio() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

func (r *report) fail(format string, args ...interface{}) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// processStart approximates the process start for the first set-up.
var processStart = time.Now()

// measure runs one workload: repeated set-up (inputs, oracles and an
// untimed warm-up pass over every op), then the closed loop in batches
// separated by runtime.GC and the reference loop, until the time is up,
// a whole number of rounds has run and p90 has enough samples.
func measure(name string, build func(uint64) (*suite, error), cfg runConfig) (*report, error) {
	rep := &report{workload: name, seed: cfg.seed}
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	rep.tracer = tr

	// Set-up. Every repetition rebuilds the inputs from the seed and
	// re-runs the warm-up; later repetitions must reproduce the first.
	var st *suite
	ref := map[string]outcome{}
	var virtGeo float64
	for rep0 := 0; rep0 < setupReps; rep0++ {
		t0 := time.Now()
		if rep0 == 0 {
			t0 = processStart
		}
		s, err := build(cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		res := map[string]outcome{}
		for _, o := range s.ops {
			out, err := o.run(nil)
			rep.attempted++
			if err == nil {
				err = out.verify()
			}
			if err != nil {
				rep.fail("warm-up %s: %v", o.id, err)
				continue
			}
			if prev, ok := ref[o.id]; ok && (prev.virtUs != out.virtUs || prev.digest != out.digest) {
				rep.fail("warm-up %s: set-up %d gave %v us / %s, first gave %v us / %s",
					o.id, rep0, out.virtUs, out.digest, prev.virtUs, prev.digest)
			}
			ref[o.id] = out
			res[o.id] = out
		}
		g, err := roundCheck(s, res, nil)
		if err != nil {
			rep.fail("warm-up round: %v", err)
		} else if rep0 > 0 && g != virtGeo {
			rep.fail("warm-up round: virt geomean %v, first set-up gave %v", g, virtGeo)
		}
		virtGeo = g
		st = s
		rep.setupTimes = append(rep.setupTimes, time.Since(t0).Seconds())
	}

	rep.outcomes = ref

	// Steady state.
	rng := rand.New(rand.NewSource(int64(mix64(cfg.seed ^ 0x5eed))))
	var samples []sample
	var refs []float64
	gap(&refs)
	start := time.Now()
	if tr != nil {
		tr.slab0 = mem.SlabPoolStats()
	}
	var sinceGap float64
	for round := 0; ; round++ {
		// The traced run traces every other round, so traced counts
		// always cover whole rounds.
		var tc *tracer
		if round%2 == 0 {
			tc = tr
		}
		res := map[string]outcome{}
		for _, i := range rng.Perm(len(st.ops)) {
			o := st.ops[i]
			s, out, err := timeOp(o, tc)
			rep.attempted++
			if err != nil {
				rep.fail("%s: %v", o.id, err)
				continue
			}
			want := ref[o.id]
			if out.virtUs != want.virtUs || out.digest != want.digest {
				rep.fail("%s: %v us / %s, set-up gave %v us / %s", o.id, out.virtUs, out.digest, want.virtUs, want.digest)
			}
			res[o.id] = out
			samples = append(samples, s)
			if sinceGap += s.ms; sinceGap >= gapEveryMs {
				gap(&refs)
				sinceGap = 0
			}
		}
		rep.rounds++
		if g, err := roundCheck(st, res, tr); err != nil {
			rep.fail("round %d: %v", round, err)
		} else if g != virtGeo {
			rep.fail("round %d: virt geomean %v, set-up gave %v", round, g, virtGeo)
		}
		// A traced run needs an untraced round too, for trace.overhead_frac.
		if time.Since(start).Seconds() >= cfg.seconds && len(samples) >= cfg.minSamples && (tr == nil || round > 0) {
			break
		}
	}

	rep.metrics = map[string]metric{}
	if cfg.traced {
		var plain, traced []float64
		for _, s := range samples {
			if s.traced {
				traced = append(traced, s.ms)
			} else {
				plain = append(plain, s.ms)
			}
		}
		rep.samples = len(traced)
		tr.overheadFrac = median(traced)/median(plain) - 1
		tr.refMs = mean(refs)
		tr.opsPerS, tr.p50ms, tr.p90ms = hostRaw(samples)
		tr.finish(samples, rep.metrics)
		return rep, nil
	}
	rep.samples = len(samples)
	rep.endToEnd(samples, refs, virtGeo)
	return rep, nil
}

// roundCheck runs the suite's check over a complete round and returns
// the round's simulated-time geomean.
func roundCheck(s *suite, res map[string]outcome, tc *tracer) (float64, error) {
	if len(res) != len(s.ops) {
		return 0, fmt.Errorf("%d of %d ops produced a result", len(res), len(s.ops))
	}
	if s.round != nil {
		return s.round(res, tc)
	}
	vs := make([]float64, 0, len(res))
	for _, o := range s.ops {
		vs = append(vs, res[o.id].virtUs)
	}
	return geomean(vs), nil
}

// timeOp runs one op and its check, timing the op and reading the Go
// runtime's allocation and GC counters around it.
func timeOp(o *op, tc *tracer) (sample, outcome, error) {
	before := readRuntime()
	tc.beginOp(o.id)
	t0 := time.Now()
	out, err := o.run(tc)
	ms := msSince(t0)
	tc.endOp()
	after := readRuntime()
	s := sample{
		id: o.id, ms: ms, traced: tc != nil,
		allocB: after[0] - before[0], allocN: after[1] - before[1],
		gcCyc: after[2] - before[2], gcCPU: after[3] - before[3], totCPU: after[4] - before[4],
	}
	if err != nil {
		return s, out, err
	}
	if tc != nil && o.types != nil {
		tc.planTypes(o.types())
	}
	t1 := time.Now()
	err = out.verify()
	s.verifMs = msSince(t1)
	return s, out, err
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() [5]float64 {
	metrics.Read(runtimeSamples)
	var out [5]float64
	for i, s := range runtimeSamples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// gapEveryMs is how much op time runs between two gaps.
const gapEveryMs = 250

// gap is the untimed pause between batches of ops: a full GC, so
// garbage from one batch is not collected inside the next one's timed
// ops, then the reference loop (median of three), whose time is
// appended to refs.
func gap(refs *[]float64) {
	runtime.GC()
	var ms [3]float64
	for i := range ms {
		ms[i] = refLoop()
	}
	*refs = append(*refs, median(ms[:]))
}

// endToEnd fills the end-to-end metrics from the untraced samples.
// Raw op times spread 15-30% between runs on a shared 2-CPU virtual
// machine, beyond any usable bound, so the end-to-end metrics carry
// them divided by the reference loop; the raw values are printed in the
// table and reported by the traced run (hostRaw).
func (r *report) endToEnd(samples []sample, refs []float64, virtGeo float64) {
	ms := make([]float64, len(samples))
	var alloc float64
	for i, s := range samples {
		ms[i] = s.ms
		alloc += s.allocB
	}
	ref := median(refs)
	opsPerS, p50ms, p90ms := hostRaw(samples)
	_, r.beyondP90 = p90(ms)
	put := func(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }
	put("setup_s", "s", median(r.setupTimes))
	put("host_op_ref.p50", "ratio", p50ms/ref)
	put("host_op_ref.p90", "ratio", p90ms/ref)
	put("host_ops_per_ref", "ops/ref", opsPerS*ref/1000)
	put("alloc_mb_per_op", "MiB", alloc/float64(len(ms))/(1<<20))
	put("rss_peak_mb", "MiB", float64(maxRSSBytes())/(1<<20))
	put("virt_us.geomean", "us", virtGeo)
	r.info = map[string]metric{
		"host_ops_per_s (raw)": {Value: opsPerS, Unit: "ops/s"},
		"host_op_ms.p50 (raw)": {Value: p50ms, Unit: "ms"},
		"host_op_ms.p90 (raw)": {Value: p90ms, Unit: "ms"},
		"reference loop":       {Value: ref, Unit: "ms"},
	}
}

// hostRaw returns the ops per second of op time and the median and
// nearest-rank p90 op time of the untraced samples.
func hostRaw(samples []sample) (opsPerS, p50ms, p90ms float64) {
	var ms []float64
	var total float64
	for _, s := range samples {
		if !s.traced {
			ms = append(ms, s.ms)
			total += s.ms
		}
	}
	p, _ := p90(ms)
	return float64(len(ms)) / (total / 1000), median(ms), p
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// mix64 is the splitmix64 finalizer, used to derive independent
// sub-seeds from the run seed.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
