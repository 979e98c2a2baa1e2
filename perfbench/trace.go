package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"time"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/mpi"
	"gpuddt/internal/sim"
	"gpuddt/internal/trace"
)

// span is one host-time interval the benchmark recorded around a call
// into a layer. Spans of one op share Op; Parent indexes the enclosing
// span (-1 for an op's root span).
type span struct {
	Name   string  `json:"name"`
	Op     int     `json:"op"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer records spans and per-layer counts for the traced rounds. A
// nil *tracer is the untraced mode: every method is a no-op.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	op    int

	sum   map[string]float64 // summed per-layer quantities
	count map[string]float64 // how many observations went into sum
	fixed map[string]float64 // deterministic round-level values

	overheadFrac float64
	refMs        float64
	opsPerS      float64 // untraced rounds, raw
	p50ms        float64
	p90ms        float64
	slab0        mem.PoolStats // slab pool counters when the closed loop started
}

func newTracer() *tracer {
	return &tracer{
		t0:    time.Now(),
		sum:   map[string]float64{},
		count: map[string]float64{},
		fixed: map[string]float64{},
	}
}

func (t *tracer) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: t.now(), End: -1})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

// end closes span i (and anything left open inside it).
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := t.now()
	for n := len(t.stack); n > 0; n-- {
		top := t.stack[n-1]
		t.stack = t.stack[:n-1]
		t.spans[top].End = now
		if top == i {
			return
		}
	}
}

func (t *tracer) beginOp(id string) {
	if t == nil {
		return
	}
	t.op++
	t.begin("op:" + id)
}

func (t *tracer) endOp() {
	if t == nil || len(t.stack) == 0 {
		return
	}
	t.end(t.stack[0])
}

// add accumulates one observation of a per-layer quantity.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.sum[name] += v
	t.count[name]++
}

// set records a deterministic round-level value.
func (t *tracer) set(name string, v float64) {
	if t == nil {
		return
	}
	t.fixed[name] = v
}

// record attaches a span recorder to a world's engine when tracing.
func (t *tracer) record(e *sim.Engine) *sim.Recorder {
	if t == nil {
		return nil
	}
	return sim.NewRecorder(e)
}

// Link-name classes of the simulated machine.
var (
	pcieLink   = regexp.MustCompile(`^node\d+\.(gpu\d+\.(tx|rx)|root(Tx|Rx))$`)
	uplinkLink = regexp.MustCompile(`^leaf\d+\.(up|down)\d+$`)
	wireLink   = regexp.MustCompile(`^ib\d+\.(tx|rx)$`)
	wireTx     = regexp.MustCompile(`^ib\d+\.tx$`)
)

// simStats folds one finished simulation's recorder into the per-layer
// counts: spans, DEV cache and protocol counters, per-message
// pack/wire/unpack attribution and the busiest link of each class.
func (t *tracer) simStats(rec *sim.Recorder) {
	if t == nil || rec == nil {
		return
	}
	t.add("sim.spans", float64(rec.SpanCount()))
	for _, c := range []string{"core.dev.hit", "core.dev.miss", "core.dev.evict", "mpi.frag", "mpi.retry"} {
		t.add(c, float64(rec.Counter(c)))
	}
	var pack, wire, unpack, life sim.Time
	for _, x := range trace.Transfers(rec) {
		pack += x.Pack
		wire += x.Wire
		unpack += x.Unpack
		life += x.Duration()
	}
	if life > 0 {
		t.add("mpi.pack_frac", float64(pack)/float64(life))
		t.add("mpi.wire_frac", float64(wire)/float64(life))
		t.add("mpi.unpack_frac", float64(unpack)/float64(life))
	}
	elapsed := float64(rec.Now())
	if elapsed <= 0 {
		return
	}
	busiest := map[*regexp.Regexp]float64{}
	var ibBytes int64
	for _, tk := range rec.Tracks() {
		var busy sim.Time
		for _, sp := range tk.Spans {
			if sp.Depth == 0 && sp.End >= 0 {
				busy += sp.End - sp.Begin
				if wireTx.MatchString(tk.Name) {
					ibBytes += sp.Bytes
				}
			}
		}
		for _, re := range []*regexp.Regexp{pcieLink, uplinkLink, wireLink} {
			if re.MatchString(tk.Name) && float64(busy)/elapsed > busiest[re] {
				busiest[re] = float64(busy) / elapsed
			}
		}
	}
	t.add("pcie.busy_frac", busiest[pcieLink])
	t.add("ib.uplink_busy_frac", busiest[uplinkLink])
	t.add("ib.node_wire_busy_frac", busiest[wireLink])
	t.add("ib.bytes", float64(ibBytes))
}

// worldStats reads what only a world handle exposes, before Close.
func (t *tracer) worldStats(w *mpi.World) {
	if t == nil {
		return
	}
	t.add("mem.footprint", float64(w.FootprintBytes()))
	var units int64
	var peak int64
	for r := 0; r < w.Size(); r++ {
		m := w.RankHandle(r)
		for d := 0; d < w.Node(0).NumGPUs(); d++ {
			units += m.GPUEngine(d).ConvertedUnits()
		}
		if _, pk := m.ScratchStats(); pk > peak {
			peak = pk
		}
	}
	t.add("core.converted_units", float64(units))
	t.add("mpi.scratch_peak", float64(peak))
}

// planTypes times Plan() on freshly built copies of an op's layouts.
func (t *tracer) planTypes(dts []*datatype.Datatype) {
	for _, dt := range dts {
		t0 := time.Now()
		dt.Plan()
		t.add("datatype.plan_us", float64(time.Since(t0).Nanoseconds())/1e3)
	}
}

// spanMs returns the total host duration of the spans with this name
// and how many there were.
func (t *tracer) spanMs(name string) (float64, int) {
	var tot float64
	n := 0
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			tot += s.End - s.Start
			n++
		}
	}
	return tot / 1e3, n
}

func (t *tracer) totalSpanMs(name string) float64 {
	tot, _ := t.spanMs(name)
	return tot
}

// meanSpanMs is the mean host duration of the spans with this name.
func (t *tracer) meanSpanMs(name string) float64 {
	tot, n := t.spanMs(name)
	if n == 0 {
		return 0
	}
	return tot / float64(n)
}

func (t *tracer) meanOf(name string) float64 {
	if t.count[name] == 0 {
		return 0
	}
	return t.sum[name] / t.count[name]
}

// appFamilies are the application families apps-mix runs, each with its
// own workload.* metrics.
var appFamilies = []string{"ml-ring", "ml-tree", "stencil2d", "stencil3d", "checkpoint", "interference"}

// layerMetrics lists every per-layer metric in report order.
func layerMetrics() [][2]string {
	ms := [][2]string{
		{"mpi.world_build_ms", "ms"},
		{"sim.run_ms", "ms"}, {"sim.spans_per_op", "count"}, {"sim.host_us_per_span", "us"},
		{"mem.close_ms", "ms"}, {"mem.slab_hit_ratio", "ratio"}, {"mem.footprint_mb", "MiB"},
		{"datatype.plan_us", "us"},
		{"core.dev_hit_ratio", "ratio"}, {"core.dev_evictions", "count"}, {"core.converted_units", "count"},
		{"mpi.pack_frac", "ratio"}, {"mpi.wire_frac", "ratio"}, {"mpi.unpack_frac", "ratio"}, {"pcie.busy_frac", "ratio"},
		{"ib.uplink_busy_frac", "ratio"}, {"ib.node_wire_busy_frac", "ratio"}, {"ib.bytes_per_op", "B"},
		{"mpi.frags_per_op", "count"}, {"mpi.retries_per_op", "count"}, {"mpi.scratch_peak_kb", "KiB"},
		{"coll.hier_speedup.geomean", "ratio"},
		{"model.run_ms", "ms"}, {"model.events_per_s", "1/s"}, {"model.state_b_per_rank", "B"}, {"model.err", "ratio"},
	}
	for _, f := range appFamilies {
		ms = append(ms, [2]string{"workload.run_ms." + f, "ms"}, [2]string{"workload.virt_us." + f, "us"})
	}
	return append(ms,
		[2]string{"workload.interference_slowdown", "ratio"},
		[2]string{"tune.eval_ms", "ms"}, [2]string{"tune.evals_per_pass", "count"}, [2]string{"tune.speedup.geomean", "ratio"},
		[2]string{"gc.cycles_per_op", "count"}, [2]string{"gc.cpu_frac", "ratio"}, [2]string{"alloc.objects_per_op", "count"},
		[2]string{"bench.verify_ms", "ms"}, [2]string{"bench.ref_ms", "ms"}, [2]string{"trace.overhead_frac", "ratio"},
		[2]string{"host.ops_per_s", "ops/s"}, [2]string{"host.op_ms.p50", "ms"}, [2]string{"host.op_ms.p90", "ms"},
	)
}

// finish computes every per-layer metric from the traced samples.
// Layers a workload does not exercise report 0.
func (t *tracer) finish(samples []sample, out map[string]metric) {
	var ops, gcCyc, gcCPU, totCPU, objs, verif float64
	for _, s := range samples {
		if !s.traced {
			continue
		}
		ops++
		gcCyc += s.gcCyc
		gcCPU += s.gcCPU
		totCPU += s.totCPU
		objs += s.allocN
		verif += s.verifMs
	}
	perOp := func(v float64) float64 {
		if ops == 0 {
			return 0
		}
		return v / ops
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	slab := mem.SlabPoolStats()
	v := map[string]float64{
		"mpi.world_build_ms":     t.meanSpanMs("mpi.world_build"),
		"sim.run_ms":             t.meanSpanMs("sim.run"),
		"sim.spans_per_op":       perOp(t.sum["sim.spans"]),
		"sim.host_us_per_span":   ratio(t.totalSpanMs("sim.run")*1e3, t.sum["sim.run_spans"]),
		"mem.close_ms":           t.meanSpanMs("mem.close"),
		"mem.slab_hit_ratio":     ratio(float64(slab.Hits-t.slab0.Hits), float64(slab.Gets-t.slab0.Gets)),
		"mem.footprint_mb":       t.meanOf("mem.footprint") / (1 << 20),
		"datatype.plan_us":       t.meanOf("datatype.plan_us"),
		"core.dev_hit_ratio":     ratio(t.sum["core.dev.hit"], t.sum["core.dev.hit"]+t.sum["core.dev.miss"]),
		"core.dev_evictions":     perOp(t.sum["core.dev.evict"]),
		"core.converted_units":   perOp(t.sum["core.converted_units"]),
		"mpi.pack_frac":          t.meanOf("mpi.pack_frac"),
		"mpi.wire_frac":          t.meanOf("mpi.wire_frac"),
		"mpi.unpack_frac":        t.meanOf("mpi.unpack_frac"),
		"pcie.busy_frac":         t.meanOf("pcie.busy_frac"),
		"ib.uplink_busy_frac":    t.meanOf("ib.uplink_busy_frac"),
		"ib.node_wire_busy_frac": t.meanOf("ib.node_wire_busy_frac"),
		"ib.bytes_per_op":        perOp(t.sum["ib.bytes"]),
		"mpi.frags_per_op":       perOp(t.sum["mpi.frag"]),
		"mpi.retries_per_op":     perOp(t.sum["mpi.retry"]),
		"mpi.scratch_peak_kb":    t.meanOf("mpi.scratch_peak") / 1024,
		"model.run_ms":           t.meanSpanMs("model.run"),
		"model.events_per_s":     ratio(t.sum["model.events"], t.totalSpanMs("model.run")/1e3),
		"model.state_b_per_rank": t.meanOf("model.state_b_per_rank"),
		"tune.eval_ms":           t.meanSpanMs("tune.eval"),
		"gc.cycles_per_op":       perOp(gcCyc),
		"gc.cpu_frac":            ratio(gcCPU, totCPU),
		"alloc.objects_per_op":   perOp(objs),
		"bench.verify_ms":        perOp(verif),
		"bench.ref_ms":           t.refMs,
		"trace.overhead_frac":    t.overheadFrac,
		"host.ops_per_s":         t.opsPerS,
		"host.op_ms.p50":         t.p50ms,
		"host.op_ms.p90":         t.p90ms,
	}
	for _, f := range appFamilies {
		v["workload.run_ms."+f] = t.meanSpanMs("workload.run." + f)
	}
	for k, x := range t.fixed {
		v[k] = x
	}
	for _, m := range layerMetrics() {
		out[m[0]] = metric{Value: v[m[0]], Unit: m[1]}
	}
}

// write stores the recorded spans as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(t.spans); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
