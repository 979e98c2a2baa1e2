package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// shortRun measures one workload for a single round past set-up.
func shortRun(t *testing.T, name string, seed uint64, traced bool) *report {
	t.Helper()
	rep, err := measure(name, workloads[name], runConfig{seed: seed, seconds: 0.01, traced: traced, minSamples: 1})
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if rep.failed != 0 {
		t.Fatalf("%s seed %d: %d of %d ops failed: %v", name, seed, rep.failed, rep.attempted, rep.failures)
	}
	return rep
}

func testWorkloads(t *testing.T) []string {
	if testing.Short() {
		return []string{"p2p-ddt", "coll-fattree"}
	}
	return workloadNames()
}

// TestSteadiness runs every workload twice at one seed: the
// deterministic fields — every op's simulated time and digest, the
// simulated-time geomean, and the traced counts — must be identical,
// and heap allocated per op must agree within 1%.
func TestSteadiness(t *testing.T) {
	for _, name := range testWorkloads(t) {
		t.Run(name, func(t *testing.T) {
			a := shortRun(t, name, 7, false)
			b := shortRun(t, name, 7, false)
			if len(a.outcomes) != len(b.outcomes) {
				t.Fatalf("%d ops vs %d ops", len(a.outcomes), len(b.outcomes))
			}
			for id, x := range a.outcomes {
				y, ok := b.outcomes[id]
				if !ok || x.virtUs != y.virtUs || x.digest != y.digest {
					t.Errorf("op %s: %v us / %s, then %v us / %s", id, x.virtUs, x.digest, y.virtUs, y.digest)
				}
			}
			if va, vb := a.metrics["virt_us.geomean"].Value, b.metrics["virt_us.geomean"].Value; va != vb {
				t.Errorf("virt_us.geomean %v then %v", va, vb)
			}
			if aa, ab := a.metrics["alloc_mb_per_op"].Value, b.metrics["alloc_mb_per_op"].Value; math.Abs(aa-ab) > 0.01*aa {
				t.Errorf("alloc_mb_per_op %v then %v", aa, ab)
			}

			ta := shortRun(t, name, 7, true)
			tb := shortRun(t, name, 7, true)
			for _, k := range []string{
				"model.err", "coll.hier_speedup.geomean", "workload.interference_slowdown",
				"tune.speedup.geomean", "tune.evals_per_pass", "workload.virt_us.ml-ring",
			} {
				if x, y := ta.metrics[k].Value, tb.metrics[k].Value; x != y {
					t.Errorf("%s %v then %v", k, x, y)
				}
			}
		})
	}
}

// TestHeldOutSeed passes every correctness check at a seed no other
// test or tuning run uses.
func TestHeldOutSeed(t *testing.T) {
	for _, name := range testWorkloads(t) {
		t.Run(name, func(t *testing.T) { shortRun(t, name, 0xBEEF, false) })
	}
}

// TestModelErrOnlyOnColl checks model.err is measured on coll-fattree
// and reads 0 (not exercised) elsewhere.
func TestModelErrOnlyOnColl(t *testing.T) {
	if v := shortRun(t, "coll-fattree", 3, true).metrics["model.err"].Value; v <= 0 {
		t.Errorf("coll-fattree model.err = %v", v)
	}
	if v := shortRun(t, "p2p-ddt", 3, true).metrics["model.err"].Value; v != 0 {
		t.Errorf("p2p-ddt model.err = %v", v)
	}
}

// TestBenchmarkJSON checks BENCHMARK.json names exactly the metrics the
// program prints, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q unknown", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
	rep := shortRun(t, "p2p-ddt", 1, false)
	if len(spec.EndToEnd) != len(rep.metrics) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, program prints %d", len(spec.EndToEnd), len(rep.metrics))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := rep.metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s [%s]: program prints %+v", m.Name, m.Unit, got)
		}
	}
	layers := layerMetrics()
	if len(spec.PerLayer) != len(layers) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, program prints %d", len(spec.PerLayer), len(layers))
	}
	for i, m := range spec.PerLayer {
		if i < len(layers) && (layers[i][0] != m.Name || layers[i][1] != m.Unit) {
			t.Errorf("per-layer #%d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, layers[i][0], layers[i][1])
		}
	}
}

// TestBadArguments exits non-zero without printing a result.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "p2p-ddt", "--trace", "2"},
		{"--workload", "p2p-ddt", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%s: exit %d, stdout %q", strings.Join(args, " "), code, out.String())
		}
	}
}
