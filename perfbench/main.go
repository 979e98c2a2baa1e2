// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one named workload in a single process as a closed
// loop (the next op starts only after the previous one finished and was
// checked), verifies every op against its oracle, and prints the
// metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (host cost and
// simulated time); with --trace 1 they are the per-layer ones, taken
// from traced rounds that alternate with untraced ones so the tracing
// overhead is measured in the same process. See README.md for the
// workloads, the metric definitions and the noise controls.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload p2p-ddt --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "input seed; the same seed gives the same op list and payloads")
	seconds := fs.Float64("seconds", 10, "length of the measured closed loop")
	traceFlag := fs.Int("trace", 0, "1 = per-layer metrics from a traced run, 0 = end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(errOut, "perfbench: need --workload in {%s}, --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	capThreads()
	fmt.Fprintf(errOut, "perfbench: workload=%s seed=%d seconds=%g trace=%d go=%s num_cpu=%d gomaxprocs=%d shards=%d\n",
		*name, *seed, *seconds, *traceFlag, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), modelShards())

	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *traceFlag == 1, minSamples: minSamples}
	rep, err := measure(*name, wl, cfg)
	if err != nil {
		fmt.Fprintf(errOut, "perfbench: %v\n", err)
		return 1
	}
	if cfg.traced {
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", *name, *seed))
		if err := rep.tracer.write(path); err != nil {
			fmt.Fprintf(errOut, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(errOut, "perfbench: wrote %d spans to %s\n", len(rep.tracer.spans), path)
	}
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	for _, msg := range rep.failures {
		fmt.Fprintf(errOut, "perfbench: FAILED %s\n", msg)
	}
	printTable(out, rep)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(errOut, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	return 0
}

// printTable writes the human-readable summary: every metric with its
// unit, plus the sample counts behind the percentiles.
func printTable(out io.Writer, rep *report) {
	fmt.Fprintf(out, "# %s seed=%d: %d ops attempted, %d failed (ops_failed_ratio %.4f), %d steady samples, %d beyond p90, %d complete rounds\n",
		rep.workload, rep.seed, rep.attempted, rep.failed, rep.failedRatio(), rep.samples, rep.beyondP90, rep.rounds)
	names := make([]string, 0, len(rep.metrics))
	for k := range rep.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := rep.metrics[k]
		fmt.Fprintf(out, "# %-36s %16.6g %s\n", k, m.Value, m.Unit)
	}
	names = names[:0]
	for k := range rep.info {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := rep.info[k]
		fmt.Fprintf(out, "# (info) %-29s %16.6g %s\n", k, m.Value, m.Unit)
	}
}
