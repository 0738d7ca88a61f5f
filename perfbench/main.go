// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload in-process, times every step from outside the
// program around calls into the modules' public functions, checks the
// outputs, and prints one JSON result line:
//
//	perfbench --workload train-gebe --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a separate traced run.
// See README.md for the workloads and the layer → metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// metricDef names one reported metric with its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics every workload reports with --trace 0, in
// the order of BENCHMARK.json's end_to_end list.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"peak_heap_mb", "MB"},
	{"quality", "ratio"},
	{"ok_ratio", "ratio"},
}

// perLayer lists the metrics every workload reports with --trace 1, in
// the order of BENCHMARK.json's per_layer list. A layer a workload does
// not exercise reads 0.
var perLayer = append([]metricDef{
	{"bigraph.load_s", "s"},
	{"gebe.save_embedding_s", "s"},
	{"gebe.load_embedding_s", "s"},

	{"core.solve_s", "s"},
	{"core.embed_s", "s"},
	{"core.unaccounted_s", "s"},
	{"linalg.sigma1_s", "s"},
	{"linalg.ksi_sweep_s", "s"},
	{"linalg.ksi_sweeps", "count"},
	{"linalg.rayleigh_ritz_s", "s"},
	{"linalg.rsvd_block_s", "s"},
	{"linalg.rsvd_global_qr_s", "s"},
	{"linalg.rsvd_project_s", "s"},
	{"linalg.rsvd_eig_s", "s"},
	{"linalg.krylov_dim", "count"},

	{"sparse.spmm_s", "s"},
	{"sparse.spmm_calls", "count"},
	{"sparse.spmm_fma", "count"},
	{"sparse.spmm_gflops", "GFLOP/s"},
	{"sparse.transpose_s", "s"},
	{"sparse.kernel_simd_share", "ratio"},

	{"dense.qr_s", "s"},
	{"dense.qr_calls", "count"},
	{"dense.gemm_s", "s"},
	{"dense.fma", "count"},
	{"dense.gflops", "GFLOP/s"},
	{"dense.kernel_simd_share", "ratio"},

	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},

	{"eval.score_tile_s", "s"},
	{"eval.scored_users", "count"},
	{"eval.topn_s", "s"},

	{"ann.build_s", "s"},
	{"ann.candidates_per_query", "count"},
	{"ann.clusters_per_query", "count"},

	{"serve.handler_s", "s"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_s", "s"},
	{"serve.score_s", "s"},
	{"serve.retrieval_s", "s"},
	{"serve.rank_s", "s"},
	{"serve.encode_s", "s"},
	{"serve.unaccounted_s", "s"},
	{"serve.model_build_s", "s"},

	{"shard.coord_handler_s", "s"},
	{"shard.fanout_s", "s"},
	{"shard.scatter_calls", "count"},
	{"shard.hedges", "count"},
	{"shard.retries", "count"},
	{"shard.scatter_failures", "count"},

	{"client.transport_s", "s"},
	{"client.gen_lag_ms", "ms"},
	{"client.open_p50_ms", "ms"},
	{"client.open_p99_ms", "ms"},
	{"client.closed_p99_ms", "ms"},
}, overheadDefs()...)

// overheadDefs names the tracing-overhead metrics: the traced-minus-
// untraced difference of each end-to-end metric.
func overheadDefs() []metricDef {
	out := make([]metricDef, len(endToEnd))
	for i, m := range endToEnd {
		out[i] = metricDef{"trace_overhead." + m.name, m.unit}
	}
	return out
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"train-gebe":           func(b *bench) error { return runTrain(b, solverGEBE) },
	"train-gebep":          func(b *bench) error { return runTrain(b, solverGEBEP) },
	"serve-exact":          func(b *bench) error { return runServe(b, stackExact) },
	"serve-sharded-approx": func(b *bench) error { return runServe(b, stackShardedApprox) },
}

// bench is the state of one benchmark run: its settings, the values it
// measured, and the correctness gates that failed.
type bench struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string // directory for the generated input files

	attempted, failed int
	values            map[string]float64
	gateFailures      []string
}

// gate records a failed correctness check; any failure makes the run
// print "correct": false and exit non-zero.
func (b *bench) gate(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.gateFailures = append(b.gateFailures, msg)
	fmt.Fprintln(os.Stderr, "perfbench: gate failed:", msg)
}

// set records one metric value.
func (b *bench) set(name string, v float64) { b.values[name] = v }

// note prints a diagnostic line to stdout (never the last line).
func (b *bench) note(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 10, "length of the measured phase in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
		workdir  = flag.String("workdir", ".bench_build", "directory for generated input files")
	)
	flag.Parse()
	drive, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(*workdir, "inputs-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		workdir: dir, values: make(map[string]float64),
	}
	err = drive(b)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Exit(b.report())
}

// report prints the result line and returns the exit code.
func (b *bench) report() int {
	defs := endToEnd
	if b.trace {
		defs = perLayer
	}
	res := result{
		Correct: len(b.gateFailures) == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := b.values[d.name]
		if !ok {
			res.Correct = false
			fmt.Fprintln(os.Stderr, "perfbench: metric not measured:", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		res.Correct = false
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
