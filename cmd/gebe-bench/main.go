// Command gebe-bench regenerates the paper's tables and figures on the
// synthetic stand-in datasets.
//
// Usage:
//
//	gebe-bench -exp table4            # top-N recommendation (Table 4)
//	gebe-bench -exp table5            # link prediction (Table 5)
//	gebe-bench -exp fig2              # embedding time, all methods (Figure 2)
//	gebe-bench -exp fig3              # scalability on ER graphs (Figure 3)
//	gebe-bench -exp fig4              # parameter sweeps, recommendation (Figure 4)
//	gebe-bench -exp fig5              # parameter sweeps, link prediction (Figure 5)
//	gebe-bench -exp incremental       # warm-start vs cold retrain on a grown graph
//	gebe-bench -exp all
//	gebe-bench -ann -json results/    # IVF probe sweep vs exact scorer → results/BENCH_ANN.json
//
// Restrict work with -datasets dblp,movielens and -methods "GEBE^p,NRP".
// The SpMM and dense engines are timed by their Go benchmarks
// (go test -bench ./internal/sparse/ ./internal/dense/) and, on the
// shapes the solvers run, by perfbench's train workloads.
//
// Observability: -v/-vv stream solver logs, -trace FILE writes the phase
// trace, -debug-addr :0 serves live /metrics and /debug/pprof, and each
// experiment drops a RUN_<exp>.json manifest under -manifest-dir. Use
// -json PATH for a machine-readable results report (method, dataset,
// elapsed seconds, metric scores): one file at PATH, or per-experiment
// BENCH_<exp>.json files when PATH is an existing directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gebe/internal/dense"
	"gebe/internal/experiments"
	"gebe/internal/obs"
	"gebe/internal/sparse"
)

// benchResult is one experiment's entry in the -json report.
type benchResult struct {
	Experiment     string  `json:"experiment"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	Rows           any     `json:"rows"`
}

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment: table4|table5|fig2|fig3|fig4|fig5|tablen|ablation|incremental|all")
		k           = flag.Int("k", 32, "embedding dimensionality")
		seed        = flag.Uint64("seed", 1, "random seed")
		threads     = flag.Int("threads", 1, "solver threads (paper uses 1)")
		budget      = flag.Duration("budget", 60*time.Second, "per-method time budget (paper: 3 days)")
		ddl         = flag.Duration("deadline", 0, "overall harness budget; per-cell deadlines are clamped to it (0 = unlimited)")
		datasets    = flag.String("datasets", "", "comma-separated dataset filter")
		methods     = flag.String("methods", "", "comma-separated method filter")
		jsonPath    = flag.String("json", "", "write machine-readable results to this file (or BENCH_<exp>.json files if a directory)")
		manifestDir = flag.String("manifest-dir", "results", "directory for RUN_<exp>.json run manifests (empty disables)")
		annBench    = flag.Bool("ann", false, "run the approximate-retrieval bench (IVF probe sweep vs exact scorer) instead of the paper experiments")
		quick       = flag.Bool("quick", false, "with -ann: CI-smoke grid (small shapes, short timing spans)")
	)
	cli := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()
	stop, err := cli.Start("gebe-bench")
	if err != nil {
		fmt.Fprintln(os.Stderr, "gebe-bench:", err)
		os.Exit(1)
	}
	if cli.Active() {
		sparse.EnableMetrics(obs.DefaultRegistry())
		dense.EnableMetrics(obs.DefaultRegistry())
	}

	if *annBench {
		start := time.Now()
		rows, bitwise := runANNBench(os.Stdout, runtime.GOMAXPROCS(0), *quick, cli.Trace())
		rep := []benchResult{{
			Experiment: "ANN", ElapsedSeconds: time.Since(start).Seconds(), Rows: rows,
		}}
		if *jsonPath != "" {
			if err := writeReport(*jsonPath, rep); err != nil {
				fmt.Fprintf(os.Stderr, "gebe-bench: writing -json report: %v\n", err)
				os.Exit(1)
			}
		}
		stop()
		// A full probe that is not bitwise-identical to the exact scorer is
		// a correctness failure, not an accuracy trade-off.
		if !bitwise {
			fmt.Fprintln(os.Stderr, "gebe-bench: full-probe retrieval diverges from the exact scorer")
			os.Exit(1)
		}
		return
	}

	cfg := experiments.Config{
		K: *k, Seed: *seed, Threads: *threads, TimeBudget: *budget,
		Datasets: splitList(*datasets), Methods: splitList(*methods),
		Out: os.Stdout, ManifestDir: *manifestDir, Trace: cli.Trace(),
	}
	if *ddl > 0 {
		cfg.Deadline = time.Now().Add(*ddl)
	}
	var report []benchResult
	run := func(name string, f func(experiments.Config) (any, error)) {
		if *exp != name && (*exp != "all" || extensions[name]) {
			return
		}
		fmt.Printf("\n############ %s ############\n", name)
		start := time.Now()
		rows, err := f(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gebe-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		report = append(report, benchResult{
			Experiment: name, ElapsedSeconds: time.Since(start).Seconds(), Rows: rows,
		})
	}
	run("table4", func(c experiments.Config) (any, error) { return experiments.Table4(c) })
	run("table5", func(c experiments.Config) (any, error) { return experiments.Table5(c) })
	run("fig2", func(c experiments.Config) (any, error) { return experiments.Fig2(c) })
	run("fig3", func(c experiments.Config) (any, error) { return experiments.Fig3(c) })
	run("fig4", func(c experiments.Config) (any, error) { return experiments.Fig4(c) })
	run("fig5", func(c experiments.Config) (any, error) { return experiments.Fig5(c) })
	run("tablen", func(c experiments.Config) (any, error) { return experiments.TableN(c, nil) })
	run("ablation", func(c experiments.Config) (any, error) { return experiments.Ablations(c) })
	run("incremental", func(c experiments.Config) (any, error) { return experiments.Incremental(c) })

	switch *exp {
	case "table4", "table5", "fig2", "fig3", "fig4", "fig5", "tablen", "ablation", "incremental", "all":
	default:
		fmt.Fprintf(os.Stderr, "gebe-bench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if *jsonPath != "" {
		if err := writeReport(*jsonPath, report); err != nil {
			fmt.Fprintf(os.Stderr, "gebe-bench: writing -json report: %v\n", err)
			os.Exit(1)
		}
	}
	stop()
}

// extensions are the appendix experiments "-exp all" skips.
var extensions = map[string]bool{"tablen": true, "ablation": true, "incremental": true}

// writeReport writes the -json results: BENCH_<exp>.json per experiment
// when path is an existing directory, otherwise a single file holding
// the lone experiment's entry or the list of all of them.
func writeReport(path string, report []benchResult) error {
	if info, err := os.Stat(path); err == nil && info.IsDir() {
		for _, r := range report {
			out := filepath.Join(path, "BENCH_"+r.Experiment+".json")
			if err := writeJSON(out, r); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "gebe-bench: wrote %s\n", out)
		}
		return nil
	}
	var v any = report
	if len(report) == 1 {
		v = report[0]
	}
	if err := writeJSON(path, v); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "gebe-bench: wrote %s\n", path)
	return nil
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}
