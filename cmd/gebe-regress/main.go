// Command gebe-regress is the performance regression gate: it compares
// a fresh performance record against a committed baseline and exits
// non-zero when a metric regressed beyond both the relative threshold
// and the absolute floor. It reads three record kinds, detecting the
// kind from the file contents: latency snapshots
// (results/SERVE_LATENCY.json and COORD_LATENCY.json, written by
// gebe-serve and gebe-coord -latency-out), experiment run manifests
// (RUN_<exp>.json, written by gebe-bench -manifest-dir), and the
// retrieval report BENCH_ANN.json (written by gebe-bench -ann -json),
// whose gate also holds recall@10 above -recall-floor and the
// full-probe bitwise contract.
//
//	gebe-regress -old results/SERVE_LATENCY.json -new /tmp/fresh.json \
//	    -ratio 5 -min-delta 25ms
//	gebe-regress -old results/BENCH_ANN.json -new /tmp/BENCH_ANN.json \
//	    -ratio 1.0 -recall-floor 0.95
//
// Exit codes: 0 gate passed, 1 regression found, 2 usage or I/O error.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"gebe/internal/regress"
)

func main() {
	var (
		oldPath  = flag.String("old", "", "baseline record (latency snapshot, run manifest or BENCH_ANN.json)")
		newPath  = flag.String("new", "", "fresh record of the same kind")
		ratio    = flag.Float64("ratio", 0.5, "allowed fractional increase (0.5 = +50%)")
		minDelta = flag.Duration("min-delta", 25*time.Millisecond, "absolute increase floor; smaller deltas never fail")
		minCount = flag.Uint64("min-count", 1, "skip endpoints with fewer samples on either side")
		recall   = flag.Float64("recall-floor", 0.95, "minimum recall@10 at the default probe (ann reports only)")
	)
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "gebe-regress: -old and -new are required")
		flag.Usage()
		os.Exit(2)
	}

	report, err := regress.CompareFiles(*oldPath, *newPath, regress.Options{
		Ratio:       *ratio,
		MinDelta:    minDelta.Seconds(),
		MinCount:    *minCount,
		RecallFloor: *recall,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gebe-regress:", err)
		os.Exit(2)
	}
	fmt.Println(report.Summary())
	if !report.OK() {
		os.Exit(1)
	}
}
