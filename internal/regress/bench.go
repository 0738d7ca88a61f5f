package regress

import (
	"encoding/json"
	"fmt"
)

// This file gates the committed microbench reports: BENCH_SPMM.json and
// BENCH_DENSE.json (kernel timing grids, mode "bench") and
// BENCH_ANN.json (approximate-retrieval quality and latency, mode
// "ann"). Kernel timings are machine-normalized before the double
// threshold: the reference loops (legacy_seconds) run the same
// unoptimized code on both sides, so each cell's legacy ratio estimates
// how much faster or slower this machine is than the one that produced
// the baseline at that cell's shape, and the cell's baseline tuned
// timing is rescaled by it. Without that, a CI runner slower than the
// committing laptop would fail every cell. The ratio is taken per cell,
// not over the grid total: machines differ by shape (cache sizes,
// memory bandwidth), and a total is dominated by its largest reference
// cell, so one shape running much faster would rescale, and fail, every
// other cell.

// benchEntry is one experiment in a gebe-bench -json report.
type benchEntry struct {
	Experiment string          `json:"experiment"`
	Rows       json.RawMessage `json:"rows"`
}

// benchCell carries the identity and timing fields shared by the SPMM
// and DENSE grids (unknown fields in either are ignored).
type benchCell struct {
	Shape         string  `json:"shape"`
	Op            string  `json:"op"`
	Rows          int     `json:"rows"`
	Cols          int     `json:"cols"`
	NNZ           int     `json:"nnz"`
	N             int     `json:"n"`
	K             int     `json:"k"`
	Threads       int     `json:"threads"`
	LegacySeconds float64 `json:"legacy_seconds"`
	TunedSeconds  float64 `json:"tuned_seconds"`
	// SIMDSpeedup is go_seconds/simd_seconds for the cell, zero when the
	// producing machine had no vector kernels.
	SIMDSpeedup float64 `json:"simd_speedup"`
}

// key identifies a cell across runs of the same grid.
func (c benchCell) key() string {
	return fmt.Sprintf("%s/%s/r%d/c%d/nnz%d/n%d/k%d/t%d",
		c.Shape, c.Op, c.Rows, c.Cols, c.NNZ, c.N, c.K, c.Threads)
}

type benchRows struct {
	Cells []benchCell `json:"cells"`
}

// annSummary is the slice of BENCH_ANN.json the gate reads.
type annSummary struct {
	Summary map[string]float64 `json:"summary"`
}

// CompareBenchCells gates a fresh kernel grid against a baseline:
// matched cells' tuned timings, each cell's baseline rescaled by that
// cell's own legacy ratio so the comparison survives a machine change.
// Cells without a positive legacy time on both sides cannot be
// normalized and are skipped.
func CompareBenchCells(experiment string, oldC, newC []benchCell, opt Options) Report {
	opt = opt.withDefaults()
	r := Report{Mode: "bench"}
	oldBy := make(map[string]benchCell, len(oldC))
	for _, c := range oldC {
		oldBy[c.key()] = c
	}
	for _, c := range newC {
		o, ok := oldBy[c.key()]
		if !ok || o.LegacySeconds <= 0 || c.LegacySeconds <= 0 {
			continue
		}
		scale := c.LegacySeconds / o.LegacySeconds
		r.check(opt, experiment+"/"+c.key(), scale*o.TunedSeconds, c.TunedSeconds)
	}
	r.checkSIMDFloor(opt, experiment, newC)
	return r
}

// checkSIMDFloor gates the vector kernels' measured value: within each
// headline width class (k=16 and the panel widths k≥24, k%8=0), the
// best SIMD-over-Go speedup in the fresh grid must clear SIMDFloor.
// The best — not the min — because small-k cells at high thread counts
// are memory-bound and the flavors converge; the class is regressed
// only when no cell in it benefits anymore. Cells without SIMD data
// (purego or pre-SIMD baselines) leave a class empty, and empty classes
// are skipped, so the gate self-disarms on machines with no vector
// kernels. The floor needs no machine normalization: both sides of the
// ratio ran on the same machine in the same process.
func (r *Report) checkSIMDFloor(opt Options, experiment string, cells []benchCell) {
	if opt.SIMDFloor <= 0 {
		return
	}
	best := map[string]float64{}
	for _, c := range cells {
		if c.SIMDSpeedup <= 0 {
			continue
		}
		var class string
		switch {
		case c.K == 16:
			class = "k16"
		case c.K >= 24 && c.K%8 == 0:
			class = "panel8"
		default:
			continue
		}
		if c.SIMDSpeedup > best[class] {
			best[class] = c.SIMDSpeedup
		}
	}
	for _, class := range []string{"k16", "panel8"} {
		b, ok := best[class]
		if !ok {
			continue
		}
		r.Checked++
		if b < opt.SIMDFloor {
			r.Findings = append(r.Findings, Finding{
				Metric: experiment + "/simd_speedup_" + class + "_best",
				Old:    opt.SIMDFloor, New: b,
				Note: fmt.Sprintf("SIMD speedup below the %.2fx floor", opt.SIMDFloor),
			})
		}
	}
}

// CompareANN gates a fresh retrieval report against a baseline. Three
// contracts: the full float probe stays bitwise-identical to the exact
// scorer, recall at the default probe stays above the floor and within
// 0.02 of the baseline, and the unitless latency/candidate ratios do
// not grow past the relative threshold (with small absolute slack so
// runner jitter cannot fail a sub-percent change).
func CompareANN(oldS, newS map[string]float64, opt Options) Report {
	opt = opt.withDefaults()
	r := Report{Mode: "ann"}

	r.Checked++
	if newS["bitwise_fullprobe_match"] != 1 {
		r.Findings = append(r.Findings, Finding{
			Metric: "bitwise_fullprobe_match", Old: oldS["bitwise_fullprobe_match"],
			New: newS["bitwise_fullprobe_match"], Note: "full probe must reproduce the exact scorer",
		})
	}

	r.Checked++
	recall := newS["recall_at_default_nprobe"]
	if recall < opt.RecallFloor {
		r.Findings = append(r.Findings, Finding{
			Metric: "recall_at_default_nprobe", Old: opt.RecallFloor, New: recall,
			Note: fmt.Sprintf("below the %.2f floor", opt.RecallFloor),
		})
	} else if old, ok := oldS["recall_at_default_nprobe"]; ok && recall < old-0.02 {
		r.Findings = append(r.Findings, Finding{
			Metric: "recall_at_default_nprobe", Old: old, New: recall,
			Note: "recall dropped more than 0.02 from baseline",
		})
	}

	// Unitless ratios: the usual double threshold, with absolute slack
	// replacing the seconds-denominated MinDelta.
	r.checkRatio(opt, "latency_ratio_at_default", oldS, newS, 0.05)
	r.checkRatio(opt, "candidate_fraction_at_default", oldS, newS, 0.02)
	return r
}

// checkRatio applies the double threshold to a unitless summary metric
// present on both sides.
func (r *Report) checkRatio(opt Options, key string, oldS, newS map[string]float64, slack float64) {
	oldV, ok := oldS[key]
	if !ok {
		return
	}
	newV := newS[key]
	r.Checked++
	if newV-oldV <= slack {
		return
	}
	if oldV > 0 && newV <= oldV*(1+opt.Ratio) {
		return
	}
	r.Findings = append(r.Findings, Finding{
		Metric: key, Old: oldV, New: newV,
		Note: fmt.Sprintf("grew past +%.0f%%", opt.Ratio*100),
	})
}

// parseBenchEntries accepts both -json report shapes: a single
// {experiment, rows} object (BENCH_<exp>.json) or a list of them.
func parseBenchEntries(path string, raw []byte) ([]benchEntry, error) {
	var entries []benchEntry
	if err := json.Unmarshal(raw, &entries); err == nil {
		return entries, nil
	}
	var one benchEntry
	if err := json.Unmarshal(raw, &one); err != nil {
		return nil, fmt.Errorf("regress: %s: %w", path, err)
	}
	return []benchEntry{one}, nil
}

// compareBenchReports dispatches matched experiments from two -json
// report arrays and merges their findings.
func compareBenchReports(oldEs, newEs []benchEntry, opt Options) (Report, error) {
	oldBy := make(map[string]json.RawMessage, len(oldEs))
	for _, e := range oldEs {
		oldBy[e.Experiment] = e.Rows
	}
	var merged Report
	for _, e := range newEs {
		oldRows, ok := oldBy[e.Experiment]
		if !ok {
			continue
		}
		var sub Report
		switch e.Experiment {
		case "ANN":
			var oldS, newS annSummary
			if err := json.Unmarshal(oldRows, &oldS); err != nil {
				return Report{}, fmt.Errorf("regress: baseline %s rows: %w", e.Experiment, err)
			}
			if err := json.Unmarshal(e.Rows, &newS); err != nil {
				return Report{}, fmt.Errorf("regress: new %s rows: %w", e.Experiment, err)
			}
			sub = CompareANN(oldS.Summary, newS.Summary, opt)
		default:
			var oldR, newR benchRows
			if err := json.Unmarshal(oldRows, &oldR); err != nil {
				return Report{}, fmt.Errorf("regress: baseline %s rows: %w", e.Experiment, err)
			}
			if err := json.Unmarshal(e.Rows, &newR); err != nil {
				return Report{}, fmt.Errorf("regress: new %s rows: %w", e.Experiment, err)
			}
			sub = CompareBenchCells(e.Experiment, oldR.Cells, newR.Cells, opt)
		}
		merged.Mode = sub.Mode
		merged.Checked += sub.Checked
		merged.Findings = append(merged.Findings, sub.Findings...)
	}
	if merged.Mode == "" {
		return Report{}, fmt.Errorf("regress: reports share no experiment")
	}
	return merged, nil
}
