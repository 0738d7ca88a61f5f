package regress

import (
	"encoding/json"
	"fmt"
)

// This file gates the committed gebe-bench -ann report, BENCH_ANN.json
// (approximate-retrieval quality and latency, mode "ann"). It is the
// only gebe-bench report with a gate: the engines' speed is measured end
// to end by perfbench's train workloads, on the shapes the solvers run.

// benchEntry is one experiment in a gebe-bench -json report.
type benchEntry struct {
	Experiment string          `json:"experiment"`
	Rows       json.RawMessage `json:"rows"`
}

// annSummary is the slice of BENCH_ANN.json the gate reads.
type annSummary struct {
	Summary map[string]float64 `json:"summary"`
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

// compareBenchReports gates the experiments two -json reports share.
// ANN is the only experiment with a gate; any other shared experiment
// is an error rather than a silent pass.
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
		if e.Experiment != "ANN" {
			return Report{}, fmt.Errorf("regress: no gate for %s reports", e.Experiment)
		}
		var oldS, newS annSummary
		if err := json.Unmarshal(oldRows, &oldS); err != nil {
			return Report{}, fmt.Errorf("regress: baseline %s rows: %w", e.Experiment, err)
		}
		if err := json.Unmarshal(e.Rows, &newS); err != nil {
			return Report{}, fmt.Errorf("regress: new %s rows: %w", e.Experiment, err)
		}
		sub := CompareANN(oldS.Summary, newS.Summary, opt)
		merged.Mode = sub.Mode
		merged.Checked += sub.Checked
		merged.Findings = append(merged.Findings, sub.Findings...)
	}
	if merged.Mode == "" {
		return Report{}, fmt.Errorf("regress: reports share no experiment")
	}
	return merged, nil
}
