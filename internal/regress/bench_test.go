package regress

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func annSum(bitwise, recall, latRatio, candFrac float64) map[string]float64 {
	return map[string]float64{
		"bitwise_fullprobe_match":       bitwise,
		"recall_at_default_nprobe":      recall,
		"latency_ratio_at_default":      latRatio,
		"candidate_fraction_at_default": candFrac,
	}
}

func TestANNGate(t *testing.T) {
	good := annSum(1, 0.99, 0.10, 0.03)

	if r := CompareANN(good, annSum(1, 0.99, 0.11, 0.03), Options{}); !r.OK() {
		t.Fatalf("healthy report failed: %s", r.Summary())
	}

	cases := []struct {
		name   string
		newS   map[string]float64
		metric string
	}{
		{"bitwise broken", annSum(0, 0.99, 0.10, 0.03), "bitwise_fullprobe_match"},
		{"recall under floor", annSum(1, 0.80, 0.10, 0.03), "recall_at_default_nprobe"},
		{"recall dropped from baseline", annSum(1, 0.96, 0.10, 0.03), "recall_at_default_nprobe"},
		{"latency ratio blew up", annSum(1, 0.99, 0.40, 0.03), "latency_ratio_at_default"},
		{"candidate fraction blew up", annSum(1, 0.99, 0.10, 0.30), "candidate_fraction_at_default"},
	}
	for _, tc := range cases {
		r := CompareANN(good, tc.newS, Options{Ratio: 0.5})
		if r.OK() {
			t.Errorf("%s: gate passed", tc.name)
			continue
		}
		found := false
		for _, f := range r.Findings {
			if f.Metric == tc.metric {
				found = true
				if f.Note == "" {
					t.Errorf("%s: finding has no note", tc.name)
				}
				if !strings.Contains(f.String(), f.Note) {
					t.Errorf("%s: String() %q drops the note", tc.name, f.String())
				}
			}
		}
		if !found {
			t.Errorf("%s: no finding on %s: %s", tc.name, tc.metric, r.Summary())
		}
	}

	// Small jitter under the absolute slack never fails, even at huge
	// relative growth from a tiny baseline.
	tiny := annSum(1, 0.99, 0.001, 0.001)
	jitter := annSum(1, 0.99, 0.04, 0.015)
	if r := CompareANN(tiny, jitter, Options{Ratio: 0.5}); !r.OK() {
		t.Fatalf("sub-slack jitter failed the gate: %s", r.Summary())
	}
}

// TestCompareFilesBenchKinds: BENCH_<exp>.json objects are sniffed as
// bench reports (not manifests) and dispatch to the ANN gate; a report
// with no gate is an error, not a pass.
func TestCompareFilesBenchKinds(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		raw, err := json.MarshalIndent(v, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	type entry struct {
		Experiment string `json:"experiment"`
		Rows       any    `json:"rows"`
	}
	dense := write("BENCH_DENSE.json", entry{
		Experiment: "DENSE",
		Rows:       map[string]any{"cells": []any{}},
	})
	if _, err := CompareFiles(dense, dense, Options{}); err == nil || !strings.Contains(err.Error(), "no gate") {
		t.Fatalf("DENSE self-compare: err %v, want a no-gate error", err)
	}

	annP := write("BENCH_ANN.json", entry{
		Experiment: "ANN",
		Rows:       map[string]any{"summary": annSum(1, 0.99, 0.1, 0.03)},
	})
	r, err := CompareFiles(annP, annP, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Mode != "ann" || !r.OK() {
		t.Fatalf("ann self-compare: %+v", r)
	}

	// Mismatched kinds still error.
	if _, err := CompareFiles(dense, filepath.Join(dir, "missing.json"), Options{}); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := CompareFiles(dense, annP, Options{}); err == nil {
		t.Fatal("DENSE vs ANN reports share no experiment but compared anyway")
	}
}
