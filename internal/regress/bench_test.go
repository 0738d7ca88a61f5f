package regress

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func benchGrid(legacyScale, tunedScale float64) []benchCell {
	cells := []benchCell{
		{Op: "mul", N: 2000, K: 8, LegacySeconds: 0.010, TunedSeconds: 0.004},
		{Op: "tmul", N: 2000, K: 32, LegacySeconds: 0.040, TunedSeconds: 0.012},
		{Op: "qr", N: 20000, K: 128, LegacySeconds: 0.900, TunedSeconds: 0.300},
	}
	for i := range cells {
		cells[i].LegacySeconds *= legacyScale
		cells[i].TunedSeconds *= tunedScale
	}
	return cells
}

// TestBenchGateMachineNormalized: a uniformly slower machine inflates
// legacy and tuned timings alike — the legacy-ratio rescale must keep
// the gate green even at 3x, far past the relative threshold.
func TestBenchGateMachineNormalized(t *testing.T) {
	old := benchGrid(1, 1)
	slow := benchGrid(3, 3)
	r := CompareBenchCells("DENSE", old, slow, Options{Ratio: 0.5, MinDelta: 0.002})
	if !r.OK() {
		t.Fatalf("uniformly 3x-slower machine failed the gate: %s", r.Summary())
	}
	if r.Checked != 3 {
		t.Fatalf("checked %d cells, want 3", r.Checked)
	}
}

// TestBenchGateOneShapeFaster: a machine that runs one dominant cell 7×
// faster, legacy and tuned alike, and every other cell as before. A
// grid-total normalization would shrink every other cell's baseline by
// the dominant cell's speed-up and read them all as regressed; the
// per-cell normalization must report none.
func TestBenchGateOneShapeFaster(t *testing.T) {
	old := benchGrid(1, 1)
	fast := benchGrid(1, 1)
	qr := &fast[2]
	if qr.Op != "qr" || qr.LegacySeconds < old[0].LegacySeconds+old[1].LegacySeconds {
		t.Fatalf("grid changed: cell 2 must be the dominant qr cell, got %+v", *qr)
	}
	qr.LegacySeconds /= 7
	qr.TunedSeconds /= 7
	r := CompareBenchCells("DENSE", old, fast, Options{Ratio: 0.5, MinDelta: 0.002})
	if len(r.Findings) != 0 || r.Checked != 3 {
		t.Fatalf("one shape 7x faster: %d regressed of %d checked, want 0 of 3: %s",
			len(r.Findings), r.Checked, r.Summary())
	}
	// The same machine with that cell's tuned kernel not sped up is a
	// real regression of that cell alone.
	qr.TunedSeconds *= 7
	r = CompareBenchCells("DENSE", old, fast, Options{Ratio: 0.5, MinDelta: 0.002})
	if len(r.Findings) != 1 || !strings.Contains(r.Findings[0].Metric, "/qr/") {
		t.Fatalf("tuned qr not sped up with its reference: findings %+v, want the qr cell alone", r.Findings)
	}
}

// TestBenchGateCatchesRealRegression: tuned timings regress while
// legacy stays put — exactly the shape an optimization rollback has —
// and the gate must fail on the big cell.
func TestBenchGateCatchesRealRegression(t *testing.T) {
	old := benchGrid(1, 1)
	bad := benchGrid(1, 3)
	r := CompareBenchCells("DENSE", old, bad, Options{Ratio: 0.5, MinDelta: 0.002})
	if r.OK() {
		t.Fatal("3x tuned-only regression passed the gate")
	}
	for _, f := range r.Findings {
		if !strings.HasPrefix(f.Metric, "DENSE/") {
			t.Errorf("finding %q not namespaced by experiment", f.Metric)
		}
	}
	// Unmatched cells must be skipped, not compared against zero.
	extra := append(benchGrid(1, 1), benchCell{Op: "mult", N: 7, K: 7, LegacySeconds: 1, TunedSeconds: 1})
	r = CompareBenchCells("DENSE", old, extra, Options{Ratio: 0.5, MinDelta: 0.002})
	if r.Checked != 3 {
		t.Fatalf("checked %d cells with one unmatched, want 3", r.Checked)
	}
}

// TestBenchGateSIMDFloor: the floor fails a grid whose vector kernels
// stopped beating the Go kernels, skips width classes with no SIMD
// data, and stays off at SIMDFloor zero.
func TestBenchGateSIMDFloor(t *testing.T) {
	old := benchGrid(1, 1)
	simdGrid := func(k16, panel8 float64) []benchCell {
		cells := benchGrid(1, 1)
		cells = append(cells,
			benchCell{Op: "mul", N: 2000, K: 16, LegacySeconds: 0.02, TunedSeconds: 0.008, SIMDSpeedup: k16},
			benchCell{Op: "mul", N: 2000, K: 32, LegacySeconds: 0.04, TunedSeconds: 0.015, SIMDSpeedup: panel8},
		)
		return cells
	}
	opt := Options{Ratio: 0.5, MinDelta: 0.002, SIMDFloor: 1.3}

	if r := CompareBenchCells("DENSE", old, simdGrid(2.5, 1.8), opt); !r.OK() {
		t.Fatalf("healthy SIMD grid failed: %s", r.Summary())
	}
	r := CompareBenchCells("DENSE", old, simdGrid(1.1, 1.8), opt)
	if r.OK() {
		t.Fatal("k16 speedup below the floor passed the gate")
	}
	if got := r.Findings[0].Metric; got != "DENSE/simd_speedup_k16_best" {
		t.Fatalf("finding on %q, want DENSE/simd_speedup_k16_best", got)
	}
	if r := CompareBenchCells("DENSE", old, simdGrid(1.1, 1.1), opt); len(r.Findings) != 2 {
		t.Fatalf("both classes under the floor: %d findings, want 2", len(r.Findings))
	}

	// A purego grid (no speedups recorded) has nothing to gate.
	if r := CompareBenchCells("DENSE", old, benchGrid(1, 1), opt); !r.OK() || r.Checked != 3 {
		t.Fatalf("SIMD-less grid tripped the floor: %s", r.Summary())
	}
	// Floor zero disables the check even with SIMD data present.
	noFloor := Options{Ratio: 0.5, MinDelta: 0.002}
	if r := CompareBenchCells("DENSE", old, simdGrid(1.1, 1.1), noFloor); !r.OK() {
		t.Fatalf("disabled floor still failed: %s", r.Summary())
	}
}

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
// bench reports (not manifests) and dispatch to the right comparator.
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
		Rows:       map[string]any{"cells": benchGrid(1, 1)},
	})
	r, err := CompareFiles(dense, dense, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Mode != "bench" || r.Checked != 3 || !r.OK() {
		t.Fatalf("dense self-compare: %+v", r)
	}

	annP := write("BENCH_ANN.json", entry{
		Experiment: "ANN",
		Rows:       map[string]any{"summary": annSum(1, 0.99, 0.1, 0.03)},
	})
	r, err = CompareFiles(annP, annP, Options{})
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
