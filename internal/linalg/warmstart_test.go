package linalg

import (
	"math"
	"testing"

	"gebe/internal/dense"
	"gebe/internal/sparse"
)

// A warm start from a converged eigenbasis must make the very first
// sweep's subspace residual vanish: the adaptive run stops at sweep 1
// with nearly the whole budget reported saved, and the eigenvalues
// match the cold solve.
func TestKSIWarmStartConvergesImmediately(t *testing.T) {
	n, k, budget := 40, 5, 300
	op := denseOp{psdRandom(n, 11)}
	cold := KSIRun(op, KSIConfig{K: k, Sweeps: budget, Seed: 1})
	if !cold.Converged && cold.StopReason != StopStagnated {
		t.Fatalf("cold solve did not settle: %+v", cold)
	}
	warm := KSIRun(op, KSIConfig{K: k, Sweeps: budget, Seed: 2, InitQ: cold.Vectors})
	if !warm.Converged {
		t.Fatalf("warm solve did not converge: reason=%s sweeps=%d", warm.StopReason, warm.Sweeps)
	}
	if warm.Sweeps > 2 {
		t.Errorf("warm solve took %d sweeps, want <= 2", warm.Sweeps)
	}
	if warm.SweepsSaved <= 0 {
		t.Errorf("SweepsSaved = %d, want > 0", warm.SweepsSaved)
	}
	if warm.SweepsSaved <= cold.SweepsSaved {
		t.Errorf("warm saved %d sweeps, cold saved %d — warm should save more",
			warm.SweepsSaved, cold.SweepsSaved)
	}
	for i := range warm.Values {
		if math.Abs(warm.Values[i]-cold.Values[i]) > 1e-6*math.Max(1, cold.Values[i]) {
			t.Errorf("eigenvalue %d: warm %v cold %v", i, warm.Values[i], cold.Values[i])
		}
	}
}

// Warm bases from a differently-shaped previous solve (fewer rows: the
// graph grew; fewer or more columns: k changed) must be padded, not
// rejected — and still converge to the right eigenvalues.
func TestKSIWarmStartDimensionMismatch(t *testing.T) {
	n, k := 36, 4
	op := denseOp{psdRandom(n, 7)}
	cold := KSIRun(op, KSIConfig{K: k, Sweeps: 80, Seed: 1})

	cases := []struct {
		name       string
		rows, cols int
	}{
		{"fewer_rows", n - 10, k},
		{"fewer_cols", n, k - 2},
		{"more_cols", n, k + 3},
		{"both_smaller", n - 5, k - 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			init := dense.New(tc.rows, tc.cols)
			for i := 0; i < tc.rows; i++ {
				src := cold.Vectors.Row(i)
				dst := init.Row(i)
				for j := 0; j < tc.cols; j++ {
					if j < len(src) {
						dst[j] = src[j]
					} else {
						dst[j] = float64(i+j) / float64(n) // arbitrary extra column
					}
				}
			}
			warm := KSIRun(op, KSIConfig{K: k, Sweeps: 80, Seed: 3, InitQ: init})
			for i := range warm.Values {
				if math.Abs(warm.Values[i]-cold.Values[i]) > 1e-5*math.Max(1, cold.Values[i]) {
					t.Errorf("eigenvalue %d: warm %v cold %v", i, warm.Values[i], cold.Values[i])
				}
			}
		})
	}
}

// warmStartBlock's copy/pad contract, checked directly.
func TestWarmStartBlockPadding(t *testing.T) {
	init := dense.New(3, 2)
	for i := 0; i < 3; i++ {
		init.Row(i)[0] = float64(10 + i)
		init.Row(i)[1] = float64(20 + i)
	}
	b, rows, cols := warmStartBlock(init, 5, 4, NewRand(1))
	if rows != 3 || cols != 2 {
		t.Fatalf("carried extent = (%d,%d), want (3,2)", rows, cols)
	}
	for i := 0; i < 3; i++ {
		if b.Row(i)[0] != init.Row(i)[0] || b.Row(i)[1] != init.Row(i)[1] {
			t.Errorf("row %d overlap not carried: %v", i, b.Row(i))
		}
	}
	for i := 3; i < 5; i++ {
		if b.Row(i)[0] != 0 || b.Row(i)[1] != 0 {
			t.Errorf("new row %d carried columns not zero: %v", i, b.Row(i))
		}
	}
	nonzero := 0
	for i := 0; i < 5; i++ {
		for j := 2; j < 4; j++ {
			if b.Row(i)[j] != 0 {
				nonzero++
			}
		}
	}
	if nonzero == 0 {
		t.Error("new columns were not filled with random directions")
	}
}

// Warm-started randomized SVD seeded from exact singular vectors must be
// at least as accurate as the cold run, for each of the three warm
// shapes: U only, V only, and both; on a tall W, whose basis is built
// over its columns with the seed block mapped through Wᵀ, and on a wide
// one.
func TestRandomizedSVDWarmStart(t *testing.T) {
	k := 6
	type exact struct {
		w      *sparse.CSR
		uk, vk *dense.Matrix
		s      []float64
	}
	var ws []exact
	for _, sh := range [][2]int{{60, 45}, {45, 60}} {
		w := randomSparse(t, sh[0], sh[1], 700, 9)
		u, s, v := dense.SVD(w.ToDense())
		ws = append(ws, exact{w, u.SliceCols(0, k), v.SliceCols(0, k), s})
	}
	cases := []struct {
		name         string
		initU, initV bool
	}{
		{"cold", false, false},
		{"warm_u", true, false},
		{"warm_v", false, true},
		{"warm_uv", true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, e := range ws {
				cfg := SVDConfig{K: k, Seed: 4}
				if tc.initU {
					cfg.InitU = e.uk
				}
				if tc.initV {
					cfg.InitV = e.vk
				}
				res := RandomizedSVDRun(e.w, cfg)
				if res.U == nil || len(res.Sigma) != k {
					t.Fatalf("%dx%d: bad result: %+v", e.w.Rows, e.w.Cols, res)
				}
				for i := 0; i < k; i++ {
					if math.IsNaN(res.Sigma[i]) {
						t.Fatalf("%dx%d: sigma[%d] is NaN", e.w.Rows, e.w.Cols, i)
					}
					if math.Abs(res.Sigma[i]-e.s[i]) > 1e-3*e.s[0] {
						t.Errorf("%dx%d: sigma[%d] = %v, exact %v", e.w.Rows, e.w.Cols, i, res.Sigma[i], e.s[i])
					}
				}
			}
		})
	}
}
