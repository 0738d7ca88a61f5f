package main

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"time"

	"gebe/internal/cpu"
	"gebe/internal/dense"
	"gebe/internal/obs"
	"gebe/internal/sparse"
)

// The -kernels microbench compares the pre-engine SpMM reference loops
// (sparse.ReferenceMulDense/ReferenceTMulDense) against the shape-aware
// engine on synthetic matrices chosen to cover the shapes GEBE actually
// produces: a uniform tall W, a power-law-skewed tall W, and the
// short-and-wide Wᵀ-block orientation where the cached-transpose gather
// replaces the reference scatter. Each cell also cross-checks the two:
// the outputs must agree to ~1e-10, and the engine must book exactly
// nnz·k multiply-adds on the sparse_spmm_fma_total counter (the
// reference loops are not instrumented).

// spmmCell is one (shape, op, k, threads) measurement in BENCH_SPMM.json.
type spmmCell struct {
	Shape         string  `json:"shape"`
	Rows          int     `json:"rows"`
	Cols          int     `json:"cols"`
	NNZ           int     `json:"nnz"`
	Op            string  `json:"op"` // "mul" (W·B) or "tmul" (Wᵀ·B)
	K             int     `json:"k"`
	Threads       int     `json:"threads"`
	LegacySeconds float64 `json:"legacy_seconds"`
	TunedSeconds  float64 `json:"tuned_seconds"`
	Speedup       float64 `json:"speedup"`
	MaxAbsDiff    float64 `json:"max_abs_diff"`
	FMAPerCall    float64 `json:"fma_per_call"`
	FMAMatch      bool    `json:"fma_match"`
	// The kernel-flavor grid: the tuned engine timed with each flavor
	// pinned through Tuning.Kernels. SIMD cells are zero when the CPU
	// has no vector kernels (or under -tags purego); SIMDSpeedup is
	// go_seconds / simd_seconds, the number the regress floor gates.
	GoSeconds   float64 `json:"go_seconds,omitempty"`
	SIMDSeconds float64 `json:"simd_seconds,omitempty"`
	SIMDSpeedup float64 `json:"simd_speedup,omitempty"`
	SIMDBitwise bool    `json:"simd_bitwise"`
}

// spmmReport is the Rows payload of the SPMM entry in the -json report.
type spmmReport struct {
	GOMAXPROCS  int                `json:"gomaxprocs"`
	CPUFeatures string             `json:"cpu_features"`
	Kernels     string             `json:"kernels"`
	Cells       []spmmCell         `json:"cells"`
	Summary     map[string]float64 `json:"summary"`
}

// benchBitsEqual reports whether two engine outputs are bitwise
// identical — the contract the SIMD flavor makes with the Go kernels.
func benchBitsEqual(a, b *dense.Matrix) bool {
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

type spmmShape struct {
	name       string
	rows, cols int
	nnz        int
	skewed     bool
}

// benchCSR builds a random CSR test matrix. Skewed row lengths follow a
// cubed-uniform draw, concentrating nonzeros in a few hub rows the way
// power-law bipartite degree sequences do.
func benchCSR(s spmmShape, seed uint64) *sparse.CSR {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
	entries := make([]sparse.Entry, 0, s.nnz)
	for len(entries) < s.nnz {
		var r int
		if s.skewed {
			u := rng.Float64()
			r = int(u * u * u * float64(s.rows))
		} else {
			r = rng.IntN(s.rows)
		}
		if r >= s.rows {
			r = s.rows - 1
		}
		entries = append(entries, sparse.Entry{
			Row: r, Col: rng.IntN(s.cols), Val: rng.Float64() + 0.5,
		})
	}
	m, err := sparse.New(s.rows, s.cols, entries)
	if err != nil {
		panic(err) // unreachable: entries are generated in range
	}
	return m
}

// timeProduct reports the average wall-clock of f over enough
// repetitions to accumulate minSpan (after one untimed warm-up call).
func timeProduct(f func(), minSpan time.Duration) float64 {
	f()
	var reps int
	start := time.Now()
	for time.Since(start) < minSpan {
		f()
		reps++
	}
	return time.Since(start).Seconds() / float64(reps)
}

// fmaForCall runs f once against a fresh metrics registry and returns
// the multiply-adds it booked on sparse_spmm_fma_total.
func fmaForCall(f func()) float64 {
	reg := obs.NewRegistry()
	sparse.EnableMetrics(reg)
	defer sparse.EnableMetrics(nil)
	f()
	return reg.Counter("sparse_spmm_fma_total", "").Value()
}

// runKernelBench executes the SpMM microbench grid and returns the
// BENCH_SPMM.json payload. Progress goes to out as one line per cell.
func runKernelBench(out io.Writer, gomaxprocs int) spmmReport {
	shapes := []spmmShape{
		{name: "uniform-tall", rows: 30000, cols: 8000, nnz: 600000},
		{name: "skewed-tall", rows: 30000, cols: 8000, nnz: 600000, skewed: true},
		// The Wᵀ-block orientation: few rows, many columns. This is the
		// shape TMulDense sees inside H·Q, where the cached-transpose
		// gather retires the reference per-worker scatter accumulators.
		{name: "skewed-wide", rows: 8000, cols: 30000, nnz: 600000, skewed: true},
	}
	ks := []int{5, 8, 16, 32}
	threadSet := []int{1, 4}
	const minSpan = 200 * time.Millisecond
	hasSIMD := cpu.Resolve(cpu.KernelSIMD) == cpu.KernelSIMD

	rep := spmmReport{
		GOMAXPROCS:  gomaxprocs,
		CPUFeatures: cpu.Supported().Summary(),
		Kernels:     cpu.Resolve(cpu.KernelAuto).String(),
		Summary:     map[string]float64{},
	}
	fmt.Fprintf(out, "%-14s %-5s %3s %3s  %12s %12s %8s %10s %12s %12s %7s\n",
		"shape", "op", "k", "thr", "legacy", "tuned", "speedup", "maxdiff", "go", "simd", "simdx")
	for si, s := range shapes {
		m := benchCSR(s, uint64(100+si))
		m.Transpose() // pay the cached build before any timed tmul
		for _, k := range ks {
			b := dense.Random(m.Cols, k, rand.New(rand.NewPCG(7, uint64(k))))
			bt := dense.Random(m.Rows, k, rand.New(rand.NewPCG(9, uint64(k))))
			for _, op := range []string{"mul", "tmul"} {
				for _, th := range threadSet {
					tuned := sparse.Tuning{Threads: th}
					goT, sT := tuned, tuned
					goT.Kernels, sT.Kernels = cpu.KernelGo, cpu.KernelSIMD
					var runLegacy, runTuned func()
					var ref, got *dense.Matrix
					var flavor func(sparse.Tuning) *dense.Matrix
					if op == "mul" {
						runLegacy = func() { ref = m.ReferenceMulDense(b, th) }
						runTuned = func() { got = m.MulDenseOpts(b, tuned) }
						flavor = func(t sparse.Tuning) *dense.Matrix { return m.MulDenseOpts(b, t) }
					} else {
						runLegacy = func() { ref = m.ReferenceTMulDense(bt, th) }
						runTuned = func() { got = m.TMulDenseOpts(bt, tuned) }
						flavor = func(t sparse.Tuning) *dense.Matrix { return m.TMulDenseOpts(bt, t) }
					}
					cell := spmmCell{
						Shape: s.name, Rows: s.rows, Cols: s.cols, NNZ: m.NNZ(),
						Op: op, K: k, Threads: th,
						FMAPerCall:  float64(m.NNZ()) * float64(k),
						SIMDBitwise: true,
					}
					runLegacy()
					cell.FMAMatch = fmaForCall(runTuned) == cell.FMAPerCall
					cell.MaxAbsDiff = dense.Sub(ref, got).MaxAbs()
					cell.LegacySeconds = timeProduct(runLegacy, minSpan)
					cell.TunedSeconds = timeProduct(runTuned, minSpan)
					if cell.TunedSeconds > 0 {
						cell.Speedup = cell.LegacySeconds / cell.TunedSeconds
					}
					goOut := flavor(goT)
					cell.GoSeconds = timeProduct(func() { flavor(goT) }, minSpan)
					if hasSIMD {
						cell.SIMDBitwise = benchBitsEqual(goOut, flavor(sT))
						cell.SIMDSeconds = timeProduct(func() { flavor(sT) }, minSpan)
						if cell.SIMDSeconds > 0 {
							cell.SIMDSpeedup = cell.GoSeconds / cell.SIMDSeconds
						}
					}
					rep.Cells = append(rep.Cells, cell)
					fmt.Fprintf(out, "%-14s %-5s %3d %3d  %10.3fms %10.3fms %7.2fx %10.2e %10.3fms %10.3fms %6.2fx\n",
						s.name, op, k, th,
						cell.LegacySeconds*1e3, cell.TunedSeconds*1e3,
						cell.Speedup, cell.MaxAbsDiff,
						cell.GoSeconds*1e3, cell.SIMDSeconds*1e3, cell.SIMDSpeedup)
				}
			}
		}
	}

	// Summary scalars the CI acceptance check and README point at.
	allFMA, maxDiff := 1.0, 0.0
	tmulSkewedMin, mulBest := 0.0, 0.0
	simdBitwise := 1.0
	k16Best, panel8Best := 0.0, 0.0
	for _, c := range rep.Cells {
		if !c.FMAMatch {
			allFMA = 0
		}
		if c.MaxAbsDiff > maxDiff {
			maxDiff = c.MaxAbsDiff
		}
		if !c.SIMDBitwise {
			simdBitwise = 0
		}
		if c.K == 16 && c.SIMDSpeedup > k16Best {
			k16Best = c.SIMDSpeedup
		}
		if c.K >= 24 && c.K%8 == 0 && c.SIMDSpeedup > panel8Best {
			panel8Best = c.SIMDSpeedup
		}
		// Headline numbers cover the block widths GEBE embeds at (k≥8;
		// the paper sweeps k∈{16..128}) — at k=5 the reference scatter's
		// accumulator footprint is too small for the gather to matter.
		if c.Op == "tmul" && c.Shape == "skewed-wide" && c.Threads == 4 && c.K >= 8 &&
			(tmulSkewedMin == 0 || c.Speedup < tmulSkewedMin) {
			tmulSkewedMin = c.Speedup
		}
		if c.Op == "mul" && c.Speedup > mulBest {
			mulBest = c.Speedup
		}
	}
	rep.Summary["tmul_skewed_wide_speedup_min_t4"] = tmulSkewedMin
	rep.Summary["mul_speedup_best"] = mulBest
	rep.Summary["all_fma_match"] = allFMA
	rep.Summary["max_abs_diff"] = maxDiff
	rep.Summary["simd_bitwise"] = simdBitwise
	rep.Summary["simd_speedup_k16_best"] = k16Best
	rep.Summary["simd_speedup_panel8_best"] = panel8Best
	fmt.Fprintf(out, "\nTMulDense skewed-wide speedup (min, 4 threads): %.2fx\n", tmulSkewedMin)
	fmt.Fprintf(out, "MulDense best speedup: %.2fx; fma counts match nnz·k: %v; max |diff|: %.2e\n",
		mulBest, allFMA == 1, maxDiff)
	fmt.Fprintf(out, "SIMD (%s, default %s): bitwise %v, k16 best %.2fx, panel8 best %.2fx\n",
		rep.CPUFeatures, rep.Kernels, simdBitwise == 1, k16Best, panel8Best)
	return rep
}
