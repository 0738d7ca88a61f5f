package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"time"

	"gebe/internal/cpu"
	"gebe/internal/dense"
	"gebe/internal/obs"
)

// The -dense microbench compares the pre-engine dense reference loops
// (dense.Reference*: serial generic GEMM loops, column-order Householder
// QR) against the engine (register-blocked kernels, compact-WY blocked
// QR) on the tall-block shapes the solvers produce: n×k operands with n
// the node count and k the embedding or Krylov width. Each cell
// cross-checks the two — outputs must agree to 1e-12 (the sequential
// GEMM paths are bitwise identical by construction; the parallel Aᵀ·B
// reduction and the blocked QR, which reassociates the reflector sums
// and is held to backward-error bounds in its tests, differ by
// round-off) — and the engine must book the operation's shape formula on
// dense_gemm_fma_total (the reference loops are not instrumented).

// denseCell is one (op, n, k) measurement in BENCH_DENSE.json.
type denseCell struct {
	Op            string  `json:"op"` // "mul" (A·B), "tmul" (Aᵀ·B), "mult" (A·Bᵀ), "qr"
	N             int     `json:"n"`
	K             int     `json:"k"`
	LegacySeconds float64 `json:"legacy_seconds"`
	TunedSeconds  float64 `json:"tuned_seconds"`
	Speedup       float64 `json:"speedup"`
	MaxAbsDiff    float64 `json:"max_abs_diff"`
	FMAPerCall    float64 `json:"fma_per_call"`
	FMAMatch      bool    `json:"fma_match"`
	// The kernel-flavor grid, mirroring the SPMM cells: tuned engine
	// timed with Tuning.Kernels pinned to each flavor. Zero SIMD fields
	// mean no vector kernels on this CPU (or -tags purego).
	GoSeconds   float64 `json:"go_seconds,omitempty"`
	SIMDSeconds float64 `json:"simd_seconds,omitempty"`
	SIMDSpeedup float64 `json:"simd_speedup,omitempty"`
	SIMDBitwise bool    `json:"simd_bitwise"`
}

// denseReport is the Rows payload of the DENSE entry in the -json report.
type denseReport struct {
	GOMAXPROCS  int                `json:"gomaxprocs"`
	CPUFeatures string             `json:"cpu_features"`
	Kernels     string             `json:"kernels"`
	Cells       []denseCell        `json:"cells"`
	Summary     map[string]float64 `json:"summary"`
}

// denseFMAForCall runs f once against a fresh metrics registry and
// returns the multiply-adds it booked on dense_gemm_fma_total.
func denseFMAForCall(f func()) float64 {
	reg := obs.NewRegistry()
	dense.EnableMetrics(reg)
	defer dense.EnableMetrics(nil)
	f()
	return reg.Counter("dense_gemm_fma_total", "").Value()
}

// denseShapeFMA is the multiply-add count the engine must book for one
// cell: rows·inner·cols for the three products (every operand here is
// n×k or k×k), and for QR the Householder factorization plus thin-Q
// formation, 2nk² − 2k³/3 + 2nk².
func denseShapeFMA(op string, n, k int) float64 {
	fn, fk := float64(n), float64(k)
	if op == "qr" {
		return 2*fn*fk*fk - 2*fk*fk*fk/3 + 2*fn*fk*fk
	}
	return fn * fk * fk
}

// runDenseBench executes the dense engine microbench grid and returns
// the BENCH_DENSE.json payload. quick shrinks the grid and the timing
// span to CI-smoke size.
func runDenseBench(out io.Writer, gomaxprocs int, quick bool) denseReport {
	ns := []int{2000, 20000}
	ks := []int{8, 16, 32, 128}
	minSpan := 200 * time.Millisecond
	if quick {
		ns = []int{2000}
		ks = []int{8, 16, 32}
		minSpan = 50 * time.Millisecond
	}
	tuned := dense.Tuning{Threads: gomaxprocs}
	goT, sT := tuned, tuned
	goT.Kernels, sT.Kernels = cpu.KernelGo, cpu.KernelSIMD
	hasSIMD := cpu.Resolve(cpu.KernelSIMD) == cpu.KernelSIMD

	rep := denseReport{
		GOMAXPROCS:  gomaxprocs,
		CPUFeatures: cpu.Supported().Summary(),
		Kernels:     cpu.Resolve(cpu.KernelAuto).String(),
		Summary:     map[string]float64{},
	}
	fmt.Fprintf(out, "%-5s %6s %4s  %12s %12s %8s %10s %12s %12s %7s\n",
		"op", "n", "k", "legacy", "tuned", "speedup", "maxdiff", "go", "simd", "simdx")
	for _, n := range ns {
		for _, k := range ks {
			a := dense.Random(n, k, rand.New(rand.NewPCG(11, uint64(n+k))))
			b := dense.Random(n, k, rand.New(rand.NewPCG(13, uint64(n-k))))
			s := dense.Random(k, k, rand.New(rand.NewPCG(17, uint64(k))))
			for _, op := range []string{"mul", "tmul", "mult", "qr"} {
				var runLegacy, runTuned func()
				var ref, got *dense.Matrix
				var refR, gotR *dense.Matrix
				var flavor func(dense.Tuning) (*dense.Matrix, *dense.Matrix)
				switch op {
				case "mul": // tall · small: the KSI projection shape
					runLegacy = func() { ref = dense.ReferenceMul(a, s) }
					runTuned = func() { got = dense.MulOpts(a, s, tuned) }
					flavor = func(t dense.Tuning) (*dense.Matrix, *dense.Matrix) { return dense.MulOpts(a, s, t), nil }
				case "tmul": // tallᵀ · tall: the Gram/subspace-overlap shape
					runLegacy = func() { ref = dense.ReferenceTMul(a, b) }
					runTuned = func() { got = dense.TMulOpts(a, b, tuned) }
					flavor = func(t dense.Tuning) (*dense.Matrix, *dense.Matrix) { return dense.TMulOpts(a, b, t), nil }
				case "mult": // tall · smallᵀ: the eval scoring shape
					runLegacy = func() { ref = dense.ReferenceMulT(a, s) }
					runTuned = func() { got = dense.MulTOpts(a, s, tuned) }
					flavor = func(t dense.Tuning) (*dense.Matrix, *dense.Matrix) { return dense.MulTOpts(a, s, t), nil }
				case "qr":
					runLegacy = func() { ref, refR = dense.ReferenceQR(a) }
					runTuned = func() { got, gotR = dense.QROpts(a, tuned) }
					flavor = func(t dense.Tuning) (*dense.Matrix, *dense.Matrix) { q, r := dense.QROpts(a, t); return q, r }
				}
				cell := denseCell{Op: op, N: n, K: k, SIMDBitwise: true}
				runLegacy()
				cell.FMAPerCall = denseFMAForCall(runTuned)
				cell.FMAMatch = cell.FMAPerCall == denseShapeFMA(op, n, k)
				cell.MaxAbsDiff = dense.Sub(ref, got).MaxAbs()
				if op == "qr" {
					if d := dense.Sub(refR, gotR).MaxAbs(); d > cell.MaxAbsDiff {
						cell.MaxAbsDiff = d
					}
				}
				cell.LegacySeconds = timeProduct(runLegacy, minSpan)
				cell.TunedSeconds = timeProduct(runTuned, minSpan)
				if cell.TunedSeconds > 0 {
					cell.Speedup = cell.LegacySeconds / cell.TunedSeconds
				}
				goOut, goOutR := flavor(goT)
				cell.GoSeconds = timeProduct(func() { flavor(goT) }, minSpan)
				if hasSIMD {
					sOut, sOutR := flavor(sT)
					cell.SIMDBitwise = benchBitsEqual(goOut, sOut) &&
						(sOutR == nil || benchBitsEqual(goOutR, sOutR))
					cell.SIMDSeconds = timeProduct(func() { flavor(sT) }, minSpan)
					if cell.SIMDSeconds > 0 {
						cell.SIMDSpeedup = cell.GoSeconds / cell.SIMDSeconds
					}
				}
				rep.Cells = append(rep.Cells, cell)
				fmt.Fprintf(out, "%-5s %6d %4d  %10.3fms %10.3fms %7.2fx %10.2e %10.3fms %10.3fms %6.2fx\n",
					op, n, k, cell.LegacySeconds*1e3, cell.TunedSeconds*1e3,
					cell.Speedup, cell.MaxAbsDiff,
					cell.GoSeconds*1e3, cell.SIMDSeconds*1e3, cell.SIMDSpeedup)
			}
		}
	}

	// Summary scalars the CI acceptance check and README point at.
	allFMA, maxDiff := 1.0, 0.0
	qrBest, qrMin := 0.0, 0.0
	simdBitwise := 1.0
	k16Best, panel8Best := 0.0, 0.0
	gemmBest := map[string]float64{"mul": 0, "tmul": 0, "mult": 0}
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
		if c.Op == "qr" {
			if c.Speedup > qrBest {
				qrBest = c.Speedup
			}
			// Min over k≥16: at k=8 the factorization is a single panel,
			// so blocking has nothing to aggregate and engine and reference
			// roughly tie (same convention as the SpMM summary, whose
			// minimum skips the break-even tiny blocks).
			if c.K >= 16 && (qrMin == 0 || c.Speedup < qrMin) {
				qrMin = c.Speedup
			}
			continue
		}
		if c.Speedup > gemmBest[c.Op] {
			gemmBest[c.Op] = c.Speedup
		}
	}
	rep.Summary["qr_speedup_best"] = qrBest
	rep.Summary["qr_speedup_min"] = qrMin
	rep.Summary["mul_speedup_best"] = gemmBest["mul"]
	rep.Summary["tmul_speedup_best"] = gemmBest["tmul"]
	rep.Summary["mult_speedup_best"] = gemmBest["mult"]
	rep.Summary["all_fma_match"] = allFMA
	rep.Summary["max_abs_diff"] = maxDiff
	rep.Summary["simd_bitwise"] = simdBitwise
	rep.Summary["simd_speedup_k16_best"] = k16Best
	rep.Summary["simd_speedup_panel8_best"] = panel8Best
	fmt.Fprintf(out, "\nQR speedup: min %.2fx (k≥16), best %.2fx\n", qrMin, qrBest)
	fmt.Fprintf(out, "GEMM best speedup: mul %.2fx, tmul %.2fx, mult %.2fx\n",
		gemmBest["mul"], gemmBest["tmul"], gemmBest["mult"])
	fmt.Fprintf(out, "fma counts match the shape formula: %v; max |diff|: %.2e\n", allFMA == 1, maxDiff)
	fmt.Fprintf(out, "SIMD (%s, default %s): bitwise %v, k16 best %.2fx, panel8 best %.2fx\n",
		rep.CPUFeatures, rep.Kernels, simdBitwise == 1, k16Best, panel8Best)
	return rep
}
