package sparse

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"gebe/internal/cpu"
	"gebe/internal/dense"
	"gebe/internal/simd"
)

// The SIMD flavor contract at the engine level: for every block width —
// aligned or not — and every thread count, the non-fused vector kernels must
// reproduce the scalar Go kernels bit for bit, and the fused flavor must
// stay within a tight relative tolerance. Widths 1..33 sweep both sides
// of every specialization (k4/k8/k16/panel8) plus the generic fallback;
// the adversarial matrices contribute empty rows, hub rows, and
// zero-nnz edges.

func bitsEqual(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return -1, true
}

// maxRelErr returns max |a-b| / max(1, |a|) over the slices.
func maxRelErr(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if s := math.Abs(a[i]); s > 1 {
			d /= s
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// fmaRelTol is the documented acceptance bound for the fused flavor:
// each fused multiply-add removes one rounding, so the divergence from
// the non-fused oracle stays well under n·ε for the sum lengths the
// engines see. (On arm64 the flavors alias, so the error is exactly 0.)
const fmaRelTol = 1e-12

func TestSparseSIMDEquivalenceSweep(t *testing.T) {
	if cpu.Resolve(cpu.KernelSIMD) != cpu.KernelSIMD {
		t.Skip("no SIMD kernels on this CPU")
	}
	hasFMA := cpu.Resolve(cpu.KernelFMA) == cpu.KernelFMA
	matrices := []*CSR{
		adversarialCSR(t, 60, 35, 500, 3),
		skewedCSR(t, 120, 40, 2000, 4),
		adversarialCSR(t, 40, 17, 0, 5), // fully empty
	}
	for mi, m := range matrices {
		for k := 1; k <= 33; k++ {
			b := dense.Random(m.Cols, k, rng(uint64(100*mi+k)))
			c := dense.Random(m.Rows, k, rng(uint64(100*mi+k)+7))
			for _, threads := range []int{1, 3} {
				tn := Tuning{Threads: threads, MinParallelNNZ: 1}
				name := fmt.Sprintf("m%d/k=%d/t=%d", mi, k, threads)

				tn.Kernels = cpu.KernelGo
				wantMul := m.MulDenseOpts(b, tn)
				wantT := m.TMulDenseOpts(c, tn)

				tn.Kernels = cpu.KernelSIMD
				gotMul := m.MulDenseOpts(b, tn)
				gotT := m.TMulDenseOpts(c, tn)
				if i, ok := bitsEqual(gotMul.Data, wantMul.Data); !ok {
					t.Fatalf("%s: SIMD MulDense diverges at %d: %v != %v", name, i, gotMul.Data[i], wantMul.Data[i])
				}
				if i, ok := bitsEqual(gotT.Data, wantT.Data); !ok {
					t.Fatalf("%s: SIMD TMulDense diverges at %d: %v != %v", name, i, gotT.Data[i], wantT.Data[i])
				}

				if !hasFMA {
					continue
				}
				tn.Kernels = cpu.KernelFMA
				if err := maxRelErr(m.MulDenseOpts(b, tn).Data, wantMul.Data); err > fmaRelTol {
					t.Fatalf("%s: FMA MulDense rel err %g > %g", name, err, fmaRelTol)
				}
				if err := maxRelErr(m.TMulDenseOpts(c, tn).Data, wantT.Data); err > fmaRelTol {
					t.Fatalf("%s: FMA TMulDense rel err %g > %g", name, err, fmaRelTol)
				}
			}
		}
	}
}

// TestSparseSIMDPoolRace forces the vector kernels onto the shared
// worker pool from many goroutines at once; with -race this pins the
// wrappers' aliasing discipline (private accumulators, disjoint row
// ranges).
func TestSparseSIMDPoolRace(t *testing.T) {
	if cpu.Resolve(cpu.KernelSIMD) != cpu.KernelSIMD {
		t.Skip("no SIMD kernels on this CPU")
	}
	m := skewedCSR(t, 400, 64, 8000, 21)
	b := dense.Random(m.Cols, 16, rng(22))
	c := dense.Random(m.Rows, 32, rng(23))
	goT := Tuning{Threads: 4, MinParallelNNZ: 1, Kernels: cpu.KernelGo}
	simdT := goT
	simdT.Kernels = cpu.KernelSIMD
	wantMul := m.MulDenseOpts(b, goT)
	wantT := m.TMulDenseOpts(c, goT)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for it := 0; it < 10; it++ {
				if _, ok := bitsEqual(m.MulDenseOpts(b, simdT).Data, wantMul.Data); !ok {
					done <- fmt.Errorf("concurrent SIMD MulDense diverged")
					return
				}
				if _, ok := bitsEqual(m.TMulDenseOpts(c, simdT).Data, wantT.Data); !ok {
					done <- fmt.Errorf("concurrent SIMD TMulDense diverged")
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSIMDKernelNames pins the flavor naming the metrics, bench tables,
// and manifests rely on: scalar names stay bare, vector names carry the
// instruction-set suffix.
func TestSIMDKernelNames(t *testing.T) {
	if _, name := dispatchMul(16, cpu.KernelGo); name != "k16" {
		t.Errorf("Go k16 kernel named %q, want k16", name)
	}
	if !simd.HasSIMD() {
		return
	}
	suffix := "+" + simd.SIMDName()
	for _, k := range []int{8, 16, 32} {
		if _, name := dispatchMul(k, cpu.KernelSIMD); !strings.HasSuffix(name, suffix) {
			t.Errorf("SIMD k=%d kernel named %q, want %q suffix", k, name, suffix)
		}
	}
	// Unspecialized widths fall back to the scalar kernel and its name.
	if _, name := dispatchMul(5, cpu.KernelSIMD); name != "generic" {
		t.Errorf("SIMD k=5 fell to %q, want generic", name)
	}
	if simd.HasFMA() {
		if _, name := dispatchMul(16, cpu.KernelFMA); !strings.HasSuffix(name, "+"+simd.FMAName()) {
			t.Errorf("FMA k16 kernel named %q, want +%s suffix", name, simd.FMAName())
		}
	}
}
