package dense

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"gebe/internal/cpu"
	"gebe/internal/simd"
)

// Engine-level SIMD flavor contract for the three GEMM orientations:
// the vector kernels reproduce the scalar kernels — and both reproduce
// the reference loops — bit for bit across widths 1..33 (both sides of
// every specialization), short and empty inner dimensions included.

func bitsEqual(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return -1, true
}

func TestDenseSIMDEquivalenceSweep(t *testing.T) {
	if cpu.Resolve(cpu.KernelSIMD) != cpu.KernelSIMD {
		t.Skip("no SIMD kernels on this CPU")
	}
	// ref, when set, is the reference loop's answer, which the Go
	// flavor (and so the SIMD one) must reproduce bit for bit.
	check := func(name string, simdOut, goOut, ref *Matrix) {
		t.Helper()
		if ref != nil {
			if i, ok := bitsEqual(goOut.Data, ref.Data); !ok {
				t.Fatalf("%s: Go kernels diverge from the reference at %d: %v != %v", name, i, goOut.Data[i], ref.Data[i])
			}
		}
		if i, ok := bitsEqual(simdOut.Data, goOut.Data); !ok {
			t.Fatalf("%s: SIMD diverges at %d: %v != %v", name, i, simdOut.Data[i], goOut.Data[i])
		}
	}
	for _, inner := range []int{0, 1, 2, 7, 40} {
		for k := 1; k <= 33; k++ {
			rows := 9
			a := Random(rows, inner, rng(uint64(inner*100+k)))
			b := Random(inner, k, rng(uint64(inner*100+k)+1))
			bt := Random(k, inner, rng(uint64(inner*100+k)+2)) // for A·Bᵀ, p=k
			c := Random(rows, k, rng(uint64(inner*100+k)+3))   // for Aᵀ·B, k2=k
			refMul, refMulT, refTMul := ReferenceMul(a, b), ReferenceMulT(a, bt), ReferenceTMul(a, c)
			for _, threads := range []int{1, 3} {
				goT := Tuning{Threads: threads, MinParallelFlops: 1, Kernels: cpu.KernelGo}
				sT := goT
				sT.Kernels = cpu.KernelSIMD
				name := fmt.Sprintf("inner=%d/k=%d/t=%d", inner, k, threads)
				check("mul/"+name, MulOpts(a, b, sT), MulOpts(a, b, goT), refMul)
				check("mult/"+name, MulTOpts(a, bt, sT), MulTOpts(a, bt, goT), refMulT)
				check("tmul/"+name, TMulOpts(a, c, sT), TMulOpts(a, c, goT), refTMul)
			}
		}
	}
	// Solver-scale operands. The reference side of these shapes is in
	// TestMulMatchesLegacyBitwise and its siblings; the Go kernels'
	// answers do not depend on the thread count, so they are computed
	// once. QR runs at the embedding width here (2000×96 is in
	// TestQRBitwiseAcrossThreadsAndFlavors; the Go QR at 2000×128 costs
	// about a second under -race).
	for _, sh := range tallShapes {
		n, k := sh[0], sh[1]
		a := Random(n, k, rng(uint64(n+k)))
		b := Random(n, k, rng(uint64(n+k)+1))
		s := Random(k, k, rng(uint64(n+k)+2))
		goT := Tuning{Threads: 1, Kernels: cpu.KernelGo}
		goMul, goMulT, goTMul := MulOpts(a, s, goT), MulTOpts(a, s, goT), TMulOpts(a, b, goT)
		var goQ, goR *Matrix
		if k <= 32 {
			goQ, goR = QROpts(a, goT)
		}
		for _, threads := range []int{1, 3} {
			sT := Tuning{Threads: threads, Kernels: cpu.KernelSIMD}
			name := fmt.Sprintf("%dx%d/t=%d", n, k, threads)
			check("mul/"+name, MulOpts(a, s, sT), goMul, nil)
			check("mult/"+name, MulTOpts(a, s, sT), goMulT, nil)
			check("tmul/"+name, TMulOpts(a, b, sT), goTMul, nil)
			if goQ != nil {
				sQ, sR := QROpts(a, sT)
				check("qr/Q/"+name, sQ, goQ, nil)
				check("qr/R/"+name, sR, goR, nil)
			}
		}
	}
}

// TestDenseSIMDPoolRace hammers the vector kernels on the shared pool
// from concurrent goroutines; with -race this pins the wrappers'
// aliasing discipline across partitioned output rows.
func TestDenseSIMDPoolRace(t *testing.T) {
	if cpu.Resolve(cpu.KernelSIMD) != cpu.KernelSIMD {
		t.Skip("no SIMD kernels on this CPU")
	}
	a := Random(300, 24, rng(51))
	b := Random(24, 16, rng(52))
	goT := Tuning{Threads: 4, MinParallelFlops: 1, Kernels: cpu.KernelGo}
	sT := goT
	sT.Kernels = cpu.KernelSIMD
	want := MulOpts(a, b, goT)
	wantT := TMulOpts(a, a, goT)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for it := 0; it < 10; it++ {
				if _, ok := bitsEqual(MulOpts(a, b, sT).Data, want.Data); !ok {
					done <- fmt.Errorf("concurrent SIMD Mul diverged")
					return
				}
				if _, ok := bitsEqual(TMulOpts(a, a, sT).Data, wantT.Data); !ok {
					done <- fmt.Errorf("concurrent SIMD TMul diverged")
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

// TestDenseSIMDKernelNames pins the flavor naming used by metrics and
// BENCH_DENSE.
func TestDenseSIMDKernelNames(t *testing.T) {
	if _, name := dispatchMul(32, cpu.KernelGo); name != "panel8" {
		t.Errorf("Go panel kernel named %q, want panel8", name)
	}
	if _, name := dispatchMulT(8, cpu.KernelGo); name != "dot4" {
		t.Errorf("Go dot4 kernel named %q, want dot4", name)
	}
	if _, name := dispatchTMul(8, 8, cpu.KernelGo); name != "b2x4" {
		t.Errorf("Go tile kernel named %q, want b2x4", name)
	}
	if !simd.HasSIMD() {
		return
	}
	suffix := "+" + simd.SIMDName()
	if _, name := dispatchMul(16, cpu.KernelSIMD); !strings.HasSuffix(name, suffix) {
		t.Errorf("SIMD k16 kernel named %q, want %q suffix", name, suffix)
	}
	if _, name := dispatchMulT(8, cpu.KernelSIMD); !strings.HasSuffix(name, suffix) {
		t.Errorf("SIMD dot4 kernel named %q, want %q suffix", name, suffix)
	}
	if _, name := dispatchTMul(8, 8, cpu.KernelSIMD); !strings.HasSuffix(name, suffix) {
		t.Errorf("SIMD tile kernel named %q, want %q suffix", name, suffix)
	}
	// Below the tile thresholds every flavor uses the scalar generic.
	if _, name := dispatchTMul(1, 3, cpu.KernelSIMD); name != "generic" {
		t.Errorf("sub-tile TMul dispatched %q, want generic", name)
	}
}
