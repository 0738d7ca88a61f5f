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
// aligned or not — and every thread count, the vector kernels must
// reproduce the scalar Go kernels bit for bit. Widths 1..33 sweep both
// sides of every specialization (k4/k8/k16/panel8) plus the generic
// fallback; the adversarial matrices contribute empty rows, hub rows,
// and zero-nnz edges.

func bitsEqual(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return -1, true
}

func TestSparseSIMDEquivalenceSweep(t *testing.T) {
	if cpu.Resolve(cpu.KernelSIMD) != cpu.KernelSIMD {
		t.Skip("no SIMD kernels on this CPU")
	}
	compare := func(name string, m *CSR, k int, seed uint64, threadSet []int) {
		t.Helper()
		b := dense.Random(m.Cols, k, rng(seed))
		c := dense.Random(m.Rows, k, rng(seed+7))
		for _, threads := range threadSet {
			tn := Tuning{Threads: threads, MinParallelNNZ: 1}
			name := fmt.Sprintf("%s/k=%d/t=%d", name, k, threads)

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
		}
	}
	matrices := []*CSR{
		adversarialCSR(t, 60, 35, 500, 3),
		skewedCSR(t, 120, 40, 2000, 4),
		adversarialCSR(t, 40, 17, 0, 5), // fully empty
	}
	for mi, m := range matrices {
		for k := 1; k <= 33; k++ {
			compare(fmt.Sprintf("m%d", mi), m, k, uint64(100*mi+k), []int{1, 3})
		}
	}
	wide := wideCSR(t)
	for _, k := range []int{8, 32} {
		compare("wide", wide, k, uint64(900+k), []int{1, 4})
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
}

// holeyCSR builds a rows×cols matrix whose first, middle and last rows
// and columns are empty (the middle ones as a consecutive pair) and
// whose second row and second column hold a single entry each, so both
// the W·B and the Wᵀ·B gathers meet every empty-row position and a
// one-entry row.
func holeyCSR(t testing.TB, rows, cols, nnz int, seed uint64) *CSR {
	r := rng(seed)
	emptyR := map[int]bool{0: true, rows / 2: true, rows/2 + 1: true, rows - 1: true}
	emptyC := map[int]bool{0: true, cols / 2: true, cols/2 + 1: true, cols - 1: true}
	entries := []Entry{{Row: 1, Col: 2, Val: 0.5}, {Row: 2, Col: 1, Val: -0.25}}
	for len(entries) < nnz {
		i, j := r.IntN(rows), r.IntN(cols)
		if emptyR[i] || emptyC[j] || i == 1 || j == 1 {
			continue
		}
		entries = append(entries, Entry{Row: i, Col: j, Val: r.Float64()*2 - 1})
	}
	m, err := New(rows, cols, entries)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

// nanMatrix returns a rows×cols matrix filled with NaN: a destination
// that proves every element was written.
func nanMatrix(rows, cols int) *dense.Matrix {
	m := dense.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = math.NaN()
	}
	return m
}

// TestRangeKernelIntoBitwise pins the range kernels behind MulDenseInto
// and TMulDenseInto: written into NaN-prefilled destinations, the Go and
// SIMD flavors reproduce the reference loops bit for bit in both
// directions at every panel width GEBE uses, on one and two threads,
// with empty first/middle/last/consecutive rows and single-entry rows.
func TestRangeKernelIntoBitwise(t *testing.T) {
	flavors := []cpu.KernelMode{cpu.KernelGo}
	if cpu.Resolve(cpu.KernelSIMD) == cpu.KernelSIMD {
		flavors = append(flavors, cpu.KernelSIMD)
	}
	m := holeyCSR(t, 41, 29, 300, 61)
	for _, k := range []int{8, 16, 24, 32, 40, 64, 128} {
		b := dense.Random(m.Cols, k, rng(uint64(k)))
		c := dense.Random(m.Rows, k, rng(uint64(k)+1))
		wantMul := m.ReferenceMulDense(b)
		wantT := m.ReferenceTMulDense(c)
		for _, threads := range []int{1, 2} {
			for _, fl := range flavors {
				tn := Tuning{Threads: threads, MinParallelNNZ: 1, Kernels: fl}
				name := fmt.Sprintf("k=%d/t=%d/%v", k, threads, fl)
				if i, ok := bitsEqual(m.MulDenseInto(nanMatrix(m.Rows, k), b, tn).Data, wantMul.Data); !ok {
					t.Fatalf("%s: MulDenseInto diverges from the reference at %d", name, i)
				}
				if i, ok := bitsEqual(m.TMulDenseInto(nanMatrix(m.Cols, k), c, tn).Data, wantT.Data); !ok {
					t.Fatalf("%s: TMulDenseInto diverges from the reference at %d", name, i)
				}
			}
		}
	}
}
