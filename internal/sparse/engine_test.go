package sparse

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"gebe/internal/cpu"
	"gebe/internal/dense"
	"gebe/internal/obs"
)

// adversarialCSR builds a matrix with the shapes that break naive
// scheduling: a leading block of empty rows, one hub row holding ~40% of
// the nonzeros (the power-law tail), a hub column, and a sparse random
// remainder. Some rows/cols stay empty.
func adversarialCSR(t testing.TB, rows, cols, nnz int, seed uint64) *CSR {
	r := rng(seed)
	entries := make([]Entry, 0, nnz)
	hubRow := rows / 2
	hubCol := cols / 3
	for i := 0; i < nnz; i++ {
		var e Entry
		switch {
		case i < nnz*4/10: // hub row
			e = Entry{Row: hubRow, Col: r.IntN(cols), Val: r.Float64()*2 - 1}
		case i < nnz*5/10: // hub column
			e = Entry{Row: r.IntN(rows), Col: hubCol, Val: r.Float64()*2 - 1}
		default: // random fill, skipping the first rows to keep them empty
			row := r.IntN(rows)
			if row < 3 && rows > 6 {
				row += 3
			}
			e = Entry{Row: row, Col: r.IntN(cols), Val: r.Float64()*2 - 1}
		}
		entries = append(entries, e)
	}
	m, err := New(rows, cols, entries)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

// skewedCSR draws row indices from a heavily skewed (cubed-uniform)
// distribution, approximating the power-law degree sequences of the
// paper's datasets; uniformCSR is the balanced control.
func skewedCSR(t testing.TB, rows, cols, nnz int, seed uint64) *CSR {
	m, err := newSkewed(rows, cols, nnz, seed)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func newSkewed(rows, cols, nnz int, seed uint64) (*CSR, error) {
	r := rng(seed)
	entries := make([]Entry, nnz)
	for i := range entries {
		u := r.Float64()
		row := int(u * u * u * float64(rows))
		if row >= rows {
			row = rows - 1
		}
		entries[i] = Entry{Row: row, Col: r.IntN(cols), Val: r.Float64()*2 - 1}
	}
	return New(rows, cols, entries)
}

// wideOnce builds the matrix wideCSR returns once per test binary.
var wideOnce = sync.OnceValues(func() (*CSR, error) {
	return newSkewed(8000, 30000, 200000, 95)
})

// wideCSR is the skewed short-and-wide orientation at scale: the shape
// TMulDense meets inside H·Q, with hub rows thousands of entries long
// and enough nonzeros that every thread count partitions real work.
// The unit sweeps' matrices stop at 200 columns and 2000 nonzeros.
// Callers share it and must not modify it.
func wideCSR(t testing.TB) *CSR {
	m, err := wideOnce()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

// TestEngineEquivalenceAdversarial pins every kernel width and thread
// count to the dense reference on shapes chosen to break them: empty
// rows, hub rows/columns, and every block width from 1 through 17
// (covering each specialized kernel, the panel path, and the generic
// fallback on either side of them).
func TestEngineEquivalenceAdversarial(t *testing.T) {
	shapes := []struct {
		rows, cols, nnz int
	}{
		{1, 9, 5},   // single row
		{9, 1, 5},   // single column
		{40, 17, 0}, // empty matrix
		{60, 30, 400},
		{31, 200, 900}, // short and wide
	}
	for _, sh := range shapes {
		m := adversarialCSR(t, sh.rows, sh.cols, sh.nnz, uint64(sh.rows*1000+sh.cols))
		md := m.ToDense()
		mdT := md.T()
		for k := 1; k <= 17; k++ {
			b := dense.Random(sh.cols, k, rng(uint64(k)))
			c := dense.Random(sh.rows, k, rng(uint64(k)+99))
			wantMul := dense.Mul(md, b)
			wantTMul := dense.Mul(mdT, c)
			for _, threads := range []int{1, 4} {
				// Force the parallel path even on tiny shapes.
				tn := Tuning{Threads: threads, MinParallelNNZ: 1}
				name := fmt.Sprintf("%dx%d/k=%d/t=%d", sh.rows, sh.cols, k, threads)
				if got := m.MulDenseOpts(b, tn); !dense.Equal(got, wantMul, 1e-10) {
					t.Errorf("%s: MulDense mismatch", name)
				}
				if got := m.TMulDenseOpts(c, tn); !dense.Equal(got, wantTMul, 1e-10) {
					t.Errorf("%s: TMulDense mismatch", name)
				}
			}
		}
		// Vector paths (k=1 lowering).
		x := dense.Random(sh.cols, 1, rng(7)).Data
		y := dense.Random(sh.rows, 1, rng(8)).Data
		tn := Tuning{Threads: 4, MinParallelNNZ: 1}
		mx := m.MulVecOpts(x, tn)
		for i := range mx {
			if math.Abs(mx[i]-dense.Dot(md.Row(i), x)) > 1e-10 {
				t.Fatalf("%dx%d: MulVec row %d mismatch", sh.rows, sh.cols, i)
			}
		}
		my := m.TMulVecOpts(y, tn)
		for j := range my {
			if math.Abs(my[j]-dense.Dot(mdT.Row(j), y)) > 1e-10 {
				t.Fatalf("%dx%d: TMulVec col %d mismatch", sh.rows, sh.cols, j)
			}
		}
	}
}

// TestEngineMatchesReferenceBitwise pins the engine to the reference
// loops it replaced: a sequential engine product accumulates every
// output element in the same ascending order as the reference (the
// cached transpose lists each column's entries by ascending row, which
// is the order the reference scatter visits them), so the results are
// bitwise equal for every width 1..33 and for the Go and SIMD flavors
// alike. The parallel engine only moves row boundaries, never a sum, so
// it must match the serial reference bitwise too, including on the
// 8000×30000 skewed shape where every worker gets real work.
func TestEngineMatchesReferenceBitwise(t *testing.T) {
	flavors := []cpu.KernelMode{cpu.KernelGo}
	if cpu.Resolve(cpu.KernelSIMD) == cpu.KernelSIMD {
		flavors = append(flavors, cpu.KernelSIMD)
	}
	compare := func(name string, m *CSR, k int, seed uint64, fls []cpu.KernelMode, threadSet []int) {
		t.Helper()
		b := dense.Random(m.Cols, k, rng(seed))
		c := dense.Random(m.Rows, k, rng(seed+7))
		wantMul := m.ReferenceMulDense(b)
		wantT := m.ReferenceTMulDense(c)
		for _, fl := range fls {
			for _, threads := range threadSet {
				tn := Tuning{Threads: threads, MinParallelNNZ: 1, Kernels: fl}
				name := fmt.Sprintf("%s/k=%d/%v/t=%d", name, k, fl, threads)
				if i, ok := bitsEqual(m.MulDenseOpts(b, tn).Data, wantMul.Data); !ok {
					t.Fatalf("%s: MulDense diverges from the reference at %d", name, i)
				}
				if i, ok := bitsEqual(m.TMulDenseOpts(c, tn).Data, wantT.Data); !ok {
					t.Fatalf("%s: TMulDense diverges from the reference at %d", name, i)
				}
			}
		}
	}
	matrices := []*CSR{
		adversarialCSR(t, 60, 35, 500, 3),
		skewedCSR(t, 120, 40, 2000, 4),
		adversarialCSR(t, 40, 17, 0, 5), // fully empty
		adversarialCSR(t, 31, 200, 900, 6),
	}
	for mi, m := range matrices {
		for k := 1; k <= 33; k++ {
			compare(fmt.Sprintf("m%d", mi), m, k, uint64(100*mi+k), flavors, []int{1, 3})
		}
	}
	// At scale, the default flavor alone: TestSparseSIMDEquivalenceSweep
	// holds the Go kernels to it bit for bit on the same shape.
	wide := wideCSR(t)
	for _, k := range []int{8, 32} {
		compare("wide", wide, k, uint64(900+k), flavors[len(flavors)-1:], []int{1, 4})
	}
}

func TestNNZPartitionProperties(t *testing.T) {
	cases := []*CSR{
		adversarialCSR(t, 100, 50, 2000, 1),
		skewedCSR(t, 500, 40, 8000, 2),
		randomCSR(t, 64, 64, 1000, 3),
	}
	for ci, m := range cases {
		total := m.NNZ()
		maxRow := 0
		for i := 0; i < m.Rows; i++ {
			if d := m.RowPtr[i+1] - m.RowPtr[i]; d > maxRow {
				maxRow = d
			}
		}
		for _, nw := range []int{1, 2, 3, 7, 16} {
			bounds := nnzPartition(m.RowPtr, nw)
			if len(bounds) != nw+1 || bounds[0] != 0 || bounds[nw] != m.Rows {
				t.Fatalf("case %d nw=%d: bad boundary array %v", ci, nw, bounds)
			}
			ideal := (total + nw - 1) / nw
			for w := 0; w < nw; w++ {
				if bounds[w] > bounds[w+1] {
					t.Fatalf("case %d nw=%d: non-monotone bounds %v", ci, nw, bounds)
				}
				part := m.RowPtr[bounds[w+1]] - m.RowPtr[bounds[w]]
				// A part can exceed the even share by at most one row's
				// nonzeros (the straddling row stays whole).
				if part > ideal+maxRow {
					t.Errorf("case %d nw=%d part %d: %d nnz exceeds ideal %d + max row %d",
						ci, nw, w, part, ideal, maxRow)
				}
			}
		}
	}
}

// TestWorkersGateOnNNZ pins the satellite fix: the parallelism gate keys
// on nonzeros, so a short-and-wide matrix with many nonzeros (a Wᵀ block)
// parallelizes while a tall near-empty one stays sequential.
func TestWorkersGateOnNNZ(t *testing.T) {
	tn := Tuning{Threads: 8}
	if got := tn.workers(1_000_000, 100); got != 8 {
		t.Errorf("short-and-wide with 1M nnz: workers=%d, want 8", got)
	}
	if got := tn.workers(100, 1_000_000); got != 1 {
		t.Errorf("tall near-empty: workers=%d, want 1", got)
	}
	// Worker count never exceeds rows.
	if got := tn.workers(1_000_000, 3); got != 3 {
		t.Errorf("3-row matrix: workers=%d, want 3", got)
	}
	// Custom gate.
	tn.MinParallelNNZ = 10
	if got := tn.workers(50, 100); got != 8 {
		t.Errorf("custom gate 10, nnz 50: workers=%d, want 8", got)
	}
}

func TestTuningValidate(t *testing.T) {
	good := []Tuning{
		{},
		{Threads: 16, MinParallelNNZ: 1024},
		{Kernels: cpu.KernelSIMD},
	}
	for _, tn := range good {
		if err := tn.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", tn, err)
		}
	}
	bad := []Tuning{
		{Threads: -1},
		{MinParallelNNZ: -5},
		{Kernels: cpu.KernelMode(42)},
	}
	for _, tn := range bad {
		if err := tn.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", tn)
		}
	}
}

// TestTransposeCached verifies the lazy transpose is built once, matches
// T(), and that concurrent first callers race safely (run with -race).
func TestTransposeCached(t *testing.T) {
	m := skewedCSR(t, 300, 120, 5000, 11)
	var wg sync.WaitGroup
	results := make([]*CSR, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = m.Transpose()
		}(g)
	}
	wg.Wait()
	for g := 1; g < 16; g++ {
		if results[g] != results[0] {
			t.Fatal("Transpose returned different instances to concurrent callers")
		}
	}
	if !dense.Equal(results[0].ToDense(), m.T().ToDense(), 0) {
		t.Error("cached transpose disagrees with T()")
	}
}

// TestConcurrentProductsOnSharedPool hammers the persistent pool from
// many goroutines sharing one matrix — the usage pattern of concurrent
// solver runs — and checks every result (run with -race).
func TestConcurrentProductsOnSharedPool(t *testing.T) {
	m := skewedCSR(t, 2000, 300, 40000, 21)
	b := dense.Random(300, 8, rng(22))
	c := dense.Random(2000, 8, rng(23))
	wantMul := m.MulDenseOpts(b, Tuning{})
	wantTMul := m.TMulDenseOpts(c, Tuning{})
	tn := Tuning{Threads: 4, MinParallelNNZ: 1}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				if got := m.MulDenseOpts(b, tn); !dense.Equal(got, wantMul, 1e-10) {
					errs <- "MulDense under concurrency"
					return
				}
				if got := m.TMulDenseOpts(c, tn); !dense.Equal(got, wantTMul, 1e-10) {
					errs <- "TMulDense under concurrency"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestFMACountsStrategyInvariant pins the acceptance invariant: every
// execution the engine can pick (thread count × kernel flavor) books
// exactly nnz·k multiply-adds per product, so the fma counter certifies
// identical work across dispatch choices.
func TestFMACountsStrategyInvariant(t *testing.T) {
	m := adversarialCSR(t, 80, 40, 600, 31)
	b := dense.Random(40, 8, rng(32))
	c := dense.Random(80, 8, rng(33))
	x := dense.Random(40, 1, rng(34)).Data
	y := dense.Random(80, 1, rng(35)).Data
	defer EnableMetrics(nil)
	for _, threads := range []int{1, 4} {
		for _, fl := range []cpu.KernelMode{cpu.KernelGo, cpu.KernelSIMD} {
			reg := obs.NewRegistry()
			EnableMetrics(reg)
			tn := Tuning{Threads: threads, MinParallelNNZ: 1, Kernels: fl}
			m.MulDenseOpts(b, tn)
			m.TMulDenseOpts(c, tn)
			m.MulVecOpts(x, tn)
			m.TMulVecOpts(y, tn)
			want := float64(m.NNZ())*8*2 + float64(m.NNZ())*1*2
			got := reg.Counter("sparse_spmm_fma_total", "").Value()
			if got != want {
				t.Errorf("t=%d/%v: fma=%v, want %v", threads, fl, got, want)
			}
			for _, name := range []string{
				"sparse_spmm_calls_total", "sparse_spmm_t_calls_total",
				"sparse_spmv_calls_total", "sparse_spmv_t_calls_total",
			} {
				if v := reg.Counter(name, "").Value(); v != 1 {
					t.Errorf("t=%d/%v: %s=%v, want 1", threads, fl, name, v)
				}
			}
		}
	}
	// At scale, with the default flavor and the default parallelism
	// gate: the partition splits real work and the count still holds.
	wide := wideCSR(t)
	for _, k := range []int{8, 32} {
		b := dense.Random(wide.Cols, k, rng(uint64(36+k)))
		c := dense.Random(wide.Rows, k, rng(uint64(37+k)))
		for _, threads := range []int{1, 4} {
			reg := obs.NewRegistry()
			EnableMetrics(reg)
			tn := Tuning{Threads: threads}
			wide.MulDenseOpts(b, tn)
			wide.TMulDenseOpts(c, tn)
			want := 2 * float64(wide.NNZ()) * float64(k)
			if got := reg.Counter("sparse_spmm_fma_total", "").Value(); got != want {
				t.Errorf("wide k=%d t=%d: fma=%v, want %v", k, threads, got, want)
			}
		}
	}
}

// TestKernelCounters checks the per-kernel dispatch counters the engine
// exports.
func TestKernelCounters(t *testing.T) {
	m := randomCSR(t, 50, 30, 400, 41)
	defer EnableMetrics(nil)
	reg := obs.NewRegistry()
	EnableMetrics(reg)
	// Kernel flavor pinned to the scalar Go kernels so the expected
	// counter names hold on every CPU; flavor naming is covered by
	// TestSIMDKernelNames.
	goK := Tuning{Kernels: cpu.KernelGo}
	m.MulDenseOpts(dense.Random(30, 8, rng(42)), goK)   // k8
	m.TMulDenseOpts(dense.Random(50, 16, rng(43)), goK) // k16 on the transpose
	m.TMulDenseOpts(dense.Random(50, 3, rng(44)), goK)  // generic
	m.MulDenseOpts(dense.Random(30, 5, rng(45)), goK)   // generic
	m.MulDenseOpts(dense.Random(30, 24, rng(46)), goK)  // panel8
	m.MulVecOpts(dense.Random(30, 1, rng(47)).Data, goK)
	checks := map[string]float64{
		"sparse_spmm_kernel_k8_total":      1,
		"sparse_spmm_kernel_k16_total":     1,
		"sparse_spmm_kernel_panel8_total":  1,
		"sparse_spmm_kernel_generic_total": 2,
		"sparse_spmm_kernel_dot_total":     1,
	}
	for name, want := range checks {
		if got := reg.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// --- Benchmarks (CI smoke: go test -bench=SpMM -benchtime=1x) ---

func benchMatrices(b *testing.B) (uniform, skewed *CSR) {
	return randomCSR(b, 30000, 8000, 600000, 91), skewedCSR(b, 30000, 8000, 600000, 92)
}

func BenchmarkSpMMMulDense(b *testing.B) {
	uniform, skewed := benchMatrices(b)
	blk := dense.Random(8000, 32, rng(93))
	tn := Tuning{Threads: 4}
	for _, tc := range []struct {
		name string
		m    *CSR
	}{
		{"uniform", uniform},
		{"skewed", skewed},
	} {
		b.Run(tc.name+"/tuned", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tc.m.MulDenseOpts(blk, tn)
			}
		})
	}
}

// TMulDense is benchmarked in both orientations: tall (output on the
// small side) and wide (output on the large side — the Wᵀ-block shape).
func BenchmarkSpMMTMulDense(b *testing.B) {
	uniform, skewed := benchMatrices(b)
	wide := skewedCSR(b, 8000, 30000, 600000, 95)
	tall := dense.Random(30000, 32, rng(94))
	short := dense.Random(8000, 32, rng(96))
	uniform.Transpose() // pay the one-time builds outside the timer
	skewed.Transpose()
	wide.Transpose()
	tn := Tuning{Threads: 4}
	for _, tc := range []struct {
		name string
		m    *CSR
		blk  *dense.Matrix
	}{
		{"uniform", uniform, tall},
		{"skewed", skewed, tall},
		{"skewed-wide", wide, short},
	} {
		b.Run(tc.name+"/tuned", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tc.m.TMulDenseOpts(tc.blk, tn)
			}
		})
	}
}
