package sparse

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"gebe/internal/cpu"
	"gebe/internal/dense"
	"gebe/internal/obs"
	"gebe/internal/simd"
)

// The hop contract: Hop gives the bits of the composition it replaces —
// W·t, AddScaled, Wᵀ·q — whichever plan runs. Against the flavor's own
// two-gather path that holds for every bit, NaN payloads included.
// Against the reference loops it holds for every non-NaN element; a NaN
// there is matched by any NaN, because when two NaNs of different
// payloads meet in an add the result is the first operand, and Go's
// scalar `acc += a*b` puts the product first while the vector kernels
// put the accumulator first.

// withSpecials overwrites every fifth element of m with ±0, ±Inf or NaN.
func withSpecials(m *dense.Matrix) *dense.Matrix {
	vals := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	for i := 2; i < len(m.Data); i += 5 {
		m.Data[i] = vals[(i/5)%len(vals)]
	}
	return m
}

// sameUpToNaN reports whether a and b agree bit for bit at every element
// where they are not both NaN.
func sameUpToNaN(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return i, false
		}
	}
	return -1, true
}

// hopFlavors lists the flavors this machine resolves to distinctly.
func hopFlavors() []cpu.KernelMode {
	fl := []cpu.KernelMode{cpu.KernelGo}
	if cpu.Resolve(cpu.KernelSIMD) == cpu.KernelSIMD {
		fl = append(fl, cpu.KernelSIMD)
	}
	return fl
}

// twoGathers is the composition Hop replaces, on the engine's products
// under tn.
func twoGathers(m *CSR, dst, next, tl *dense.Matrix, w float64, tn Tuning) {
	q := m.MulDenseInto(dense.New(m.Rows, tl.Cols), tl, tn)
	if w != 0 {
		dst.AddScaled(w, q)
	}
	if next != nil {
		m.TMulDenseInto(next, q, tn)
	}
}

// referenceHop is the same composition on the uninstrumented reference
// loops.
func referenceHop(m *CSR, dst, next, tl *dense.Matrix, w float64) {
	q := m.ReferenceMulDense(tl)
	if w != 0 {
		dst.AddScaled(w, q)
	}
	if next != nil {
		copy(next.Data, m.ReferenceTMulDense(q).Data)
	}
}

// rowSlice returns rows [lo,hi) of m as a CSR of their own.
func rowSlice(m *CSR, lo, hi int) *CSR {
	base := m.RowPtr[lo]
	rp := make([]int, hi-lo+1)
	for i := range rp {
		rp[i] = m.RowPtr[lo+i] - base
	}
	return &CSR{Rows: hi - lo, Cols: m.Cols, RowPtr: rp,
		ColIdx: m.ColIdx[base:m.RowPtr[hi]], Val: m.Val[base:m.RowPtr[hi]]}
}

// TestHopMatchesTwoGathers: for every flavor, on one and two threads,
// block widths that exercise each 32/16/8-column panel mix, with empty
// rows and a hub row, ±0, ±Inf and NaN in t and in dst, ω of 0 and
// 0.37, with and without a next block (NaN-prefilled: Hop clears it),
// Hop reproduces its flavor's two-gather path bit for bit and the
// reference loops up to NaN payloads; at ω = 0 so does a hop with no
// destination at all; so does the vector kernel over a sub-range of
// rows.
func TestHopMatchesTwoGathers(t *testing.T) {
	mats := []*CSR{adversarialCSR(t, 60, 35, 500, 71), holeyCSR(t, 41, 29, 300, 72)}
	for mi, m := range mats {
		for _, k := range []int{8, 16, 24, 32, 40, 56, 64, 96} {
			tl := withSpecials(dense.Random(m.Cols, k, rng(uint64(k+mi))))
			dst0 := withSpecials(dense.Random(m.Rows, k, rng(uint64(k+mi)+1)))
			for _, w := range []float64{0, 0.37} {
				for _, withNext := range []bool{false, true} {
					wantD, wantN := dst0.Clone(), (*dense.Matrix)(nil)
					if withNext {
						wantN = dense.New(m.Cols, k)
					}
					referenceHop(m, wantD, wantN, tl, w)
					for _, fl := range hopFlavors() {
						for _, threads := range []int{1, 2} {
							tn := Tuning{Threads: threads, MinParallelNNZ: 1, Kernels: fl}
							name := fmt.Sprintf("m%d/k=%d/w=%v/next=%v/%v/t=%d", mi, k, w, withNext, fl, threads)
							ownD, ownN := dst0.Clone(), (*dense.Matrix)(nil)
							gotD, gotN := dst0.Clone(), (*dense.Matrix)(nil)
							if withNext {
								ownN, gotN = dense.New(m.Cols, k), nanMatrix(m.Cols, k)
							}
							twoGathers(m, ownD, ownN, tl, w, Tuning{Threads: 1, Kernels: fl})
							m.Hop(gotD, gotN, tl, nil, w, tn)
							if i, ok := bitsEqual(gotD.Data, ownD.Data); !ok {
								t.Fatalf("%s: dst differs from the two gathers at %d: %v != %v", name, i, gotD.Data[i], ownD.Data[i])
							}
							if i, ok := sameUpToNaN(gotD.Data, wantD.Data); !ok {
								t.Fatalf("%s: dst differs from the reference at %d: %v != %v", name, i, gotD.Data[i], wantD.Data[i])
							}
							if !withNext {
								continue
							}
							if i, ok := bitsEqual(gotN.Data, ownN.Data); !ok {
								t.Fatalf("%s: next differs from the two gathers at %d: %v != %v", name, i, gotN.Data[i], ownN.Data[i])
							}
							if i, ok := sameUpToNaN(gotN.Data, wantN.Data); !ok {
								t.Fatalf("%s: next differs from the reference at %d: %v != %v", name, i, gotN.Data[i], wantN.Data[i])
							}
							if w != 0 {
								continue
							}
							noDst := nanMatrix(m.Cols, k)
							m.Hop(nil, noDst, tl, nil, 0, tn)
							if i, ok := bitsEqual(noDst.Data, ownN.Data); !ok {
								t.Fatalf("%s: next without dst differs from the two gathers at %d: %v != %v", name, i, noDst.Data[i], ownN.Data[i])
							}
						}
					}
				}
			}
		}
	}
	// The vector kernel over a row range [lo,hi) matches the two gathers
	// of that row slice and leaves every other row of dst alone.
	if !hasHop(8, cpu.KernelSIMD) {
		return
	}
	m := mats[0]
	simdT := Tuning{Kernels: cpu.KernelSIMD}
	for _, k := range []int{8, 24, 32, 56} {
		tl := withSpecials(dense.Random(m.Cols, k, rng(uint64(k)+74)))
		dst0 := withSpecials(dense.Random(m.Rows, k, rng(uint64(k)+75)))
		for _, rg := range [][2]int{{3, 31}, {30, 31}, {17, 17}} {
			lo, hi := rg[0], rg[1]
			wantD, wantN := dst0.Clone(), dense.New(m.Cols, k)
			twoGathers(rowSlice(m, lo, hi), &dense.Matrix{Rows: hi - lo, Cols: k, Data: wantD.Data[lo*k : hi*k]}, wantN, tl, 0.37, simdT)
			gotD, gotN := dst0.Clone(), dense.New(m.Cols, k)
			hopRows(m, tl.Data, gotD.Data, gotN.Data, 0.37, k, lo, hi)
			if i, ok := bitsEqual(gotD.Data, wantD.Data); !ok {
				t.Fatalf("k=%d rows [%d,%d): dst differs at %d", k, lo, hi, i)
			}
			if i, ok := bitsEqual(gotN.Data, wantN.Data); !ok {
				t.Fatalf("k=%d rows [%d,%d): next differs at %d", k, lo, hi, i)
			}
		}
	}
}

// TestHopDispatch: the one-pass kernel serves only the vector flavor,
// one worker and widths that tile into 8-column panels.
func TestHopDispatch(t *testing.T) {
	m := adversarialCSR(t, 60, 35, 500, 76)
	one := Tuning{Threads: 1, Kernels: cpu.KernelSIMD}
	want := simd.HasHop() && cpu.Resolve(cpu.KernelSIMD) == cpu.KernelSIMD
	for _, k := range []int{8, 16, 32, 40} {
		if got := m.HopFused(k, one); got != want {
			t.Errorf("HopFused(k=%d, simd) = %v, want %v", k, got, want)
		}
	}
	for _, k := range []int{1, 3, 12, 33} {
		if m.HopFused(k, one) {
			t.Errorf("HopFused(k=%d) = true, want the two gathers", k)
		}
	}
	for _, tn := range []Tuning{
		{Threads: 1, Kernels: cpu.KernelGo},
		{Threads: 2, MinParallelNNZ: 1, Kernels: cpu.KernelSIMD},
	} {
		if m.HopFused(32, tn) {
			t.Errorf("HopFused(k=32, %+v) = true, want the two gathers", tn)
		}
	}
}

// TestHopAliasPanics: a hop whose scatter would land in the block being
// gathered, or whose dst shares storage with either |V|×k block, panics
// instead of computing garbage; so does one that has ω ≠ 0 to add but
// no dst, on the fused and the two-gather plan alike.
func TestHopAliasPanics(t *testing.T) {
	m := adversarialCSR(t, 30, 30, 200, 77) // square, so every block has one shape
	a, b := dense.New(30, 8), dense.New(30, 8)
	for _, tc := range []struct {
		name          string
		dst, next, tl *dense.Matrix
		w             float64
		want          string
	}{
		{"next aliases t", a, b, b, 0.5, "next block aliases its input"},
		{"dst aliases t", b, a, b, 0.5, "destination aliases its input"},
		{"dst aliases next", a, a, b, 0.5, "destination aliases its next block"},
		{"no dst, next aliases t", nil, b, b, 0, "next block aliases its input"},
		{"no dst, w != 0", nil, a, b, 0.5, "without a destination"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(fmt.Sprint(r), tc.want) {
					t.Fatalf("panic %v, want one containing %q", r, tc.want)
				}
			}()
			m.Hop(tc.dst, tc.next, tc.tl, nil, tc.w, Tuning{Threads: 1})
		})
		t.Run(tc.name+"/two gathers", func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(fmt.Sprint(r), tc.want) {
					t.Fatalf("panic %v, want one containing %q", r, tc.want)
				}
			}()
			m.Hop(tc.dst, tc.next, tc.tl, nil, tc.w, Tuning{Threads: 1, Kernels: cpu.KernelGo})
		})
	}
}

// TestHopMetrics: a hop books into the sparse_spmm_* families exactly
// the calls' worth of multiply-adds the two gathers book — 2·nnz·k for
// a hop that scatters, nnz·k for the last — under the kernel label
// hop+<isa> when it runs fused.
func TestHopMetrics(t *testing.T) {
	m := adversarialCSR(t, 60, 35, 500, 78)
	const k = 16
	tl := dense.Random(m.Cols, k, rng(79))
	defer EnableMetrics(nil)
	for _, fl := range hopFlavors() {
		reg := obs.NewRegistry()
		EnableMetrics(reg)
		tn := Tuning{Threads: 1, Kernels: fl}
		m.Hop(dense.New(m.Rows, k), dense.New(m.Cols, k), tl, nil, 0.5, tn)
		m.Hop(dense.New(m.Rows, k), nil, tl, nil, 0.5, tn)
		if got, want := reg.Counter("sparse_spmm_fma_total", "").Value(), float64(3*m.NNZ()*k); got != want {
			t.Errorf("%v: fma=%v, want %v", fl, got, want)
		}
		calls := reg.Counter("sparse_spmm_calls_total", "").Value() + reg.Counter("sparse_spmm_t_calls_total", "").Value()
		if !m.HopFused(k, tn) {
			if calls != 3 {
				t.Errorf("%v: two-gather hops booked %v calls, want 3", fl, calls)
			}
			continue
		}
		if calls != 2 {
			t.Errorf("%v: fused hops booked %v calls, want 2", fl, calls)
		}
		if got := reg.Counter("sparse_spmm_kernel_"+hopName+"_total", "").Value(); got != 2 {
			t.Errorf("%v: %s kernel counter = %v, want 2", fl, hopName, got)
		}
	}
}

// FuzzHop decodes a small CSR — rows may hold unsorted or repeated
// columns and explicit zeros — plus t, dst, ω and whether a next block
// exists from the input, and checks the fused hop against the reference
// composition (up to NaN payloads) and its own two gathers (bit for
// bit). At ω = 0 it checks the hop without a destination too, on both
// plans.
func FuzzHop(f *testing.F) {
	f.Add([]byte{3, 4, 0, 1, 1, 2, 0, 1, 3, 2, 7, 9, 4, 2, 250, 11})
	f.Add([]byte{5, 2, 3, 0, 0, 1, 1, 0, 2, 1, 1, 6, 0, 1, 0, 0, 0, 5})
	f.Add([]byte{1, 1, 1, 1, 3, 0, 0, 0, 0, 255, 254, 253})
	vals := []float64{0, 1, -1, 0.5, -0.25, 3, math.Copysign(0, -1), 1e-300, 7.5, -2}
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1, -1, 0.1, 1e300, -3.5, 2, 1e-310}
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() int {
			if pos >= len(data) {
				return 0
			}
			pos++
			return int(data[pos-1])
		}
		rows, cols, k := 1+next()%7, 1+next()%7, 8*(1+next()%5)
		w := []float64{0, 0.37, -1.5, 1}[next()%4]
		withNext := next()%2 == 0
		m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
		for i := 0; i < rows; i++ {
			for n := next() % 5; n > 0; n-- {
				m.ColIdx = append(m.ColIdx, next()%cols)
				m.Val = append(m.Val, vals[next()%len(vals)])
			}
			m.RowPtr[i+1] = len(m.Val)
		}
		tl, dst0 := dense.New(cols, k), dense.New(rows, k)
		for i := range tl.Data {
			tl.Data[i] = specials[(next()+i)%len(specials)]
		}
		for i := range dst0.Data {
			dst0.Data[i] = specials[(next()+3*i)%len(specials)]
		}
		var wantN, ownN, gotN *dense.Matrix
		if withNext {
			wantN, ownN, gotN = dense.New(cols, k), dense.New(cols, k), nanMatrix(cols, k)
		}
		wantD, ownD, gotD := dst0.Clone(), dst0.Clone(), dst0.Clone()
		referenceHop(m, wantD, wantN, tl, w)
		tn := Tuning{Threads: 1, Kernels: cpu.KernelSIMD}
		twoGathers(m, ownD, ownN, tl, w, tn)
		m.Hop(gotD, gotN, tl, nil, w, tn)
		if i, ok := bitsEqual(gotD.Data, ownD.Data); !ok {
			t.Fatalf("dst differs from the two gathers at %d: %v != %v", i, gotD.Data[i], ownD.Data[i])
		}
		if i, ok := sameUpToNaN(gotD.Data, wantD.Data); !ok {
			t.Fatalf("dst differs from the reference at %d: %v != %v", i, gotD.Data[i], wantD.Data[i])
		}
		if withNext {
			if i, ok := bitsEqual(gotN.Data, ownN.Data); !ok {
				t.Fatalf("next differs from the two gathers at %d: %v != %v", i, gotN.Data[i], ownN.Data[i])
			}
			if i, ok := sameUpToNaN(gotN.Data, wantN.Data); !ok {
				t.Fatalf("next differs from the reference at %d: %v != %v", i, gotN.Data[i], wantN.Data[i])
			}
		}
		if w != 0 || !withNext {
			return
		}
		for _, threads := range []int{1, 2} {
			noDst := nanMatrix(cols, k)
			m.Hop(nil, noDst, tl, nil, 0, Tuning{Threads: threads, MinParallelNNZ: 1, Kernels: cpu.KernelSIMD})
			if i, ok := bitsEqual(noDst.Data, ownN.Data); !ok {
				t.Fatalf("t=%d: next without dst differs from the two gathers at %d: %v != %v", threads, i, noDst.Data[i], ownN.Data[i])
			}
		}
	})
}

// BenchmarkHop times one hop on a power-law CSR of train-gebe's shape
// (7964×2499, ≈62.8k nonzeros, k=32) on one thread: the fused pass
// against the two gathers plus AddScaled it replaces.
func BenchmarkHop(b *testing.B) {
	m := skewedCSR(b, 7964, 2499, 66000, 97)
	m.Transpose()
	const k = 32
	tl := dense.Random(m.Cols, k, rng(98))
	dst := dense.Random(m.Rows, k, rng(99))
	next := dense.New(m.Cols, k)
	q := dense.New(m.Rows, k)
	tn := Tuning{Threads: 1}
	b.Logf("nnz=%d fused=%v", m.NNZ(), m.HopFused(k, tn))
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Hop(dst, next, tl, q, 1e-3, tn)
		}
	})
	b.Run("two-gathers", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.MulDenseInto(q, tl, tn)
			dst.AddScaled(1e-3, q)
			m.TMulDenseInto(next, q, tn)
		}
	})
}
