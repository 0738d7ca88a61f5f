package dense

import (
	"math/rand/v2"
	"testing"

	"gebe/internal/cpu"
	"gebe/internal/obs"
)

// newTestRegistry enables dense metrics against a fresh registry and
// restores the disabled default when the test ends.
func newTestRegistry(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry()
	EnableMetrics(reg)
	t.Cleanup(func() { EnableMetrics(nil) })
	return reg
}

// The engine's contract: every product agrees with the reference loops
// in reference.go. The Go and SIMD GEMM kernels are bitwise identical
// by construction (same per-element accumulation order), and no
// parallel schedule splits a reduction, so every run compares with
// tol 0. The tests pin the SIMD flavor, so the assembly runs even under
// GEBE_SIMD=off. (QR's contract is error bounds; see qr_engine_test.go.)

func engineRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0xbeef))
}

// forceParallel drops the flop gate so even tiny matrices exercise the
// partitioned paths, on the SIMD kernels (the Go ones where the CPU has
// none).
func forceParallel(threads int) Tuning {
	return Tuning{Threads: threads, MinParallelFlops: 1, Kernels: cpu.KernelSIMD}
}

func maxAbsDiff(a, b *Matrix) float64 {
	return Sub(a, b).MaxAbs()
}

// tallShapes are n×k operands at solver scale, past the unit sweeps'
// 250 rows and inner dimension 40: the embedding width and a Krylov
// block width over a 2000-node side. The products take them as tall·small
// (n×k · k×k), tallᵀ·tall (n×k against n×k) and tall·smallᵀ.
var tallShapes = [][2]int{{2000, 32}, {2000, 128}}

func TestMulMatchesLegacyBitwise(t *testing.T) {
	rng := engineRand(1)
	// Widths cover every dispatch: generic (3, 5), k4, k8, k16, panel8 (24).
	for _, k := range []int{1, 3, 4, 5, 8, 16, 24, 32} {
		for _, rows := range []int{1, 7, 65, 200} {
			for _, inner := range []int{1, 9, 33} {
				a := Random(rows, inner, rng)
				b := Random(inner, k, rng)
				want := ReferenceMul(a, b)
				for _, threads := range []int{1, 2, 4} {
					got := MulOpts(a, b, forceParallel(threads))
					if d := maxAbsDiff(want, got); d != 0 {
						t.Fatalf("Mul %dx%d·%dx%d threads=%d: max diff %g, want bitwise match",
							rows, inner, inner, k, threads, d)
					}
				}
			}
		}
	}
	for _, sh := range tallShapes {
		n, k := sh[0], sh[1]
		a, b := Random(n, k, rng), Random(k, k, rng)
		want := ReferenceMul(a, b)
		for _, threads := range []int{1, 3} {
			if d := maxAbsDiff(want, MulOpts(a, b, forceParallel(threads))); d != 0 {
				t.Fatalf("Mul %dx%d·%dx%d threads=%d: max diff %g, want bitwise match", n, k, k, k, threads, d)
			}
		}
	}
}

func TestMulTMatchesLegacyBitwise(t *testing.T) {
	rng := engineRand(2)
	for _, p := range []int{1, 3, 4, 6, 17} {
		for _, rows := range []int{1, 8, 120} {
			for _, inner := range []int{1, 5, 40} {
				a := Random(rows, inner, rng)
				b := Random(p, inner, rng)
				want := ReferenceMulT(a, b)
				for _, threads := range []int{1, 3} {
					got := MulTOpts(a, b, forceParallel(threads))
					if d := maxAbsDiff(want, got); d != 0 {
						t.Fatalf("MulT %dx%d·(%dx%d)ᵀ threads=%d: max diff %g, want bitwise match",
							rows, inner, p, inner, threads, d)
					}
				}
			}
		}
	}
	for _, sh := range tallShapes {
		n, k := sh[0], sh[1]
		a, b := Random(n, k, rng), Random(k, k, rng)
		want := ReferenceMulT(a, b)
		for _, threads := range []int{1, 3} {
			if d := maxAbsDiff(want, MulTOpts(a, b, forceParallel(threads))); d != 0 {
				t.Fatalf("MulT %dx%d·(%dx%d)ᵀ threads=%d: max diff %g, want bitwise match", n, k, k, k, threads, d)
			}
		}
	}
}

func TestTMulMatchesLegacy(t *testing.T) {
	rng := engineRand(3)
	for _, k1 := range []int{1, 2, 3, 8, 17} {
		for _, k2 := range []int{1, 3, 4, 9, 16} {
			for _, rows := range []int{1, 7, 8, 9, 250} {
				a := Random(rows, k1, rng)
				b := Random(rows, k2, rng)
				want := ReferenceTMul(a, b)
				for _, threads := range []int{1, 2, 5} {
					got := TMulOpts(a, b, forceParallel(threads))
					if d := maxAbsDiff(want, got); d != 0 {
						t.Fatalf("TMul (%dx%d)ᵀ·%dx%d threads=%d: max diff %g, want bitwise match",
							rows, k1, rows, k2, threads, d)
					}
				}
			}
		}
	}
	for _, sh := range tallShapes {
		n, k := sh[0], sh[1]
		a, b := Random(n, k, rng), Random(n, k, rng)
		want := ReferenceTMul(a, b)
		for _, threads := range []int{1, 3} {
			if d := maxAbsDiff(want, TMulOpts(a, b, forceParallel(threads))); d != 0 {
				t.Fatalf("TMul (%dx%d)ᵀ·%dx%d threads=%d: max diff %g, want bitwise match", n, k, n, k, threads, d)
			}
		}
	}
}

// TestTMulBitwiseAcrossThreads: the parallel Aᵀ·B hands each worker a
// band of whole 2-row output tiles, so every flavor returns the serial
// result bit for bit at any thread count, on odd and even k₁ and on
// tall inputs past the vector kernels' chunk length.
func TestTMulBitwiseAcrossThreads(t *testing.T) {
	rng := engineRand(5)
	for _, fl := range []cpu.KernelMode{cpu.KernelGo, cpu.KernelSIMD} {
		for _, k1 := range []int{2, 5, 8, 33} {
			for _, k2 := range []int{3, 4, 16} {
				a := Random(301, k1, rng)
				b := Random(301, k2, rng)
				serial := TMulOpts(a, b, Tuning{Threads: 1, Kernels: fl})
				for _, threads := range []int{2, 3} {
					tn := Tuning{Threads: threads, MinParallelFlops: 1, Kernels: fl}
					if got := TMulOpts(a, b, tn); !sameBits(got, serial) {
						t.Fatalf("%v TMul (301x%d)ᵀ·301x%d threads=%d differs from threads=1",
							fl, k1, k2, threads)
					}
				}
			}
		}
	}
}

func TestIntoVariantsMatchAllocating(t *testing.T) {
	rng := engineRand(4)
	a := Random(50, 12, rng)
	b := Random(12, 16, rng)
	c := Random(50, 16, rng)
	tn := Tuning{}

	dst := Random(50, 16, rng) // dirty destination: Into must overwrite
	if d := maxAbsDiff(MulInto(dst, a, b, tn), MulOpts(a, b, tn)); d != 0 {
		t.Errorf("MulInto differs from Mul by %g", d)
	}
	dst2 := Random(12, 16, rng)
	if d := maxAbsDiff(TMulInto(dst2, a, c, tn), TMulOpts(a, c, tn)); d != 0 {
		t.Errorf("TMulInto differs from TMul by %g", d)
	}
	dst3 := Random(50, 50, rng)
	if d := maxAbsDiff(MulTInto(dst3, a, a, tn), MulTOpts(a, a, tn)); d != 0 {
		t.Errorf("MulTInto differs from MulT by %g", d)
	}
	dst4 := Random(50, 16, rng)
	if d := maxAbsDiff(SubInto(dst4, c, MulOpts(a, b, tn)), Sub(c, MulOpts(a, b, tn))); d != 0 {
		t.Errorf("SubInto differs from Sub by %g", d)
	}
}

func TestEngineEmptyShapes(t *testing.T) {
	tn := forceParallel(4)
	if got := MulOpts(New(0, 5), New(5, 3), tn); got.Rows != 0 || got.Cols != 3 {
		t.Errorf("Mul with 0 rows: got %dx%d", got.Rows, got.Cols)
	}
	if got := MulOpts(New(4, 0), New(0, 3), tn); got.MaxAbs() != 0 {
		t.Errorf("Mul with empty inner dimension should be zero")
	}
	if got := TMulOpts(New(0, 4), New(0, 3), tn); got.Rows != 4 || got.Cols != 3 || got.MaxAbs() != 0 {
		t.Errorf("TMul over 0 rows should be a zero 4x3")
	}
	if got := MulTOpts(New(3, 0), New(2, 0), tn); got.Rows != 3 || got.Cols != 2 || got.MaxAbs() != 0 {
		t.Errorf("MulT with empty inner dimension should be a zero 3x2")
	}
}

func TestIntoVariantsSteadyStateAllocs(t *testing.T) {
	rng := engineRand(5)
	a := Random(64, 8, rng)
	b := Random(8, 8, rng)
	c := Random(64, 8, rng)
	dst := New(64, 8)
	gram := New(8, 8)
	scores := New(64, 64)
	tn := Tuning{}
	if n := testing.AllocsPerRun(20, func() {
		MulInto(dst, a, b, tn)
		TMulInto(gram, a, c, tn)
		MulTInto(scores, a, c, tn)
		SubInto(dst, a, c)
	}); n != 0 {
		t.Errorf("Into variants allocated %v times per sequential run, want 0", n)
	}
}

func TestTuningValidate(t *testing.T) {
	for _, tc := range []struct {
		tn Tuning
		ok bool
	}{
		{Tuning{}, true},
		{Tuning{Threads: 8, MinParallelFlops: 100, Kernels: cpu.KernelGo}, true},
		{Tuning{Threads: -1}, false},
		{Tuning{MinParallelFlops: -5}, false},
		{Tuning{Kernels: cpu.KernelMode(9)}, false},
	} {
		if err := tc.tn.Validate(); (err == nil) != tc.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", tc.tn, err, tc.ok)
		}
	}
}

func TestEngineMetricsRecorded(t *testing.T) {
	// Covered indirectly elsewhere; here: the fma counter books the
	// pure-shape count on every orientation, serial or fanned out.
	rng := engineRand(6)
	a := Random(30, 8, rng)
	b := Random(8, 8, rng)
	for _, tn := range []Tuning{{}, forceParallel(3)} {
		reg := newTestRegistry(t)
		MulOpts(a, b, tn)
		TMulOpts(a, a, tn)
		MulTOpts(a, a, tn)
		QROpts(a, tn)
		want := 30.*8*8 + 30.*8*8 + 30.*8*30 + qrFlops(30, 8)
		if got := reg.Counter("dense_gemm_fma_total", "").Value(); got != want {
			t.Errorf("%+v booked %g fma, want %g", tn, got, want)
		}
	}
	// At solver scale the parallel paths split real work; each product
	// still books n·k·k and the QR its nominal count.
	for _, sh := range tallShapes {
		n, k := sh[0], sh[1]
		a, s := Random(n, k, rng), Random(k, k, rng)
		for _, tn := range []Tuning{forceParallel(1), forceParallel(3)} {
			reg := newTestRegistry(t)
			MulOpts(a, s, tn)
			TMulOpts(a, a, tn)
			MulTOpts(a, s, tn)
			QROpts(a, tn)
			nk := float64(n) * float64(k)
			want := 3*nk*float64(k) + qrFlops(n, k)
			if got := reg.Counter("dense_gemm_fma_total", "").Value(); got != want {
				t.Errorf("%dx%d %+v booked %g fma, want %g", n, k, tn, got, want)
			}
		}
	}
}
