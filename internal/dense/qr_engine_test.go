package dense

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"gebe/internal/cpu"
)

// The blocked QR's contract (see the file comment in qr.go): backward
// stability within stated multiples of m·u, the reference's sign
// convention for R's diagonal, and bitwise independence of the thread
// count and of the Go/SIMD kernel flavor — on shapes chosen to stress
// the panel logic: widths straddling the leaf (qrLeaf) and panel
// (qrBlock) boundaries, several panels, m≈n, rank deficiency, exact zero
// columns.

// unitRoundoff is u = 2⁻⁵³, the unit roundoff of float64.
const unitRoundoff = 0x1p-53

// The stated bounds, as multiples of m·u. Householder QR's backward
// error is O(m·n·u) in the worst case; on every shape here the
// orthogonality loss stays under 2·m·u and the residual under 0.6·m·u
// (the column-order reference measures about the same), so the bounds
// leave headroom for other CPUs without hiding an algorithmic error,
// which shows up as O(1) or as √u.
const (
	qrOrthoBound = 4 // ‖QᵀQ − I‖_max ≤ qrOrthoBound·m·u
	qrReconBound = 2 // ‖A − QR‖_F/‖A‖_F ≤ qrReconBound·m·u
)

type qrCase struct {
	name       string
	a          *Matrix
	fullRank   bool
	refQ, refR *Matrix // ReferenceQR(a)
}

// qrShapes returns the shared QR cases with their ReferenceQR factors,
// built once per test binary: the column-order reference is the slowest
// thing in the package under -race. Callers must not modify them.
var qrShapes = sync.OnceValue(func() []qrCase {
	cases := qrInputs()
	for i := range cases {
		cases[i].refQ, cases[i].refR = ReferenceQR(cases[i].a)
	}
	return cases
})

func qrInputs() []qrCase {
	r := rand.New(rand.NewPCG(42, 0x5eed))
	var cases []qrCase
	add := func(m, n int) {
		cases = append(cases, qrCase{name: fmt.Sprintf("%dx%d", m, n), a: Random(m, n, r), fullRank: true})
	}
	add(1, 1)
	add(5, 5)   // m == n
	add(9, 8)   // m = n+1
	add(40, 3)  // sub-leaf width
	add(40, 4)  // exactly one leaf
	add(40, 7)  // sub-panel width
	add(40, 9)  // leaves + remainder column
	add(60, 15) // one short of a panel
	add(60, 16) // exactly one panel
	add(60, 17) // panel + 1 column
	add(200, 31)
	add(200, 32) // two full panels
	add(300, 33) // panels + remainder
	add(64, 64)  // square multi-panel
	add(2000, 96)
	cases = append(cases, qrCase{name: "zero 30x6", a: New(30, 6)})
	// Rank-deficient: duplicate and zero columns across leaf and panel
	// boundaries.
	rd := Random(120, 20, r)
	for i := 0; i < rd.Rows; i++ {
		rd.Set(i, 5, rd.At(i, 2))  // col 5 = col 2 (across a leaf)
		rd.Set(i, 17, rd.At(i, 0)) // col 17 = col 0 (across panels)
		rd.Set(i, 11, 0)           // zero column
		rd.Set(i, 19, 0)           // zero column in the last panel
	}
	cases = append(cases, qrCase{name: "rank-deficient 120x20", a: rd})
	// Nearly dependent columns — the ill-conditioned case KSI feeds QR.
	nc := Random(150, 18, r)
	for i := 0; i < nc.Rows; i++ {
		nc.Set(i, 7, nc.At(i, 1)+1e-13*nc.At(i, 3))
		nc.Set(i, 16, nc.At(i, 9)+1e-13*nc.At(i, 4))
	}
	return append(cases, qrCase{name: "nearly dependent 150x18", a: nc})
}

// qrErrors returns ‖QᵀQ − I‖_max and ‖A − QR‖_F/‖A‖_F (‖A − QR‖_F when
// A is zero). The engine products it uses are bitwise the reference
// loops' (engine_test.go).
func qrErrors(a, q, r *Matrix) (ortho, recon float64) {
	qtq := TMul(q, q)
	for i := 0; i < qtq.Rows; i++ {
		qtq.Set(i, i, qtq.At(i, i)-1)
	}
	scale := a.FrobeniusNorm()
	if scale == 0 {
		scale = 1
	}
	return qtq.MaxAbs(), Sub(Mul(q, r), a).FrobeniusNorm() / scale
}

func TestQRStableAgainstReference(t *testing.T) {
	checkBounds := func(name string, a, q, r *Matrix) {
		t.Helper()
		mu := float64(a.Rows) * unitRoundoff
		ortho, recon := qrErrors(a, q, r)
		if ortho > qrOrthoBound*mu {
			t.Errorf("%s: ‖QᵀQ−I‖_max = %.3g, bound %d·m·u = %.3g", name, ortho, qrOrthoBound, qrOrthoBound*mu)
		}
		if recon > qrReconBound*mu {
			t.Errorf("%s: ‖A−QR‖_F/‖A‖_F = %.3g, bound %d·m·u = %.3g", name, recon, qrReconBound, qrReconBound*mu)
		}
		for i := 0; i < r.Rows; i++ {
			for j := 0; j < i; j++ {
				if r.At(i, j) != 0 {
					t.Fatalf("%s: R[%d,%d] = %g below the diagonal", name, i, j, r.At(i, j))
				}
			}
		}
	}
	for _, tc := range qrShapes() {
		a := tc.a
		q, r := QROpts(a, Tuning{})
		checkBounds(tc.name, a, q, r)
		if !tc.fullRank {
			continue
		}
		// Same reflector sign choice as the reference: R's diagonal
		// signs agree, so Q's columns do too (up to round-off).
		for i := 0; i < r.Rows; i++ {
			if math.Signbit(r.At(i, i)) != math.Signbit(tc.refR.At(i, i)) {
				t.Errorf("%s: R[%d,%d] = %g, reference %g: diagonal signs differ", tc.name, i, i, r.At(i, i), tc.refR.At(i, i))
			}
		}
	}
	// Solver-scale shapes: the bounds, and Q and R within 1e-12 of the
	// column-order reference element by element at the embedding width
	// (the blocked factorization only reassociates the reflector sums;
	// the reference takes seconds at 2000×128 under -race). Fanned out
	// over 3 threads the factors are the serial ones bit for bit.
	for _, sh := range tallShapes {
		name := fmt.Sprintf("%dx%d", sh[0], sh[1])
		a := Random(sh[0], sh[1], rand.New(rand.NewPCG(43, uint64(sh[1]))))
		q, r := QROpts(a, forceParallel(1))
		checkBounds(name, a, q, r)
		if sh[1] <= 32 {
			refQ, refR := ReferenceQR(a)
			if d := max(maxAbsDiff(q, refQ), maxAbsDiff(r, refR)); d > 1e-12 {
				t.Errorf("%s: max |diff| from the reference %.3g, want ≤ 1e-12", name, d)
			}
		}
		if q3, r3 := QROpts(a, forceParallel(3)); !sameBits(q, q3) || !sameBits(r, r3) {
			t.Errorf("%s: threads=3 differs from threads=1", name)
		}
	}
}

func TestQRBitwiseAcrossThreadsAndFlavors(t *testing.T) {
	flavors := []cpu.KernelMode{cpu.KernelGo}
	if cpu.Resolve(cpu.KernelSIMD) == cpu.KernelSIMD {
		flavors = append(flavors, cpu.KernelSIMD)
	}
	for _, tc := range qrShapes() {
		a := tc.a
		wantQ, wantR := QROpts(a, Tuning{Kernels: cpu.KernelGo})
		wantQ, wantR = wantQ.Clone(), wantR.Clone()
		for _, fl := range flavors {
			for _, threads := range []int{1, 2, 4} {
				gotQ, gotR := QROpts(a, Tuning{Threads: threads, MinParallelFlops: 1, Kernels: fl})
				if !sameBits(wantQ, gotQ) || !sameBits(wantR, gotR) {
					t.Fatalf("%s %v threads=%d: Q diff %g, R diff %g, want bitwise match with Go threads=1",
						tc.name, fl, threads, maxAbsDiff(wantQ, gotQ), maxAbsDiff(wantR, gotR))
				}
			}
		}
	}
}

// sameBits reports whether two matrices are identical bit for bit.
func sameBits(a, b *Matrix) bool {
	_, ok := bitsEqual(a.Data, b.Data)
	return ok && a.Rows == b.Rows && a.Cols == b.Cols
}

func TestQRInvariants(t *testing.T) {
	for _, tc := range qrShapes() {
		a := tc.a
		for _, fc := range []struct {
			name   string
			factor func(*Matrix) (q, r *Matrix)
		}{
			{"serial", func(a *Matrix) (q, r *Matrix) { return QROpts(a, Tuning{}) }},
			{"parallel", func(a *Matrix) (q, r *Matrix) { return QROpts(a, Tuning{Threads: 4, MinParallelFlops: 1}) }},
			{"reference", func(*Matrix) (q, r *Matrix) { return tc.refQ, tc.refR }},
		} {
			q, r := fc.factor(a)
			n := a.Cols
			// Orthonormal columns: ‖QᵀQ − I‖_max small. Rank-deficient
			// inputs still give orthonormal Q (reflectors of zero columns
			// are identity, and the affected Q columns stay unit vectors).
			qtq := TMul(q, q)
			for i := 0; i < n; i++ {
				qtq.Set(i, i, qtq.At(i, i)-1)
			}
			if d := qtq.MaxAbs(); d > 1e-12 {
				t.Errorf("%s %s: ‖QᵀQ−I‖ = %g", tc.name, fc.name, d)
			}
			// Reconstruction: ‖QR − A‖ small relative to ‖A‖.
			recon := maxAbsDiff(Mul(q, r), a)
			scale := a.MaxAbs()
			if scale == 0 {
				scale = 1
			}
			if recon/scale > 1e-12 {
				t.Errorf("%s %s: ‖QR−A‖/‖A‖ = %g", tc.name, fc.name, recon/scale)
			}
			// R upper triangular.
			for i := 0; i < n; i++ {
				for j := 0; j < i; j++ {
					if r.At(i, j) != 0 {
						t.Fatalf("%s %s: R[%d,%d] = %g below the diagonal", tc.name, fc.name, i, j, r.At(i, j))
					}
				}
			}
		}
	}
}

func TestQRWorkReuseAndAliasing(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 11))
	var ws QRWork
	tn := Tuning{}
	// Steady state at one shape must not allocate (after the first call
	// grows the workspace), on a single panel and across several.
	for _, shape := range [][2]int{{80, 8}, {300, 40}} {
		a := Random(shape[0], shape[1], r)
		ws.Factor(a, tn)
		if n := testing.AllocsPerRun(10, func() { ws.Factor(a, tn) }); n != 0 {
			t.Errorf("QRWork.Factor %dx%d allocated %v times per steady-state run, want 0", shape[0], shape[1], n)
		}
	}
	// KSI's aliasing pattern: the next input is built from (here: is) the
	// previous output view, which lives in the workspace's own storage.
	a := Random(300, 40, r)
	q1 := ws.Orthonormalize(a, tn)
	want := OrthonormalizeOpts(q1.Clone(), tn)
	q2 := ws.Orthonormalize(q1, tn)
	if !sameBits(want, q2) {
		t.Errorf("Factor with input aliasing previous Q: diff %g, want bitwise match", maxAbsDiff(want, q2))
	}
	// Shrinking then regrowing shapes reuses the workspace correctly.
	for _, shape := range [][2]int{{30, 4}, {200, 16}, {10, 10}, {500, 50}} {
		m := Random(shape[0], shape[1], r)
		gotQ, gotR := ws.Factor(m, tn)
		wantQ, wantR := QROpts(m, tn)
		if !sameBits(wantQ, gotQ) || !sameBits(wantR, gotR) {
			t.Errorf("workspace reuse at %dx%d diverges from a fresh workspace", shape[0], shape[1])
		}
	}
}

func TestQRBooksOneRecord(t *testing.T) {
	// The inner GEMMs call the kernels directly: one factorization books
	// one QR call and its nominal multiply-adds, and no GEMM.
	a := Random(300, 40, engineRand(9))
	for _, tn := range []Tuning{{}, forceParallel(3)} {
		reg := newTestRegistry(t)
		QROpts(a, tn)
		if got := reg.Counter("dense_qr_calls_total", "").Value(); got != 1 {
			t.Errorf("%+v: dense_qr_calls_total = %g, want 1", tn, got)
		}
		if got, want := reg.Counter("dense_gemm_fma_total", "").Value(), qrFlops(300, 40); got != want {
			t.Errorf("%+v: dense_gemm_fma_total = %g, want qrFlops = %g", tn, got, want)
		}
		for _, name := range []string{"dense_gemm_calls_total", "dense_gemm_t_calls_total", "dense_gemm_nt_calls_total"} {
			if got := reg.Counter(name, "").Value(); got != 0 {
				t.Errorf("%+v: %s = %g, want 0", tn, name, got)
			}
		}
	}
}

func TestQRRequiresTallInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for m < n")
		}
	}()
	QROpts(Random(3, 5, rand.New(rand.NewPCG(1, 2))), Tuning{})
}

func TestOrthonormalizeOptsMatches(t *testing.T) {
	a := Random(60, 6, rand.New(rand.NewPCG(3, 4)))
	q1 := Orthonormalize(a)
	q2 := OrthonormalizeOpts(a, Tuning{Threads: 2, MinParallelFlops: 1})
	if d := maxAbsDiff(q1, q2); d != 0 {
		t.Errorf("OrthonormalizeOpts diverges by %g", d)
	}
	if math.Abs(Norm2(q1.Col(0))-1) > 1e-12 {
		t.Errorf("Q columns not unit length")
	}
}

// BenchmarkQR times one steady-state factorization at the solver shapes
// on the perfbench mag stand-in (7987×2499): the KSI sweep block, 2499×32
// (k=32, on the shorter side), the map of either solver's Ritz vectors
// back to U, 7987×32, and the GEBE^p Krylov basis, 240 columns on the
// shorter side.
func BenchmarkQR(b *testing.B) {
	for _, sh := range [][2]int{{2499, 32}, {7987, 32}, {2499, 240}} {
		m, n := sh[0], sh[1]
		a := Random(m, n, rand.New(rand.NewPCG(1, uint64(n))))
		b.Run(fmt.Sprintf("%dx%d", m, n), func(b *testing.B) {
			var ws QRWork
			ws.Factor(a, Tuning{})
			for b.Loop() {
				ws.Factor(a, Tuning{})
			}
		})
	}
}
