package dense

import (
	"math"
	"math/rand/v2"
	"testing"
)

// The blocked QR's contract: bitwise identity with qrLegacy (see the
// file comment in qr.go), plus the usual factorization invariants on
// shapes chosen to stress the panel logic — widths straddling the panel
// boundary, m≈n, rank deficiency, exact zero columns.

func qrShapes() []*Matrix {
	r := rand.New(rand.NewPCG(42, 0x5eed))
	shapes := []*Matrix{
		Random(1, 1, r),
		Random(5, 5, r),    // m == n
		Random(9, 8, r),    // m = n+1 at exactly one panel
		Random(40, 7, r),   // sub-panel width
		Random(40, 8, r),   // exactly one panel
		Random(40, 9, r),   // panel + 1 remainder column
		Random(200, 16, r), // two full panels
		Random(300, 21, r), // panels + remainder
		Random(64, 64, r),  // square multi-panel
		New(30, 6),         // all-zero matrix
	}
	// Rank-deficient: duplicate and zero columns across panel boundaries.
	rd := Random(120, 12, r)
	for i := 0; i < rd.Rows; i++ {
		rd.Set(i, 5, rd.At(i, 2)) // col 5 = col 2 (same panel)
		rd.Set(i, 9, rd.At(i, 0)) // col 9 = col 0 (across panels)
		rd.Set(i, 11, 0)          // zero column
	}
	shapes = append(shapes, rd)
	// Nearly dependent columns — the ill-conditioned case KSI feeds QR.
	nc := Random(150, 10, r)
	for i := 0; i < nc.Rows; i++ {
		nc.Set(i, 7, nc.At(i, 1)+1e-13*nc.At(i, 3))
	}
	return append(shapes, nc)
}

func TestQRMatchesLegacyBitwise(t *testing.T) {
	for _, a := range qrShapes() {
		wantQ, wantR := ReferenceQR(a)
		for _, threads := range []int{1, 2, 4} {
			gotQ, gotR := QROpts(a, Tuning{Threads: threads, MinParallelFlops: 1})
			if d := maxAbsDiff(wantQ, gotQ); d != 0 {
				t.Fatalf("%dx%d threads=%d: Q diff %g, want bitwise match", a.Rows, a.Cols, threads, d)
			}
			if d := maxAbsDiff(wantR, gotR); d != 0 {
				t.Fatalf("%dx%d threads=%d: R diff %g, want bitwise match", a.Rows, a.Cols, threads, d)
			}
		}
	}
}

func TestQRInvariants(t *testing.T) {
	for _, a := range qrShapes() {
		for _, tc := range []struct {
			name   string
			factor func(*Matrix) (q, r *Matrix)
		}{
			{"serial", func(a *Matrix) (q, r *Matrix) { return QROpts(a, Tuning{}) }},
			{"parallel", func(a *Matrix) (q, r *Matrix) { return QROpts(a, Tuning{Threads: 4, MinParallelFlops: 1}) }},
			{"reference", ReferenceQR},
		} {
			q, r := tc.factor(a)
			n := a.Cols
			// Orthonormal columns: ‖QᵀQ − I‖_max small. Rank-deficient
			// inputs still give orthonormal Q (reflectors of zero columns
			// are identity, and the affected Q columns stay unit vectors).
			qtq := TMul(q, q)
			for i := 0; i < n; i++ {
				qtq.Set(i, i, qtq.At(i, i)-1)
			}
			if d := qtq.MaxAbs(); d > 1e-12 {
				t.Errorf("%dx%d %s: ‖QᵀQ−I‖ = %g", a.Rows, a.Cols, tc.name, d)
			}
			// Reconstruction: ‖QR − A‖ small relative to ‖A‖.
			recon := maxAbsDiff(Mul(q, r), a)
			scale := a.MaxAbs()
			if scale == 0 {
				scale = 1
			}
			if recon/scale > 1e-12 {
				t.Errorf("%dx%d %s: ‖QR−A‖/‖A‖ = %g", a.Rows, a.Cols, tc.name, recon/scale)
			}
			// R upper triangular.
			for i := 0; i < n; i++ {
				for j := 0; j < i; j++ {
					if r.At(i, j) != 0 {
						t.Fatalf("%dx%d: R[%d,%d] = %g below the diagonal", a.Rows, a.Cols, i, j, r.At(i, j))
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
	// grows the workspace).
	a := Random(80, 8, r)
	ws.Factor(a, tn)
	if n := testing.AllocsPerRun(10, func() { ws.Factor(a, tn) }); n != 0 {
		t.Errorf("QRWork.Factor allocated %v times per steady-state run, want 0", n)
	}
	// KSI's aliasing pattern: the next input is built from (here: is) the
	// previous output view.
	q1 := ws.Orthonormalize(a, tn)
	want, _ := qrLegacy(q1.Clone())
	q2 := ws.Orthonormalize(q1, tn)
	if d := maxAbsDiff(want, q2); d != 0 {
		t.Errorf("Factor with input aliasing previous Q: diff %g, want bitwise match", d)
	}
	// Shrinking then regrowing shapes reuses the workspace correctly.
	for _, shape := range [][2]int{{30, 4}, {200, 16}, {10, 10}} {
		m := Random(shape[0], shape[1], r)
		gotQ, gotR := ws.Factor(m, tn)
		wantQ, wantR := qrLegacy(m)
		if maxAbsDiff(wantQ, gotQ) != 0 || maxAbsDiff(wantR, gotR) != 0 {
			t.Errorf("workspace reuse at %dx%d diverges from legacy", shape[0], shape[1])
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
