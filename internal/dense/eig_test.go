package dense

import (
	"fmt"
	"math"
	"testing"
)

// SymEig against an oracle on the inputs the solvers feed it and on the
// classic hard cases. Eigenvalues are unique, so they are compared
// directly; eigenvectors are not (a repeated eigenvalue has a whole
// subspace of them), so they are held to the residual ‖AV − VΛ‖ and the
// orthogonality ‖VᵀV − I‖ instead. The oracle is the cyclic Jacobi
// solver (ReferenceSymEig), except where the test builds the matrix from
// a known spectrum: those cases are checked against the spectrum itself,
// and hold the Jacobi oracle to the same bounds.

// The stated bounds, as multiples of n·u (relative to ‖A‖_F where the
// quantity scales with A). Measured values stay under 2 on every case.
const (
	eigValueBound    = 8 // |λ − λ_ref| ≤ eigValueBound·n·u·‖A‖_F
	eigResidualBound = 8 // ‖AV − VΛ‖_max ≤ eigResidualBound·n·u·‖A‖_F
	eigOrthoBound    = 8 // ‖VᵀV − I‖_max ≤ eigOrthoBound·n·u
)

type eigCase struct {
	name     string
	a        *Matrix
	spectrum []float64 // descending; nil means ReferenceSymEig is the oracle
}

// withSpectrum returns Q·diag(vals)·Qᵀ for a random orthogonal Q.
func withSpectrum(vals []float64, seed uint64) *Matrix {
	n := len(vals)
	q, _ := ReferenceQR(Random(n, n, rng(seed)))
	qd := q.Clone()
	qd.ScaleCols(vals)
	return ReferenceMulT(qd, q)
}

func eigCases() []eigCase {
	r := rng(21)
	var cases []eigCase
	for _, n := range []int{3, 7, 32, 60} {
		b := Random(n, n, r)
		cases = append(cases, eigCase{fmt.Sprintf("random symmetric %d", n), Add(b, b.T()), nil})
	}
	// The RSVD's M = (WᵀK)ᵀ(WᵀK): PSD, with most eigenvalues near zero.
	g := Random(48, 10, r)
	psd := ReferenceMulT(g, g)
	cases = append(cases, eigCase{"PSD gram rank 10 of 48", psd, nil})
	g2 := Random(200, 60, r)
	for j := 20; j < 60; j++ { // 40 columns with tiny weight
		for i := 0; i < 200; i++ {
			g2.Set(i, j, g2.At(i, j)*1e-9)
		}
	}
	cases = append(cases, eigCase{"PSD gram 60 graded", ReferenceTMul(g2, g2), nil})
	repeated := []float64{3, 3, 3, 1, 1, 0, 0, 0, -2, -2}
	clustered := []float64{1 + 2e-10, 1 + 1e-10, 1, 1 - 1e-12, 0.5 + 1e-14, 0.5, -1}
	cases = append(cases,
		eigCase{"repeated", withSpectrum(repeated, 5), repeated},
		eigCase{"clustered", withSpectrum(clustered, 6), clustered},
		eigCase{"diagonal", FromRows([][]float64{{2, 0, 0, 0}, {0, -5, 0, 0}, {0, 0, 7, 0}, {0, 0, 0, 2}}), []float64{7, 2, 2, -5}},
		eigCase{"zero", New(6, 6), make([]float64, 6)},
		eigCase{"1x1", FromRows([][]float64{{-4}}), []float64{-4}},
		eigCase{"2x2", FromRows([][]float64{{2, 1}, {1, 2}}), []float64{3, 1}},
		// Scale invariance: an absolute stopping threshold would return
		// this matrix's diagonal unrotated.
		eigCase{"2x2 at 1e-13", FromRows([][]float64{{2e-13, 1e-13}, {1e-13, 2e-13}}), []float64{3e-13, 1e-13}},
	)
	// Graded: entries from 1e-12 to 1.
	n := 13
	gr := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := math.Pow(10, -float64(i+j)/2) * (0.5 + r.Float64())
			gr.Set(i, j, v)
			gr.Set(j, i, v)
		}
	}
	return append(cases, eigCase{"graded 1e-12..1", gr, nil})
}

func TestSymEigMatchesReference(t *testing.T) {
	for _, tc := range eigCases() {
		a := tc.a
		n := a.Rows
		nu := float64(n) * unitRoundoff
		norm := a.FrobeniusNorm()
		vals, vecs := SymEig(a)
		refVals := tc.spectrum
		if refVals == nil {
			refVals, _ = ReferenceSymEig(a)
		}
		worst := 0.0
		for i := range vals {
			worst = max(worst, math.Abs(vals[i]-refVals[i]))
			if i > 0 && vals[i] > vals[i-1] {
				t.Errorf("%s: eigenvalues not descending at %d: %v", tc.name, i, vals)
			}
		}
		if worst > eigValueBound*nu*norm {
			t.Errorf("%s: max |λ−λ_ref| = %.3g, bound %.3g", tc.name, worst, eigValueBound*nu*norm)
		}
		av := ReferenceMul(a, vecs)
		vl := vecs.Clone()
		vl.ScaleCols(vals)
		if res := Sub(av, vl).MaxAbs(); res > eigResidualBound*nu*norm {
			t.Errorf("%s: ‖AV−VΛ‖_max = %.3g, bound %.3g", tc.name, res, eigResidualBound*nu*norm)
		}
		vtv := ReferenceTMul(vecs, vecs)
		if d := Sub(vtv, Identity(n)).MaxAbs(); d > eigOrthoBound*nu {
			t.Errorf("%s: ‖VᵀV−I‖_max = %.3g, bound %.3g", tc.name, d, eigOrthoBound*nu)
		}
	}
}

// TestReferenceSymEigKnownSpectrum holds the Jacobi oracle itself to
// the SymEig bounds on the cases built from a known spectrum — among
// them the 1e-10 cluster and a 2×2 scaled to 1e-13, which only a stop
// relative to ‖A‖_F rotates at all.
func TestReferenceSymEigKnownSpectrum(t *testing.T) {
	for _, tc := range eigCases() {
		if tc.spectrum == nil {
			continue
		}
		a := tc.a
		n := a.Rows
		nu := float64(n) * unitRoundoff
		norm := a.FrobeniusNorm()
		vals, vecs := ReferenceSymEig(a)
		for i := range vals {
			if d := math.Abs(vals[i] - tc.spectrum[i]); d > eigValueBound*nu*norm {
				t.Errorf("%s: λ_%d = %.17g, want %.17g (|Δ| %.3g > bound %.3g)",
					tc.name, i, vals[i], tc.spectrum[i], d, eigValueBound*nu*norm)
			}
		}
		av := ReferenceMul(a, vecs)
		vl := vecs.Clone()
		vl.ScaleCols(vals)
		if res := Sub(av, vl).MaxAbs(); res > eigResidualBound*nu*norm {
			t.Errorf("%s: ‖AV−VΛ‖_max = %.3g, bound %.3g", tc.name, res, eigResidualBound*nu*norm)
		}
		if d := Sub(ReferenceTMul(vecs, vecs), Identity(n)).MaxAbs(); d > eigOrthoBound*nu {
			t.Errorf("%s: ‖VᵀV−I‖_max = %.3g, bound %.3g", tc.name, d, eigOrthoBound*nu)
		}
	}
}

// BenchmarkSymEig times the eigensolver on a PSD Gram matrix, the shape
// of the RSVD's projected problem: n=240 is the GEBE^p Krylov width at
// k=32, n=32 the KSI Rayleigh–Ritz block.
func BenchmarkSymEig(b *testing.B) {
	for _, n := range []int{32, 240} {
		g := Random(2*n, n, rng(uint64(n)))
		a := ReferenceTMul(g, g)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for b.Loop() {
				SymEig(a)
			}
		})
	}
}
