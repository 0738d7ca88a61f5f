package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"gebe/internal/dense"
	"gebe/internal/sparse"
)

// denseOp wraps an explicit symmetric matrix as an Operator.
type denseOp struct{ m *dense.Matrix }

func (o denseOp) Dim() int { return o.m.Rows }
func (o denseOp) ApplyInto(dst, x *dense.Matrix) *dense.Matrix {
	return dense.MulInto(dst, o.m, x, dense.Tuning{})
}

func symRandom(n int, seed uint64) *dense.Matrix {
	b := dense.Random(n, n, NewRand(seed))
	return dense.Add(b, b.T())
}

// psdRandom returns BᵀB, a PSD matrix (KSI's eigenvalue-from-R trick
// assumes a PSD operator like GEBE's H).
func psdRandom(n int, seed uint64) *dense.Matrix {
	b := dense.Random(n, n, NewRand(seed))
	return dense.TMul(b, b)
}

func randomSparse(t testing.TB, rows, cols, nnz int, seed uint64) *sparse.CSR {
	r := NewRand(seed)
	entries := make([]sparse.Entry, nnz)
	for i := range entries {
		entries[i] = sparse.Entry{Row: r.IntN(rows), Col: r.IntN(cols), Val: r.Float64()}
	}
	m, err := sparse.New(rows, cols, entries)
	if err != nil {
		t.Fatalf("sparse.New: %v", err)
	}
	return m
}

func TestTopSingularValueDiagonal(t *testing.T) {
	// W = diag(5, 3, 1): σ₁ = 5.
	w, _ := sparse.New(3, 3, []sparse.Entry{{Row: 0, Col: 0, Val: 5}, {Row: 1, Col: 1, Val: 3}, {Row: 2, Col: 2, Val: 1}})
	got := TopSingularValue(w, 0, 1, 1)
	if math.Abs(got-5) > 1e-6 {
		t.Errorf("σ₁=%v want 5", got)
	}
}

func TestTopSingularValueMatchesExactSVD(t *testing.T) {
	w := randomSparse(t, 40, 25, 300, 2)
	_, s, _ := dense.SVD(w.ToDense())
	got := TopSingularValue(w, 200, 3, 1)
	if math.Abs(got-s[0]) > 1e-5*s[0] {
		t.Errorf("σ₁=%v exact %v", got, s[0])
	}
}

func TestTopSingularValueEmpty(t *testing.T) {
	w, _ := sparse.New(5, 5, nil)
	if got := TopSingularValue(w, 0, 1, 1); got != 0 {
		t.Errorf("σ₁ of empty = %v want 0", got)
	}
}

func TestKSIRecoversTopEigenpairsPSD(t *testing.T) {
	n, k := 30, 4
	a := psdRandom(n, 5)
	wantVals, wantVecs := dense.SymEig(a)
	res := KSI(denseOp{a}, k, 500, 1e-10, 7)
	if !res.Converged {
		t.Fatalf("KSI did not converge in %d sweeps", res.Sweeps)
	}
	for i := 0; i < k; i++ {
		if math.Abs(res.Values[i]-wantVals[i]) > 1e-6*(1+wantVals[i]) {
			t.Errorf("eigenvalue %d: got %v want %v", i, res.Values[i], wantVals[i])
		}
		// Eigenvector agreement up to sign.
		got := res.Vectors.Col(i)
		want := wantVecs.Col(i)
		d := math.Abs(dense.Dot(got, want))
		if d < 1-1e-6 {
			t.Errorf("eigenvector %d: |cos| = %v", i, d)
		}
	}
}

func TestKSIEigenResidual(t *testing.T) {
	n, k := 50, 6
	a := psdRandom(n, 9)
	res := KSI(denseOp{a}, k, 500, 1e-10, 11)
	av := dense.Mul(a, res.Vectors)
	vl := res.Vectors.Clone()
	vl.ScaleCols(res.Values)
	r := dense.Sub(av, vl)
	if rn := r.FrobeniusNorm() / av.FrobeniusNorm(); rn > 1e-5 {
		t.Errorf("relative eigen residual %g too large", rn)
	}
}

func TestKSIKEqualsDim(t *testing.T) {
	a := psdRandom(6, 13)
	res := KSI(denseOp{a}, 6, 500, 1e-10, 1)
	wantVals, _ := dense.SymEig(a)
	for i := range wantVals {
		if math.Abs(res.Values[i]-wantVals[i]) > 1e-5*(1+wantVals[i]) {
			t.Errorf("full-k eigenvalue %d: got %v want %v", i, res.Values[i], wantVals[i])
		}
	}
}

func TestKSIPanicsOnBadK(t *testing.T) {
	a := psdRandom(4, 1)
	for _, k := range []int{0, 5, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d: expected panic", k)
				}
			}()
			KSI(denseOp{a}, k, 10, 0, 1)
		}()
	}
}

// TestRandomizedSVDMatchesExact runs the solver on both orientations:
// the tall W builds its basis over W's columns, the wide one over its
// rows.
func TestRandomizedSVDMatchesExact(t *testing.T) {
	for _, sh := range [][2]int{{60, 40}, {40, 60}} {
		w := randomSparse(t, sh[0], sh[1], 500, 17)
		_, s, _ := dense.SVD(w.ToDense())
		res := RandomizedSVD(w, 5, 0.01, 19, 1)
		if res.BasisRows != min(sh[0], sh[1]) {
			t.Errorf("%dx%d: basis has %d rows, want the shorter side", sh[0], sh[1], res.BasisRows)
		}
		for i := 0; i < 5; i++ {
			if math.Abs(res.Sigma[i]-s[i]) > 1e-3*(1+s[i]) {
				t.Errorf("%dx%d: σ_%d: got %v exact %v", sh[0], sh[1], i, res.Sigma[i], s[i])
			}
		}
		// Left singular vectors: U should satisfy ‖WᵀU[:,i]‖ = σ_i and UᵀU = I.
		utu := dense.TMul(res.U, res.U)
		if !dense.Equal(utu, dense.Identity(5), 1e-8) {
			t.Errorf("%dx%d: U columns not orthonormal", sh[0], sh[1])
		}
		wtu := w.TMulDense(res.U, 1)
		for i := 0; i < 5; i++ {
			n := dense.Norm2(wtu.Col(i))
			if math.Abs(n-s[i]) > 1e-3*(1+s[i]) {
				t.Errorf("%dx%d: ‖WᵀU[:,%d]‖ = %v want σ=%v", sh[0], sh[1], i, n, s[i])
			}
		}
		if math.Abs(res.SigmaK1-s[5]) > 1e-2*(1+s[5]) {
			t.Errorf("%dx%d: σ_k+1 estimate %v, exact %v", sh[0], sh[1], res.SigmaK1, s[5])
		}
	}
}

func TestRandomizedSVDLowRankExactRecovery(t *testing.T) {
	// Build a rank-3 sparse-ish matrix: W = Σ σ_i u_i v_iᵀ on small support.
	// Use outer products of indicator-ish vectors for exact structure.
	entries := []sparse.Entry{}
	for i := 0; i < 10; i++ {
		entries = append(entries, sparse.Entry{Row: i, Col: i % 4, Val: 2})
		entries = append(entries, sparse.Entry{Row: i, Col: 4 + i%3, Val: 1})
	}
	w, err := sparse.New(10, 8, entries)
	if err != nil {
		t.Fatal(err)
	}
	_, s, _ := dense.SVD(w.ToDense())
	res := RandomizedSVD(w, 3, 0.05, 23, 1)
	for i := 0; i < 3; i++ {
		if math.Abs(res.Sigma[i]-s[i]) > 1e-4*(1+s[i]) {
			t.Errorf("σ_%d: got %v exact %v", i, res.Sigma[i], s[i])
		}
	}
}

func TestRandomizedSVDPanicsOnBadK(t *testing.T) {
	w := randomSparse(t, 10, 5, 20, 29)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for k > min dim")
		}
	}()
	RandomizedSVD(w, 6, 0.1, 1, 1)
}

func TestRandomizedSVDDeterministicForSeed(t *testing.T) {
	w := randomSparse(t, 30, 20, 200, 31)
	a := RandomizedSVD(w, 4, 0.1, 42, 1)
	b := RandomizedSVD(w, 4, 0.1, 42, 2) // threads must not affect results
	for i := range a.Sigma {
		if math.Abs(a.Sigma[i]-b.Sigma[i]) > 1e-12 {
			t.Errorf("σ_%d differs across runs: %v vs %v", i, a.Sigma[i], b.Sigma[i])
		}
	}
	if !dense.Equal(a.U, b.U, 1e-12) {
		t.Error("U differs across identical-seed runs")
	}
}

// Property: randomized SVD's σ₁ is within a few percent of the power
// iteration estimate on random sparse matrices.
func TestPropertySigma1Consistency(t *testing.T) {
	f := func(seed uint64) bool {
		rows := 10 + int(seed%30)
		cols := 10 + int((seed/3)%30)
		w := randomSparse(t, rows, cols, 5*(rows+cols), seed)
		if w.NNZ() == 0 {
			return true
		}
		p := TopSingularValue(w, 300, seed+1, 1)
		r := RandomizedSVD(w, 1, 0.05, seed+2, 1)
		return math.Abs(p-r.Sigma[0]) < 0.02*(1+p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// BenchmarkRandomizedSVD times GEBE^p's solve shape: a skewed W shaped
// like the mag stand-in (7987×2499, ≈62.8k nonzeros) and its transpose,
// k=32, ε=0.1, one thread. Both orientations build the same 2499-row
// basis.
func BenchmarkRandomizedSVD(b *testing.B) {
	r := NewRand(97)
	entries := make([]sparse.Entry, 62842)
	for i := range entries {
		u := r.Float64()
		entries[i] = sparse.Entry{Row: min(int(u*u*u*7987), 7986), Col: r.IntN(2499), Val: r.Float64()}
	}
	tall, err := sparse.New(7987, 2499, entries)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		w    *sparse.CSR
	}{{"7987x2499", tall}, {"2499x7987", tall.T()}} {
		b.Run(bc.name, func(b *testing.B) {
			RandomizedSVD(bc.w, 32, 0.1, 1, 1) // builds the cached transpose
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = RandomizedSVD(bc.w, 32, 0.1, uint64(i), 1)
			}
		})
	}
}

var benchSink RSVDResult
