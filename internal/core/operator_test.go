package core

import (
	"fmt"
	"math"
	"testing"

	"gebe/internal/cpu"
	"gebe/internal/dense"
	"gebe/internal/linalg"
	"gebe/internal/pmf"
	"gebe/internal/sparse"
)

// tablePMF is a PMF given by its weights, zero past the table: it puts
// zero-weight terms anywhere in the series, ω(0) included.
type tablePMF []float64

func (p tablePMF) Weight(ell int) float64 {
	if ell < 0 || ell >= len(p) {
		return 0
	}
	return p[ell]
}

func (tablePMF) Name() string { return "table" }

// refApplyH is H·z as hOperator computed it before its workspace: a
// fresh ω(0)-scaled clone, then AddScaled of each nonzero-weight term,
// with every product on the uninstrumented reference loops.
func refApplyH(w *sparse.CSR, omega pmf.PMF, tau int, z *dense.Matrix) *dense.Matrix {
	q := z.Clone()
	q.Scale(omega.Weight(0))
	ql := z
	for ell := 1; ell <= tau; ell++ {
		ql = w.ReferenceMulDense(w.ReferenceTMulDense(ql))
		if wl := omega.Weight(ell); wl != 0 {
			q.AddScaled(wl, ql)
		}
	}
	return q
}

func sameBitsMatrix(a, b *dense.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestHOperatorApplyIntoMatchesReference: the workspace operator
// reproduces the allocating formula bit for bit for every PMF, for τ of
// 0 and 1 as well as a deep series, with zero-weight terms (ω(0)
// included), on one and two threads, into a NaN-prefilled destination
// and again into the now-dirty one. The V-side operator must give
// H_V·z = the same formula over Wᵀ, and MHP-BNE's P·Pᵀ operator is
// checked the same way.
func TestHOperatorApplyIntoMatchesReference(t *testing.T) {
	g := randomBipartite(t, 70, 45, 500, true, 31)
	w := WeightMatrix(g).Scaled(0.2)
	pmfs := []pmf.PMF{
		pmf.NewPoisson(1), pmf.NewGeometric(0.3), pmf.NewUniform(2),
		tablePMF{0, 0.7, 0, 0.2},
	}
	for _, om := range pmfs {
		for _, tau := range []int{0, 1, 4} {
			for _, threads := range []int{1, 2} {
				for _, k := range []int{3, 8, 24, 32, 40, 64} {
					opt := Options{PMF: om, Tau: tau, Threads: threads,
						SpMM: sparse.Tuning{MinParallelNNZ: 1, Kernels: cpu.KernelSIMD}}
					name := fmt.Sprintf("%s/tau=%d/t=%d/k=%d", om.Name(), tau, threads, k)
					z := dense.Random(w.Rows, k, linalg.NewRand(uint64(k+tau)))
					want := refApplyH(w, om, tau, z)
					h := newHOperator(w, opt)
					dst := nanBlock(w.Rows, k)
					for pass := 0; pass < 2; pass++ {
						if got := h.ApplyInto(dst, z); !sameBitsMatrix(got, want) {
							t.Fatalf("%s pass %d: ApplyInto differs from the reference formula", name, pass)
						}
					}
					zv := dense.Random(w.Cols, k, linalg.NewRand(uint64(k+tau)+1))
					wantV := refApplyH(w.T(), om, tau, zv)
					v := newVOperator(w, opt)
					dstV := nanBlock(w.Cols, k)
					for pass := 0; pass < 2; pass++ {
						if got := v.ApplyInto(dstV, zv); !sameBitsMatrix(got, wantV) {
							t.Fatalf("%s pass %d: V-side ApplyInto differs from the reference formula over Wᵀ", name, pass)
						}
					}
					wantPP := refApplyH(w, om, tau, w.ReferenceMulDense(w.ReferenceTMulDense(want)))
					pp := &ppOperator{h: newHOperator(w, opt)}
					if got := pp.ApplyInto(dense.New(w.Rows, k), z); !sameBitsMatrix(got, wantPP) {
						t.Fatalf("%s: ppOperator differs from the reference formula", name)
					}
				}
			}
		}
	}
}

// TestVOperatorStartsFromLiftedBlock: H_V·Wᵀ = Wᵀ·H, so a KSI run on
// the V side that starts from Wᵀ times the U side's start block keeps
// its iterate equal to Wᵀ times the U side's, sweep for sweep. After a
// few sweeps, from the seed's Gaussian block and from a warm block, the
// V-side subspace must be Wᵀ times the U-side one (equal projectors);
// a V-side start of its own would not be.
func TestVOperatorStartsFromLiftedBlock(t *testing.T) {
	g := randomBipartite(t, 70, 45, 500, true, 36)
	w := WeightMatrix(g).Scaled(0.2)
	opt := Options{PMF: pmf.NewPoisson(1), Tau: 3, Threads: 1}
	projector := func(z *dense.Matrix) *dense.Matrix {
		q := dense.Orthonormalize(z)
		return dense.MulT(q, q)
	}
	for _, warm := range []bool{false, true} {
		cfg := linalg.KSIConfig{K: 5, Sweeps: 3, Tol: 1e-300, Seed: 7, NoAdaptive: true}
		if warm {
			cfg.InitQ = dense.Random(w.Rows-4, 3, linalg.NewRand(8)) // fewer rows and columns: zero-padded
		}
		u := linalg.KSIRun(newHOperator(w, opt), cfg)
		v := linalg.KSIRun(newVOperator(w, opt), cfg)
		want := projector(w.TMulDense(u.Vectors, 1))
		if d := dense.Sub(projector(v.Vectors), want).MaxAbs(); d > 1e-9 {
			t.Errorf("warm=%v: V-side subspace is %g away from Wᵀ times the U-side one", warm, d)
		}
	}
}

func nanBlock(rows, cols int) *dense.Matrix {
	m := dense.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = math.NaN()
	}
	return m
}

// TestGEBESweepSteadyStateAllocs pins the allocation-free solve on the
// real operators, the U side and the V side: a warm operator product
// allocates nothing, and a KSI run of 15 sweeps allocates exactly as
// much as one of 5, so every steady-state sweep — 2τ SpMMs, the QR and
// the subspace-change products — allocates 0.
func TestGEBESweepSteadyStateAllocs(t *testing.T) {
	g := randomBipartite(t, 120, 80, 900, false, 32)
	opt := Options{PMF: pmf.NewPoisson(1), Tau: 4, Threads: 1}
	w := WeightMatrix(g).Scaled(0.1)
	for _, side := range []struct {
		name string
		op   func() linalg.Operator
	}{
		{"U", func() linalg.Operator { return newHOperator(w, opt) }},
		{"V", func() linalg.Operator { return newVOperator(w, opt) }},
	} {
		op := side.op()
		z := dense.Random(op.Dim(), 8, linalg.NewRand(3))
		dst := dense.New(op.Dim(), 8)
		op.ApplyInto(dst, z)
		if n := testing.AllocsPerRun(10, func() { op.ApplyInto(dst, z) }); n != 0 {
			t.Errorf("%s side: warm ApplyInto allocated %v times per call, want 0", side.name, n)
		}
		allocs := func(sweeps int) float64 {
			cfg := linalg.KSIConfig{K: 8, Sweeps: sweeps, Tol: 1e-300, Seed: 5, NoAdaptive: true}
			return testing.AllocsPerRun(3, func() {
				if res := linalg.KSIRun(side.op(), cfg); res.Sweeps != sweeps {
					t.Fatalf("%s side: KSI stopped after %d sweeps, want %d", side.name, res.Sweeps, sweeps)
				}
			})
		}
		if short, long := allocs(5), allocs(15); long != short {
			t.Errorf("%s side: KSI allocated %v times over 15 sweeps but %v over 5: steady-state sweeps allocate", side.name, long, short)
		}
	}
}

// TestGEBEThreadsBitwise: with every parallel gate dropped, GEBE on two
// threads returns the one-thread embedding bit for bit — no sparse or
// dense schedule splits a sum — on a tall graph (sweeps on H_V) and a
// wide one (on H). At K=32 the one-thread hops run the fused kernel
// where the CPU has it, and the two-thread ones the two gathers.
func TestGEBEThreadsBitwise(t *testing.T) {
	for _, sh := range [][2]int{{90, 60}, {60, 90}} {
		g := randomBipartite(t, sh[0], sh[1], 700, true, 33)
		for _, k := range []int{6, 32} {
			run := func(threads int) *Embedding {
				emb, err := GEBE(g, Options{K: k, Tau: 5, Iters: 40, Seed: 9, Threads: threads,
					SpMM:  sparse.Tuning{MinParallelNNZ: 1},
					Dense: dense.Tuning{MinParallelFlops: 1}})
				if err != nil {
					t.Fatal(err)
				}
				return emb
			}
			one, two := run(1), run(2)
			name := fmt.Sprintf("%dx%d K=%d", g.NU, g.NV, k)
			if !sameBitsMatrix(one.U, two.U) || !sameBitsMatrix(one.V, two.V) {
				t.Fatalf("%s: GEBE embedding differs between Threads=1 and Threads=2", name)
			}
			for i := range one.Values {
				if math.Float64bits(one.Values[i]) != math.Float64bits(two.Values[i]) {
					t.Fatalf("%s: eigenvalue %d differs between Threads=1 and Threads=2: %v vs %v", name, i, one.Values[i], two.Values[i])
				}
			}
			if one.Sweeps != two.Sweeps {
				t.Fatalf("%s: sweeps differ: %d vs %d", name, one.Sweeps, two.Sweeps)
			}
		}
	}
}

// TestGEBEPThreadsBitwise: with every parallel gate dropped, GEBE^p on
// three threads returns the one-thread embedding bit for bit, on a tall
// graph (basis over W's columns) and a wide one (over its rows). K=6
// builds a four-block Krylov basis, K=32 a single block.
func TestGEBEPThreadsBitwise(t *testing.T) {
	for _, sh := range [][2]int{{90, 60}, {60, 90}} {
		g := randomBipartite(t, sh[0], sh[1], 700, true, 35)
		for _, k := range []int{6, 32} {
			run := func(threads int) *Embedding {
				emb, err := GEBEP(g, Options{K: k, Seed: 9, Threads: threads,
					SpMM:  sparse.Tuning{MinParallelNNZ: 1},
					Dense: dense.Tuning{MinParallelFlops: 1}})
				if err != nil {
					t.Fatal(err)
				}
				return emb
			}
			one, three := run(1), run(3)
			if !sameBitsMatrix(one.U, three.U) || !sameBitsMatrix(one.V, three.V) {
				t.Fatalf("%dx%d K=%d: GEBE^p embedding differs between Threads=1 and Threads=3", sh[0], sh[1], k)
			}
			for i := range one.Values {
				if math.Float64bits(one.Values[i]) != math.Float64bits(three.Values[i]) {
					t.Fatalf("%dx%d K=%d: eigenvalue %d differs between Threads=1 and Threads=3: %v vs %v",
						sh[0], sh[1], k, i, one.Values[i], three.Values[i])
				}
			}
		}
	}
}
