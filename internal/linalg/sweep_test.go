package linalg

import (
	"testing"

	"gebe/internal/dense"
)

// inPlaceOp wraps an explicit symmetric matrix as an InPlaceOperator.
type inPlaceOp struct{ m *dense.Matrix }

func (o inPlaceOp) Dim() int                            { return o.m.Rows }
func (o inPlaceOp) Apply(x *dense.Matrix) *dense.Matrix { return dense.Mul(o.m, x) }
func (o inPlaceOp) ApplyInto(dst, x *dense.Matrix) *dense.Matrix {
	return dense.MulInto(dst, o.m, x, dense.Tuning{})
}

// TestKSISweepSteadyStateAllocs pins the zero-alloc sweep contract: with
// an InPlaceOperator, silent observability, and the flop gate keeping
// the dense products sequential, a steady-state KSI sweep performs no
// allocations at all.
func TestKSISweepSteadyStateAllocs(t *testing.T) {
	op := inPlaceOp{m: psdRandom(60, 3)}
	z := dense.Orthonormalize(dense.Random(60, 8, NewRand(4)))
	sw := newKSISweep(op, z, dense.Tuning{})
	if sw.into == nil {
		t.Fatal("inPlaceOp should be detected as an InPlaceOperator")
	}
	sw.finish(sw.apply()) // warm the QR workspace
	if n := testing.AllocsPerRun(20, func() {
		sw.finish(sw.apply())
	}); n != 0 {
		t.Errorf("steady-state KSI sweep allocated %v times per run, want 0", n)
	}
}

// TestKSIRunInPlaceOperatorMatchesApply: the ApplyInto fast path must
// be invisible in the results — same eigenpairs, same termination.
func TestKSIRunInPlaceOperatorMatchesApply(t *testing.T) {
	m := psdRandom(40, 7)
	cfg := KSIConfig{K: 5, Sweeps: 30, Seed: 9, NoAdaptive: true}
	plain := KSIRun(denseOp{m: m}, cfg)
	inplace := KSIRun(inPlaceOp{m: m}, cfg)
	if d := dense.Sub(plain.Vectors, inplace.Vectors).MaxAbs(); d != 0 {
		t.Errorf("ApplyInto path diverges from Apply path by %g", d)
	}
	for i := range plain.Values {
		if plain.Values[i] != inplace.Values[i] {
			t.Errorf("value %d: %g vs %g", i, plain.Values[i], inplace.Values[i])
		}
	}
	if plain.Sweeps != inplace.Sweeps || plain.Converged != inplace.Converged {
		t.Errorf("termination differs: %+v vs %+v", plain, inplace)
	}
}

// TestKSIRunDenseTuningEquivalence: tuning changes scheduling, never
// results — a forced-parallel QR/Mul run must agree to round-off only
// where the parallel Aᵀ·B reduction reorders sums. (Bitwise identity of
// the sequential engine with the reference loops is pinned per
// operation in internal/dense.)
func TestKSIRunDenseTuningEquivalence(t *testing.T) {
	m := psdRandom(50, 11)
	base := KSIRun(denseOp{m: m}, KSIConfig{K: 4, Sweeps: 25, Seed: 3, NoAdaptive: true})
	tuned := KSIRun(denseOp{m: m}, KSIConfig{K: 4, Sweeps: 25, Seed: 3, NoAdaptive: true,
		Dense: dense.Tuning{Threads: 4, MinParallelFlops: 1}})
	if d := dense.Sub(base.Vectors, tuned.Vectors).MaxAbs(); d > 1e-9 {
		t.Errorf("parallel dense tuning changes KSI result by %g", d)
	}
}
