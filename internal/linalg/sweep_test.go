package linalg

import (
	"testing"

	"gebe/internal/dense"
)

// TestKSISweepSteadyStateAllocs pins the zero-alloc sweep contract: with
// an allocation-free operator, silent observability, and the flop gate
// keeping the dense products sequential, a steady-state KSI sweep
// performs no allocations at all. (internal/core pins the same for
// GEBE's sparse operator.)
func TestKSISweepSteadyStateAllocs(t *testing.T) {
	op := denseOp{m: psdRandom(60, 3)}
	z := dense.Orthonormalize(dense.Random(60, 8, NewRand(4)))
	sw := newKSISweep(op, z, dense.Tuning{})
	sw.finish(sw.apply()) // warm the QR workspace
	if n := testing.AllocsPerRun(20, func() {
		sw.finish(sw.apply())
	}); n != 0 {
		t.Errorf("steady-state KSI sweep allocated %v times per run, want 0", n)
	}
}

// TestKSIRunDenseTuningEquivalence: tuning changes scheduling, never
// results — no parallel dense schedule splits a sum, so a forced-parallel
// QR/Mul/TMul run must match the sequential one bit for bit. (Bitwise
// identity of the sequential engine with the reference loops is pinned
// per operation in internal/dense.)
func TestKSIRunDenseTuningEquivalence(t *testing.T) {
	m := psdRandom(50, 11)
	base := KSIRun(denseOp{m: m}, KSIConfig{K: 4, Sweeps: 25, Seed: 3, NoAdaptive: true})
	tuned := KSIRun(denseOp{m: m}, KSIConfig{K: 4, Sweeps: 25, Seed: 3, NoAdaptive: true,
		Dense: dense.Tuning{Threads: 4, MinParallelFlops: 1}})
	if d := dense.Sub(base.Vectors, tuned.Vectors).MaxAbs(); d != 0 {
		t.Errorf("parallel dense tuning changes KSI result by %g", d)
	}
}
