package linalg

import (
	"time"

	"gebe/internal/dense"
)

// ksiSweep is KSIRun's per-run workspace: every buffer the steady-state
// sweep loop touches, allocated once up front. After the first sweep a
// sweep allocates nothing when the operator's ApplyInto does not and the
// flop gate keeps the dense products sequential (pinned by
// TestKSISweepSteadyStateAllocs).
type ksiSweep struct {
	op   Operator
	dn   dense.Tuning
	z    *dense.Matrix // current orthonormal basis (owned)
	hz   *dense.Matrix // ApplyInto destination
	qrws dense.QRWork
	p    *dense.Matrix // k×k   zᵀ·zNew
	proj *dense.Matrix // n×k   z·p
	diff *dense.Matrix // n×k   zNew − proj
}

// newKSISweep takes ownership of the starting basis z.
func newKSISweep(op Operator, z *dense.Matrix, dn dense.Tuning) *ksiSweep {
	n, k := z.Rows, z.Cols
	return &ksiSweep{op: op, dn: dn, z: z, hz: dense.New(n, k),
		p: dense.New(k, k), proj: dense.New(n, k), diff: dense.New(n, k)}
}

// apply returns op·z in the hz buffer. The result is only valid until
// the next apply call.
func (s *ksiSweep) apply() *dense.Matrix {
	return s.op.ApplyInto(s.hz, s.z)
}

// finish completes one KSI sweep from the operator product hz (as
// returned by apply): Z ← orth(hz), leaving the new basis in s.z. It
// returns the raw Frobenius norm of the part of the new basis outside
// the old span, and the QR wall time. Split from apply so KSIRun can
// read Ritz values off the pre-sweep basis in between.
func (s *ksiSweep) finish(hz *dense.Matrix) (frob float64, qrDur time.Duration) {
	qrStart := time.Now()
	zNew := s.qrws.Orthonormalize(hz, s.dn)
	qrDur = time.Since(qrStart)
	// Subspace change: the part of the new basis outside span(z).
	dense.TMulInto(s.p, s.z, zNew, s.dn)  // k×k
	dense.MulInto(s.proj, s.z, s.p, s.dn) // n×k
	dense.SubInto(s.diff, zNew, s.proj)   // residual outside the old span
	frob = s.diff.FrobeniusNorm()
	copy(s.z.Data, zNew.Data)
	return frob, qrDur
}
