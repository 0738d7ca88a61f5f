package linalg

import (
	"math"
	"testing"
	"time"

	"gebe/internal/dense"
	"gebe/internal/obs"
)

// settledRitz returns a constant Ritz snapshot — eigenvalues that have
// stopped moving.
func settledRitz() []float64 { return []float64{2, 1, 0.5} }

// movingRitz returns Ritz values that still drift by ~1e-6 per sweep,
// three orders of magnitude above the controller's stability threshold.
func movingRitz(sweep int) []float64 {
	return []float64{2 + 1e-6*float64(sweep), 1, 0.5}
}

// TestControllerHealthyDecayNeverStops feeds a clean geometric decay
// whose tolerance is comfortably reachable: the controller must stay
// silent for the whole budget.
func TestControllerHealthyDecayNeverStops(t *testing.T) {
	c := newDecayController(0, 0, 1e-20, 100)
	r := 1.0
	for sweep := 1; sweep <= 100; sweep++ {
		r *= 0.5
		if v := c.observe(sweep, r, settledRitz()); v.stop {
			t.Fatalf("sweep %d: spurious stop (%s) on healthy 0.5-rate decay", sweep, v.reason)
		}
	}
}

// TestControllerUnreachableTol checks the budget projection: decaying at
// 0.9 per sweep toward Tol=1e-30 with 60 sweeps total cannot get there,
// and the controller must say so at the first full window — but only
// once the Ritz values have gone still.
func TestControllerUnreachableTol(t *testing.T) {
	c := newDecayController(0, 0, 1e-30, 60)
	r := 1.0
	var fired int
	for sweep := 1; sweep <= 60; sweep++ {
		r *= 0.9
		v := c.observe(sweep, r, settledRitz())
		if v.stop {
			if v.reason != StopUnreachable {
				t.Fatalf("sweep %d: reason %s, want %s", sweep, v.reason, StopUnreachable)
			}
			if v.projected <= 1e-30 {
				t.Errorf("projected residual %g should exceed tol", v.projected)
			}
			fired = sweep
			break
		}
	}
	if fired != defaultStopWindow+1 {
		t.Errorf("unreachable verdict at sweep %d, want %d (first full window)", fired, defaultStopWindow+1)
	}

	// Same decay with still-moving Ritz values: no early exit.
	c = newDecayController(0, 0, 1e-30, 60)
	r = 1.0
	for sweep := 1; sweep <= 60; sweep++ {
		r *= 0.9
		if v := c.observe(sweep, r, movingRitz(sweep)); v.stop {
			t.Fatalf("sweep %d: stopped (%s) while eigenvalues still moving", sweep, v.reason)
		}
	}
}

// TestControllerStagnation checks the flatness rule: a residual stuck at
// a floor stops the run once the Ritz values settle, and never before.
func TestControllerStagnation(t *testing.T) {
	c := newDecayController(0, 0, 1e-12, 200)
	var fired int
	for sweep := 1; sweep <= 200; sweep++ {
		v := c.observe(sweep, 1e-9, settledRitz())
		if sweep <= defaultStopWindow && v.stop {
			t.Fatalf("sweep %d: verdict before the window filled", sweep)
		}
		if v.stop {
			if v.reason != StopStagnated {
				t.Fatalf("sweep %d: reason %s, want %s", sweep, v.reason, StopStagnated)
			}
			fired = sweep
			break
		}
	}
	if fired != defaultStopWindow+1 {
		t.Errorf("stagnation verdict at sweep %d, want %d", fired, defaultStopWindow+1)
	}

	// A flat residual with rotating Ritz values is a transient plateau,
	// not a floor: the controller must wait it out.
	c = newDecayController(0, 0, 1e-12, 200)
	for sweep := 1; sweep <= 200; sweep++ {
		if v := c.observe(sweep, 1e-9, movingRitz(sweep)); v.stop {
			t.Fatalf("sweep %d: stopped (%s) on a rotation plateau", sweep, v.reason)
		}
	}
}

// gappedPSD builds QΛQᵀ with a geometric spectrum λ_i = 0.4^i, whose
// decisive eigengap makes KSI reach its residual floor long before a
// 200-sweep budget.
func gappedPSD(n int, seed uint64) *dense.Matrix {
	q, _ := dense.QR(dense.Random(n, n, NewRand(seed)))
	lam := make([]float64, n)
	v := 1.0
	for i := range lam {
		lam[i] = v
		v *= 0.4
	}
	ql := q.Clone()
	ql.ScaleCols(lam)
	return dense.Mul(ql, q.T())
}

// TestKSIAdaptiveEarlyExit is the end-to-end controller contract: with a
// tolerance below the numerical floor the run must exit on a controller
// verdict strictly before the sweep budget, report the saved sweeps and
// telemetry, and still return eigenpairs within 1e-6 of a dense
// reference solve.
func TestKSIAdaptiveEarlyExit(t *testing.T) {
	a := gappedPSD(40, 3)
	wantVals, wantVecs := dense.SymEig(a)
	reg := obs.NewRegistry()
	tr := obs.NewTrace("test")
	run := &obs.Run{Metrics: reg, Trace: tr}
	res := KSIRun(denseOp{a}, KSIConfig{K: 3, Sweeps: 200, Tol: 1e-18, Seed: 7, Obs: run})
	if res.StopReason != StopStagnated && res.StopReason != StopUnreachable {
		t.Fatalf("stop reason %q, want a controller verdict (sweeps=%d)", res.StopReason, res.Sweeps)
	}
	if res.Sweeps >= 200 {
		t.Errorf("used the full %d-sweep budget", res.Sweeps)
	}
	if res.SweepsSaved != 200-res.Sweeps {
		t.Errorf("SweepsSaved=%d, want %d", res.SweepsSaved, 200-res.Sweeps)
	}
	if res.DecayRate <= 0 {
		t.Errorf("DecayRate=%v, want a positive estimate", res.DecayRate)
	}
	for i := 0; i < 3; i++ {
		if math.Abs(res.Values[i]-wantVals[i]) > 1e-6*(1+wantVals[i]) {
			t.Errorf("eigenvalue %d: got %v want %v", i, res.Values[i], wantVals[i])
		}
		if d := math.Abs(dense.Dot(res.Vectors.Col(i), wantVecs.Col(i))); d < 1-1e-6 {
			t.Errorf("eigenvector %d: |cos| = %v", i, d)
		}
	}
	if got := reg.Counter("linalg_ksi_early_exits_total", "").Value(); got != 1 {
		t.Errorf("early-exit counter = %v, want 1", got)
	}
	var ctrlSpans int
	for _, c := range tr.Root().Children {
		if c.Name == "ksi.controller" {
			ctrlSpans++
		}
	}
	if ctrlSpans != 1 {
		t.Errorf("ksi.controller spans = %d, want 1", ctrlSpans)
	}

	// The same run with the controller disabled must spend every sweep.
	fixed := KSIRun(denseOp{a}, KSIConfig{K: 3, Sweeps: 200, Tol: 1e-18, Seed: 7, NoAdaptive: true})
	if fixed.Sweeps != 200 || fixed.StopReason != StopBudget {
		t.Errorf("NoAdaptive run stopped at %d (%s), want the full budget", fixed.Sweeps, fixed.StopReason)
	}
	for i := 0; i < 3; i++ {
		rel := math.Abs(res.Values[i]-fixed.Values[i]) / (1 + math.Abs(fixed.Values[i]))
		if rel > 1e-6 {
			t.Errorf("eigenvalue %d: adaptive %v vs fixed %v (rel %g)", i, res.Values[i], fixed.Values[i], rel)
		}
	}
}

// TestKSIDeadlineExpired: an already-expired deadline stops the sweep
// loop at the first check but still returns a Rayleigh–Ritz-refined
// partial subspace.
func TestKSIDeadlineExpired(t *testing.T) {
	a := psdRandom(20, 5)
	res := KSIRun(denseOp{a}, KSIConfig{K: 3, Sweeps: 50, Seed: 1,
		Deadline: time.Now().Add(-time.Second)})
	if !res.DeadlineHit || res.StopReason != StopDeadline {
		t.Fatalf("DeadlineHit=%v StopReason=%q, want deadline stop", res.DeadlineHit, res.StopReason)
	}
	if res.Sweeps != 1 {
		t.Errorf("ran %d sweeps on an expired deadline, want 1", res.Sweeps)
	}
	if res.Vectors == nil || len(res.Values) != 3 {
		t.Error("partial result missing after deadline stop")
	}
}

// TestTopSingularValueDeadlineExpired: the power iteration must not do
// any work on a blown budget.
func TestTopSingularValueDeadlineExpired(t *testing.T) {
	w := randomSparse(t, 30, 20, 100, 2)
	res := TopSingularValueRun(w, PowerConfig{Seed: 1, Threads: 1,
		Deadline: time.Now().Add(-time.Second)})
	if !res.DeadlineHit {
		t.Fatal("DeadlineHit not set")
	}
	if res.Iterations != 0 || res.Sigma != 0 {
		t.Errorf("did work on an expired deadline: iters=%d sigma=%v", res.Iterations, res.Sigma)
	}
}

// TestRandomizedSVDDeadline covers both deadline regimes: expired on
// entry returns empty-handed, and a generous deadline must not perturb
// the result at all.
func TestRandomizedSVDDeadline(t *testing.T) {
	w := randomSparse(t, 60, 40, 400, 17)
	res := RandomizedSVDRun(w, SVDConfig{K: 4, Seed: 19, Threads: 1,
		Deadline: time.Now().Add(-time.Second)})
	if !res.DeadlineHit {
		t.Fatal("DeadlineHit not set on expired deadline")
	}
	if res.U != nil || res.Iterations != 0 {
		t.Errorf("expired run built a basis: U=%v iters=%d", res.U != nil, res.Iterations)
	}

	slack := RandomizedSVDRun(w, SVDConfig{K: 4, Seed: 19, Threads: 1,
		Deadline: time.Now().Add(time.Hour)})
	plain := RandomizedSVD(w, 4, 0, 19, 1)
	if slack.DeadlineHit {
		t.Error("generous deadline fired")
	}
	for i := range plain.Sigma {
		if slack.Sigma[i] != plain.Sigma[i] {
			t.Errorf("deadline plumbing changed sigma[%d]: %v vs %v", i, slack.Sigma[i], plain.Sigma[i])
		}
	}
}

// TestRandomizedSVDDeadlineMidExpansion: a deadline that passes after
// the first expansion block of a tall W leaves a partial basis over W's
// columns, and the map back to U must still give k orthonormal columns.
func TestRandomizedSVDDeadlineMidExpansion(t *testing.T) {
	w := randomSparse(t, 80, 50, 600, 23)
	k := 5
	full := RandomizedSVD(w, k, 0.01, 29, 1)
	deadline := time.Now().Add(250 * time.Millisecond)
	run := &obs.Run{Progress: func(p obs.Progress) {
		if p.Step == 2 {
			time.Sleep(time.Until(deadline) + time.Millisecond)
		}
	}}
	res := RandomizedSVDRun(w, SVDConfig{K: k, Eps: 0.01, Seed: 29, Threads: 1, Deadline: deadline, Obs: run})
	if !res.DeadlineHit || res.U == nil {
		t.Fatalf("DeadlineHit=%v U=%v, want a partial result", res.DeadlineHit, res.U != nil)
	}
	if res.Iterations >= full.Iterations || res.KrylovDim >= full.KrylovDim {
		t.Errorf("deadline did not cut the expansion: %d blocks, %d columns; full run %d, %d",
			res.Iterations, res.KrylovDim, full.Iterations, full.KrylovDim)
	}
	if res.U.Rows != w.Rows || res.U.Cols != k {
		t.Fatalf("U is %dx%d, want %dx%d", res.U.Rows, res.U.Cols, w.Rows, k)
	}
	utu := dense.TMul(res.U, res.U)
	if d := dense.Sub(utu, dense.Identity(k)).MaxAbs(); d > 1e-12 {
		t.Errorf("‖UᵀU − I‖_max = %g", d)
	}
}

// TestRSVDSeedBlockCounted pins the metrics fix: the seed block counts
// toward linalg_rsvd_blocks_total and linalg_rsvd_block_seconds, so both
// agree with Iterations+1 (and with the rsvd.block span census).
func TestRSVDSeedBlockCounted(t *testing.T) {
	w := randomSparse(t, 60, 40, 400, 11)
	reg := obs.NewRegistry()
	run := &obs.Run{Metrics: reg}
	res := RandomizedSVDRun(w, SVDConfig{K: 5, Eps: 0.1, Seed: 7, Threads: 1, Obs: run})
	want := float64(res.Iterations + 1)
	if got := reg.Counter("linalg_rsvd_blocks_total", "").Value(); got != want {
		t.Errorf("blocks counter = %v, want %v (seed block included)", got, want)
	}
	if got := reg.Histogram("linalg_rsvd_block_seconds", "", nil).Count(); got != uint64(res.Iterations+1) {
		t.Errorf("block timer count = %d, want %d", got, res.Iterations+1)
	}
}
