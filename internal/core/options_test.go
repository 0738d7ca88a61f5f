package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"gebe/internal/bigraph"
	"gebe/internal/budget"
	"gebe/internal/cpu"
	"gebe/internal/dense"
	"gebe/internal/linalg"
	"gebe/internal/obs"
)

// TestValidateBoundaries exercises validate directly (GEBE's withDefaults
// replaces zero Lambda/Epsilon before validation, so the boundary values
// are only reachable here) and pins the messages to the checks: Lambda
// must be positive, so 0 is invalid; Epsilon must lie in the open
// interval (0,1), so both endpoints are invalid.
func TestValidateBoundaries(t *testing.T) {
	g := figure1Graph(t)
	base := Options{K: 2, Tau: 20, Lambda: 1, Epsilon: 0.1}
	cases := []struct {
		name   string
		mutate func(*Options)
		wantOK bool
	}{
		{"valid", func(o *Options) {}, true},
		{"lambda zero", func(o *Options) { o.Lambda = 0 }, false},
		{"lambda negative", func(o *Options) { o.Lambda = -1 }, false},
		{"lambda tiny positive", func(o *Options) { o.Lambda = 1e-12 }, true},
		{"epsilon zero", func(o *Options) { o.Epsilon = 0 }, false},
		{"epsilon one", func(o *Options) { o.Epsilon = 1 }, false},
		{"epsilon negative", func(o *Options) { o.Epsilon = -0.1 }, false},
		{"epsilon near zero", func(o *Options) { o.Epsilon = 1e-9 }, true},
		{"epsilon near one", func(o *Options) { o.Epsilon = 0.999999 }, true},
		{"iters negative", func(o *Options) { o.Iters = -1 }, false},
		{"tol negative", func(o *Options) { o.Tol = -1e-7 }, false},
		{"threads negative", func(o *Options) { o.Threads = -2 }, false},
		{"stop window negative", func(o *Options) { o.StopWindow = -1 }, false},
		{"stop window zero default", func(o *Options) { o.StopWindow = 0 }, true},
		{"stop flatness negative", func(o *Options) { o.StopFlatness = -0.5 }, false},
		{"stop flatness one", func(o *Options) { o.StopFlatness = 1 }, false},
		{"stop flatness valid", func(o *Options) { o.StopFlatness = 0.95 }, true},
		{"dense tuning valid", func(o *Options) { o.Dense = dense.Tuning{Kernels: cpu.KernelGo, MinParallelFlops: 100} }, true},
		{"dense threads negative", func(o *Options) { o.Dense.Threads = -3 }, false},
		{"dense flop gate negative", func(o *Options) { o.Dense.MinParallelFlops = -1 }, false},
		{"dense kernels unknown", func(o *Options) { o.Dense.Kernels = cpu.KernelMode(7) }, false},
	}
	for _, tc := range cases {
		opt := base
		tc.mutate(&opt)
		err := opt.validate(g, false)
		if tc.wantOK && err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		}
		if !tc.wantOK && err == nil {
			t.Errorf("%s: validate accepted %+v", tc.name, opt)
		}
	}
}

// TestGEBEDeadlineExceeded checks the cooperative-timeout contract: an
// already-expired deadline makes GEBE abort with budget.ErrExceeded, a
// nil embedding, a fully closed trace — and leaves the process able to
// run the same problem to completion immediately afterwards.
func TestGEBEDeadlineExceeded(t *testing.T) {
	g := randomBipartite(t, 60, 40, 400, true, 5)
	tr := obs.NewTrace("deadline-test")
	opt := Options{K: 4, Seed: 1, Deadline: time.Now().Add(-time.Second), Trace: tr}
	emb, err := GEBE(g, opt)
	if err == nil {
		t.Fatal("GEBE ignored an expired deadline")
	}
	if !errors.Is(err, budget.ErrExceeded) {
		t.Errorf("error does not wrap budget.ErrExceeded: %v", err)
	}
	if emb != nil {
		t.Errorf("timed-out run returned a partial embedding: %+v", emb)
	}
	root := tr.Root()
	var assertClosed func(s *obs.Span)
	assertClosed = func(s *obs.Span) {
		if s.Duration <= 0 {
			t.Errorf("span %q left open after timeout", s.Name)
		}
		for _, c := range s.Children {
			assertClosed(c)
		}
	}
	assertClosed(root)

	opt.Deadline = time.Time{}
	emb, err = GEBE(g, opt)
	if err != nil || emb == nil {
		t.Fatalf("run after timeout failed: %v", err)
	}
}

// TestGEBEDeadlineMidSweepTall: a deadline that passes between KSI sweeps
// on a tall graph, whose sweeps run on H_V, aborts GEBE with
// budget.ErrExceeded and no embedding (the map back to U is skipped),
// with every span closed and the ksi span on the |V| side.
func TestGEBEDeadlineMidSweepTall(t *testing.T) {
	g := randomBipartite(t, 60, 40, 400, true, 5)
	tr := obs.NewTrace("deadline-test")
	deadline := time.Now().Add(250 * time.Millisecond)
	sweeps := 0
	opt := Options{K: 4, Seed: 1, Iters: 50, NoAdaptiveStop: true, Deadline: deadline, Trace: tr,
		Progress: func(p obs.Progress) {
			if p.Phase == "ksi.sweep" {
				sweeps = p.Step
				if p.Step == 2 {
					time.Sleep(time.Until(deadline) + time.Millisecond)
				}
			}
		}}
	emb, err := GEBE(g, opt)
	if !errors.Is(err, budget.ErrExceeded) || emb != nil {
		t.Fatalf("GEBE = %v, %v; want no embedding and budget.ErrExceeded", emb, err)
	}
	if sweeps != 2 {
		t.Errorf("ran %d sweeps, want the deadline to stop it after 2", sweeps)
	}
	var assertClosed func(s *obs.Span)
	assertClosed = func(s *obs.Span) {
		if s.Duration <= 0 {
			t.Errorf("span %q left open after timeout", s.Name)
		}
		for _, c := range s.Children {
			assertClosed(c)
		}
	}
	assertClosed(tr.Root())
	if ksi := findSpan(tr.Root(), "ksi"); ksi == nil || ksi.Attrs["basis_rows"] != g.NV {
		t.Errorf("ksi span %+v, want basis_rows %d", ksi, g.NV)
	}
}

// TestAblationDeadlineExceeded covers the same contract for every
// solver whose deadline plumbing is separate from GEBE's: GEBE^p (whose
// randomized SVD must not run at all on a blown budget) and the two
// ablation baselines.
func TestAblationDeadlineExceeded(t *testing.T) {
	g := randomBipartite(t, 60, 40, 400, true, 5)
	expired := time.Now().Add(-time.Second)
	solvers := []struct {
		name string
		run  func(*bigraph.Graph, Options) (*Embedding, error)
		opt  Options
	}{
		{"GEBEP", GEBEP, Options{K: 4, Seed: 1, Deadline: expired}},
		// NoScale skips the σ₁ power iteration, so the deadline must be
		// caught inside RandomizedSVDRun itself.
		{"GEBEP-noscale", GEBEP, Options{K: 4, Seed: 1, Deadline: expired, NoScale: true}},
		{"MHPBNE", MHPBNE, Options{K: 4, Seed: 1, Deadline: expired}},
		{"MHSBNE", MHSBNE, Options{K: 4, Seed: 1, Deadline: expired}},
	}
	for _, tc := range solvers {
		emb, err := tc.run(g, tc.opt)
		if err == nil {
			t.Errorf("%s: ignored an expired deadline", tc.name)
			continue
		}
		if !errors.Is(err, budget.ErrExceeded) {
			t.Errorf("%s: want budget.ErrExceeded, got %v", tc.name, err)
		}
		if emb != nil {
			t.Errorf("%s: timed-out run returned a partial embedding", tc.name)
		}
	}
}

// TestAdaptiveStopMatchesFixedRun is the quality contract of the
// adaptive KSI stopping controller: with a tolerance below the
// subspace's numerical floor and a 200-sweep budget, the controller
// must exit strictly before the fixed run exhausts its budget, and
// every eigenvalue it returns must agree with the full fixed-budget run
// to 1e-6 relative error.
func TestAdaptiveStopMatchesFixedRun(t *testing.T) {
	g := twoBlockGraph(t)
	// Tol below the subspace's numerical floor, so plain convergence can
	// never fire and the controller has to recognize the floor itself.
	base := Options{K: 2, Seed: 9, Iters: 200, Tol: 1e-18}
	adaptive, err := GEBE(g, base)
	if err != nil {
		t.Fatal(err)
	}
	fixedOpt := base
	fixedOpt.NoAdaptiveStop = true
	fixed, err := GEBE(g, fixedOpt)
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Sweeps != 200 {
		t.Fatalf("fixed run stopped at %d sweeps (%s); budget semantics changed", fixed.Sweeps, fixed.StopReason)
	}
	if adaptive.Sweeps >= fixed.Sweeps {
		t.Errorf("adaptive run used %d sweeps, not fewer than the fixed %d", adaptive.Sweeps, fixed.Sweeps)
	}
	if adaptive.StopReason != string(linalg.StopStagnated) && adaptive.StopReason != string(linalg.StopUnreachable) {
		t.Errorf("adaptive run stopped for %q, want a controller reason", adaptive.StopReason)
	}
	if adaptive.SweepsSaved != 200-adaptive.Sweeps {
		t.Errorf("SweepsSaved=%d, want %d", adaptive.SweepsSaved, 200-adaptive.Sweeps)
	}
	for i := range adaptive.Values {
		rel := math.Abs(adaptive.Values[i]-fixed.Values[i]) / (1 + math.Abs(fixed.Values[i]))
		if rel > 1e-6 {
			t.Errorf("eigenvalue %d: adaptive %v vs fixed %v (rel %g)", i, adaptive.Values[i], fixed.Values[i], rel)
		}
	}
}

// twoBlockGraph plants two dense bipartite blocks with distinct weight
// scales plus sparse noise — a stand-in for the fig2 benchmark graphs
// with a decisive eigengap, so KSI reaches its residual floor well
// inside a 200-sweep budget.
func twoBlockGraph(t *testing.T) *bigraph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	var edges []bigraph.Edge
	for u := 0; u < 30; u++ {
		for v := 0; v < 20; v++ {
			edges = append(edges, bigraph.Edge{U: u, V: v, W: 4 + rng.Float64()})
		}
	}
	for u := 30; u < 60; u++ {
		for v := 20; v < 40; v++ {
			edges = append(edges, bigraph.Edge{U: u, V: v, W: 2 + rng.Float64()})
		}
	}
	for i := 0; i < 80; i++ {
		edges = append(edges, bigraph.Edge{U: rng.Intn(60), V: rng.Intn(40), W: 0.05 * rng.Float64()})
	}
	g, err := bigraph.New(60, 40, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
