package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"gebe"
	"gebe/internal/bigraph"
	"gebe/internal/dense"
	"gebe/internal/eval"
	"gebe/internal/obs"
	"gebe/internal/sparse"
)

// solver is one training workload's algorithm and its fixed settings.
type solver struct {
	name  string
	solve func(*gebe.Graph, gebe.Options) (*gebe.Embedding, error)
	opts  gebe.Options
}

// solverGEBE is Algorithm 1 in the Fig. 3 setting: Poisson λ=1, τ=20,
// a fixed 30 sweeps with adaptive stopping off, one thread.
var solverGEBE = solver{name: "gebe", solve: gebe.GEBE, opts: gebe.Options{
	K: 32, PMF: gebe.Poisson(1), Tau: 20, Iters: 30, NoAdaptiveStop: true, Threads: 1, Seed: 1,
}}

// solverGEBEP is Algorithm 2 with λ=1, ε=0.1, one thread.
var solverGEBEP = solver{name: "gebep", solve: gebe.GEBEP, opts: gebe.Options{
	K: 32, Lambda: 1, Epsilon: 0.1, Threads: 1, Seed: 1,
}}

const (
	// graphLoads is how many times a run loads the edge list; setup_s is
	// the median.
	graphLoads = 15
	// minSolves is the fewest solves a measured phase makes, however
	// short --seconds is.
	minSolves = 3
	// topN is the list length of the NDCG protocol and of served lists.
	topN = 10
)

func runTrain(b *bench, s solver) error {
	in, err := makeTrainInput(b.workdir, b.seed)
	if err != nil {
		return err
	}
	b.note("input %s: sha256 %s, %d held-out edges", filepath.Base(in.path), in.hash, len(in.test))
	g, err := gebe.LoadGraph(in.path)
	if err != nil {
		return err
	}
	checkLabels(b, g, in.uLabels, in.vLabels)
	if !b.trace {
		m, err := trainPhase(b, s, in, b.seconds, nil)
		if err != nil {
			return err
		}
		for k, v := range m {
			b.set(k, v)
		}
		return nil
	}

	b.zeroLayers()
	untraced, err := trainPhase(b, s, in, b.seconds/2, nil)
	if err != nil {
		return err
	}
	var layers []solveLayers
	traced, err := trainPhase(b, s, in, b.seconds/2, &layers)
	if err != nil {
		return err
	}
	b.setOverhead(untraced, traced)
	b.set("bigraph.load_s", traced["setup_s"])
	setSolveLayers(b, layers)
	return saveLoadRoundTrip(b, layers[len(layers)-1].emb, g, s.opts.K)
}

// trainPhase measures set-up and repeated solves for about seconds and
// returns the end-to-end metrics. When layers is non-nil every solve
// runs traced and its per-layer record is appended there.
func trainPhase(b *bench, s solver, in *trainInput, seconds float64, layers *[]solveLayers) (map[string]float64, error) {
	var loads []float64
	var g *gebe.Graph
	for i := 0; i < graphLoads; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		g, err = gebe.LoadGraph(in.path)
		if err != nil {
			return nil, err
		}
		loads = append(loads, time.Since(t0).Seconds())
	}

	min := minSolves
	if layers != nil {
		min = 2 // enough to check that the traced counts repeat
	}
	var times []float64
	var ndcg float64
	var first *gebe.Embedding
	ok, attempted := 0, 0
	heap := startHeapSampler()
	start := time.Now()
	for attempted < min || time.Since(start).Seconds() < seconds {
		attempted++
		opt := s.opts
		var rec solveLayers
		if layers != nil {
			rec.reg, rec.trace = obs.NewRegistry(), obs.NewTrace("bench")
			opt.Metrics, opt.Trace = rec.reg, rec.trace
			sparse.EnableMetrics(rec.reg)
			dense.EnableMetrics(rec.reg)
		}
		runtime.GC()
		gc0 := readGC()
		t0 := time.Now()
		emb, err := s.solve(g, opt)
		wall := time.Since(t0).Seconds()
		rec.gc = gc0
		rec.gcEnd = readGC()
		sparse.EnableMetrics(nil)
		dense.EnableMetrics(nil)
		if err != nil {
			b.gate("%s solve %d: %v", s.name, attempted, err)
			continue
		}
		if !checkEmbedding(b, emb, g, s.opts.K) {
			continue
		}
		// A solve bitwise equal to the run's first has its NDCG; the
		// evaluation runs on the first solve, on any that differs, and on
		// every traced solve (whose eval layer it measures).
		var evalReg *obs.Registry
		var topnS float64
		if first == nil || layers != nil || !sameEmbedding(emb, first) {
			if layers != nil {
				evalReg = obs.NewRegistry()
				eval.EnableMetrics(evalReg)
			}
			t1 := time.Now()
			r := eval.TopN(g, in.test, emb.U, emb.V, topN, 0)
			topnS = time.Since(t1).Seconds()
			eval.EnableMetrics(nil)
			if first == nil {
				first, ndcg = emb, r.NDCG
			} else if math.Float64bits(r.NDCG) != math.Float64bits(ndcg) {
				b.gate("%s solve %d: ndcg@10 %v differs from the run's first solve %v", s.name, attempted, r.NDCG, ndcg)
				continue
			}
		}
		ok++
		times = append(times, wall)
		if layers != nil {
			rec.emb, rec.wall, rec.topnS, rec.eval = emb, wall, topnS, snap(evalReg)
			*layers = append(*layers, rec)
		}
	}
	peak := heap.stopMB()
	b.attempted += attempted
	b.failed += attempted - ok
	if ok == 0 {
		return nil, fmt.Errorf("%s: no solve succeeded", s.name)
	}
	b.note("%s: %d solves, median %.3fs, ndcg@10 %.6f, setup median of %d loads", s.name, ok, median(times), ndcg, len(loads))
	return map[string]float64{
		"setup_s":          median(loads),
		"p50_ms":           1000 * median(times),
		"tail_ms":          1000 * quantile(times, 0.75),
		"throughput_per_s": float64(ok) / sum(times),
		"peak_heap_mb":     peak,
		"quality":          ndcg,
		"ok_ratio":         float64(ok) / float64(attempted),
	}, nil
}

// sameEmbedding reports whether two embeddings hold bitwise equal rows.
func sameEmbedding(a, b *gebe.Embedding) bool {
	for _, p := range [][2]*dense.Matrix{{a.U, b.U}, {a.V, b.V}} {
		x, y := p[0], p[1]
		if x.Rows != y.Rows || x.Cols != y.Cols {
			return false
		}
		for i := range x.Data {
			if math.Float64bits(x.Data[i]) != math.Float64bits(y.Data[i]) {
				return false
			}
		}
	}
	return true
}

// checkEmbedding gates that a trained embedding is k-wide, covers both
// sides of g, and holds only finite values.
func checkEmbedding(b *bench, e *gebe.Embedding, g *gebe.Graph, k int) bool {
	if e == nil || e.U == nil || e.V == nil {
		b.gate("solver returned no embedding")
		return false
	}
	if e.U.Cols != k || e.V.Cols != k || e.U.Rows != g.NU || e.V.Rows != g.NV {
		b.gate("embedding is %dx%d / %dx%d, want %dx%d / %dx%d",
			e.U.Rows, e.U.Cols, e.V.Rows, e.V.Cols, g.NU, k, g.NV, k)
		return false
	}
	for _, m := range []*dense.Matrix{e.U, e.V} {
		for _, x := range m.Data {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				b.gate("embedding holds a non-finite value %v", x)
				return false
			}
		}
	}
	return true
}

// solveLayers is what one traced solve left behind.
type solveLayers struct {
	reg       *obs.Registry
	trace     *obs.Trace
	gc, gcEnd gcStats
	emb       *gebe.Embedding
	wall      float64
	topnS     float64
	eval      snapshot
}

// accountedPhases are the solver phases reported by name; the rest of a
// solve's wall time is core.unaccounted_s.
var accountedPhases = []string{
	"sigma1", "ksi.sweep", "ksi.rayleigh_ritz",
	"rsvd.block", "rsvd.global_qr", "rsvd.project", "rsvd.eig", "embed",
}

// setSolveLayers reports the median over the traced solves of every
// per-solve layer metric, and gates that the work counts repeat exactly.
func setSolveLayers(b *bench, recs []solveLayers) {
	per := map[string][]float64{}
	for _, r := range recs {
		root := r.trace.Root()
		t := totalsOf(root)
		var solveSpan *obs.Span
		for _, c := range root.Children {
			if c.Name == "gebe" || c.Name == "gebep" {
				solveSpan = c
			}
		}
		accounted := 0.0
		for _, p := range accountedPhases {
			accounted += t.secs[p]
		}
		add := func(name string, v float64) { per[name] = append(per[name], v) }
		if solveSpan != nil {
			add("core.solve_s", solveSpan.Duration.Seconds())
		}
		add("core.embed_s", t.secs["embed"])
		add("core.unaccounted_s", r.wall-accounted)
		add("linalg.sigma1_s", t.secs["sigma1"])
		add("linalg.ksi_sweep_s", t.secs["ksi.sweep"])
		add("linalg.ksi_sweeps", float64(t.count["ksi.sweep"]))
		add("linalg.rayleigh_ritz_s", t.secs["ksi.rayleigh_ritz"])
		add("linalg.rsvd_block_s", t.secs["rsvd.block"])
		add("linalg.rsvd_global_qr_s", t.secs["rsvd.global_qr"])
		add("linalg.rsvd_project_s", t.secs["rsvd.project"])
		add("linalg.rsvd_eig_s", t.secs["rsvd.eig"])
		add("linalg.krylov_dim", intAttr(findSpan(root, "rsvd"), "krylov_dim"))

		sub := &bench{values: map[string]float64{}}
		setEngineLayers(sub, snap(r.reg), 1)
		r.gc.setPer(sub, r.gcEnd, 1)
		for k, v := range sub.values {
			add(k, v)
		}
		add("eval.score_tile_s", r.eval.histSum("eval_score_tile_seconds"))
		add("eval.scored_users", r.eval.val("eval_scored_users_total"))
		add("eval.topn_s", r.topnS)
	}
	for name, vs := range per {
		b.set(name, median(vs))
	}
	for _, name := range []string{"sparse.spmm_fma", "dense.fma", "linalg.ksi_sweeps", "linalg.krylov_dim"} {
		for i, v := range per[name] {
			if v != per[name][0] {
				b.gate("traced count %s differs between solves: %v then %v (solve %d)", name, per[name][0], v, i+1)
			}
		}
	}
	b.note("traced %d solves", len(recs))
}

// saveLoadRoundTrip times gebe.SaveEmbedding and gebe.LoadEmbedding on
// a trained embedding and gates that the file reads back to its shape.
func saveLoadRoundTrip(b *bench, emb *gebe.Embedding, g *bigraph.Graph, k int) error {
	path := filepath.Join(b.workdir, "trained.tsv")
	var saves, loads []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := gebe.SaveEmbedding(path, emb); err != nil {
			return err
		}
		saves = append(saves, time.Since(t0).Seconds())
		t0 = time.Now()
		back, err := gebe.LoadEmbedding(path)
		if err != nil {
			return err
		}
		loads = append(loads, time.Since(t0).Seconds())
		checkEmbedding(b, back, g, k)
	}
	b.set("gebe.save_embedding_s", median(saves))
	b.set("gebe.load_embedding_s", median(loads))
	return nil
}
