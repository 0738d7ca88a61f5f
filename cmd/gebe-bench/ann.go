package main

import (
	"fmt"
	"io"
	"time"

	"gebe/internal/ann"
	"gebe/internal/core"
	"gebe/internal/eval"
	"gebe/internal/gen"
	"gebe/internal/obs"
)

// The -ann microbench measures cluster-pruned retrieval against the
// exact GEMM scorer on a trained embedding: a latent-factor stand-in
// graph (item-heavy, like the recommendation datasets) is embedded with
// GEBE, an IVF index is built over V, and a probe sweep reports
// recall@10, per-query latency, and candidate counts for the float and
// int8 row paths. The full-probe float row is the correctness gate —
// it must reproduce the exact scorer bitwise, and the command exits
// non-zero when it does not.

// annCell is one (nprobe, rows) measurement in BENCH_ANN.json.
type annCell struct {
	Nprobe             int     `json:"nprobe"`
	Rows               string  `json:"rows"` // "f64" | "int8"
	RecallAt10         float64 `json:"recall_at_10"`
	MsPerQuery         float64 `json:"ms_per_query"`
	CandidatesPerQuery float64 `json:"candidates_per_query"`
	CandidateFraction  float64 `json:"candidate_fraction"`
	// LatencyRatio is approx/exact per-query wall-clock; < 1 is a win.
	LatencyRatio float64 `json:"latency_ratio"`
}

// annReport is the Rows payload of the ANN entry in the -json report.
type annReport struct {
	GOMAXPROCS      int                `json:"gomaxprocs"`
	Users           int                `json:"users"`
	Items           int                `json:"items"`
	K               int                `json:"k"`
	Clusters        int                `json:"clusters"`
	DefaultNprobe   int                `json:"default_nprobe"`
	BuildSeconds    float64            `json:"build_seconds"`
	Iters           int                `json:"iters"`          // Lloyd iterations the build ran
	AssignSkipped   float64            `json:"assign_skipped"` // share of point rows the Lloyd bounds settled
	Queries         int                `json:"queries"`
	ExactMsPerQuery float64            `json:"exact_ms_per_query"`
	Cells           []annCell          `json:"cells"`
	Summary         map[string]float64 `json:"summary"`
}

// runANNBench trains the stand-in embedding, builds the index, runs the
// probe sweep, and returns the BENCH_ANN.json payload. quick shrinks
// the graph and query set to CI-smoke size. The second return is the
// full-probe bitwise gate. The training solve's spans go to tr (nil
// when untraced).
func runANNBench(out io.Writer, gomaxprocs int, quick bool, tr *obs.Trace) (annReport, bool) {
	gcfg := gen.LFConfig{
		NU: 1500, NV: 12000, NE: 150000,
		Clusters: 24, Skew: 0.8, CrossRate: 0.15, MinDegree: 2, Seed: 7,
	}
	k, queries := 32, 200
	if quick {
		gcfg = gen.LFConfig{
			NU: 200, NV: 1500, NE: 15000,
			Clusters: 8, Skew: 0.8, CrossRate: 0.15, MinDegree: 2, Seed: 7,
		}
		k, queries = 16, 50
	}
	g, err := gen.LatentFactor(gcfg)
	if err != nil {
		panic(err) // static config, cannot fail
	}
	fmt.Fprintf(out, "graph: %d users x %d items, %d edges; embedding k=%d\n",
		g.NU, g.NV, g.NumEdges(), k)
	t0 := time.Now()
	emb, err := core.GEBE(g, core.Options{K: k, Seed: 7, Threads: gomaxprocs, Trace: tr})
	if err != nil {
		fmt.Fprintf(out, "gebe-bench: training stand-in embedding: %v\n", err)
		panic(err)
	}
	fmt.Fprintf(out, "trained in %.1fs (%d sweeps, %s)\n",
		time.Since(t0).Seconds(), emb.Sweeps, emb.StopReason)

	ix, err := ann.Build(emb.V, ann.Config{Int8: true, Seed: 7, Threads: gomaxprocs})
	if err != nil {
		panic(err)
	}
	rep := annReport{
		GOMAXPROCS: gomaxprocs,
		Users:      g.NU, Items: g.NV, K: k,
		Clusters: ix.Clusters(), DefaultNprobe: ix.DefaultNprobe(),
		BuildSeconds: ix.BuildSeconds(), Iters: ix.Iters(), AssignSkipped: ix.AssignSkipped(), Queries: queries,
		Summary: map[string]float64{},
	}
	fmt.Fprintf(out, "index: %d clusters over %d items, default nprobe %d, built in %.2fs (%d Lloyd iterations, %.0f%% of assignment rows skipped)\n",
		ix.Clusters(), ix.Items(), ix.DefaultNprobe(), ix.BuildSeconds(), ix.Iters(), 100*ix.AssignSkipped())

	// Exact baseline: the serving path's per-user GEMM row + top-N.
	const topN = 10
	sc := eval.NewScorer(emb.U, emb.V)
	exactIDs := make([][]int, queries)
	exactScores := make([][]float64, queries)
	tExact := time.Now()
	for u := 0; u < queries; u++ {
		exactIDs[u], exactScores[u] = sc.TopN(u, topN, nil)
	}
	rep.ExactMsPerQuery = time.Since(tExact).Seconds() * 1e3 / float64(queries)
	fmt.Fprintf(out, "exact baseline: %.3f ms/query over %d queries\n\n", rep.ExactMsPerQuery, queries)

	// Full-probe bitwise gate: identical ids AND identical score bits.
	bitwise := true
	for u := 0; u < queries && bitwise; u++ {
		ids, scores, _ := ix.Search(emb.U.Row(u), topN, ann.Options{Nprobe: ix.Clusters()})
		for i := range ids {
			if ids[i] != exactIDs[u][i] || scores[i] != exactScores[u][i] {
				bitwise = false
				break
			}
		}
	}

	nprobes := probeSweep(ix.Clusters(), ix.DefaultNprobe())
	fmt.Fprintf(out, "%7s %5s  %10s %12s %12s %9s\n",
		"nprobe", "rows", "recall@10", "ms/query", "cands/query", "latratio")
	for _, np := range nprobes {
		for _, int8Rows := range []bool{false, true} {
			cell := annCell{Nprobe: np, Rows: "f64"}
			if int8Rows {
				cell.Rows = "int8"
			}
			var hits, cands int
			tq := time.Now()
			for u := 0; u < queries; u++ {
				ids, _, st := ix.Search(emb.U.Row(u), topN, ann.Options{Nprobe: np, Int8: int8Rows})
				cands += st.Scored
				in := make(map[int]bool, topN)
				for _, id := range exactIDs[u] {
					in[id] = true
				}
				for _, id := range ids {
					if in[id] {
						hits++
					}
				}
			}
			cell.MsPerQuery = time.Since(tq).Seconds() * 1e3 / float64(queries)
			cell.RecallAt10 = float64(hits) / float64(queries*topN)
			cell.CandidatesPerQuery = float64(cands) / float64(queries)
			cell.CandidateFraction = cell.CandidatesPerQuery / float64(ix.Items())
			cell.LatencyRatio = cell.MsPerQuery / rep.ExactMsPerQuery
			rep.Cells = append(rep.Cells, cell)
			fmt.Fprintf(out, "%7d %5s  %10.3f %10.4fms %12.1f %8.2fx\n",
				np, cell.Rows, cell.RecallAt10, cell.MsPerQuery,
				cell.CandidatesPerQuery, cell.LatencyRatio)
		}
	}

	// Summary scalars the gebe-regress ann gate and README point at, all
	// taken at the index's default nprobe on the float path.
	for _, c := range rep.Cells {
		if c.Nprobe == ix.DefaultNprobe() && c.Rows == "f64" {
			rep.Summary["recall_at_default_nprobe"] = c.RecallAt10
			rep.Summary["latency_ratio_at_default"] = c.LatencyRatio
			rep.Summary["candidate_fraction_at_default"] = c.CandidateFraction
			if c.CandidatesPerQuery > 0 {
				rep.Summary["candidate_reduction_at_default"] = float64(ix.Items()) / c.CandidatesPerQuery
			}
		}
	}
	rep.Summary["bitwise_fullprobe_match"] = 0
	if bitwise {
		rep.Summary["bitwise_fullprobe_match"] = 1
	}
	rep.Summary["build_seconds"] = ix.BuildSeconds()
	fmt.Fprintf(out, "\nat default nprobe %d: recall@10 %.3f, %.1fx fewer candidates, %.2fx exact latency\n",
		ix.DefaultNprobe(),
		rep.Summary["recall_at_default_nprobe"],
		rep.Summary["candidate_reduction_at_default"],
		rep.Summary["latency_ratio_at_default"])
	fmt.Fprintf(out, "full probe bitwise-identical to exact scorer: %v\n", bitwise)
	return rep, bitwise
}

// probeSweep picks the nprobe grid: powers of two up to the cluster
// count, the index default, and the full probe, deduplicated ascending.
func probeSweep(clusters, def int) []int {
	set := map[int]bool{def: true, clusters: true}
	for np := 1; np < clusters; np *= 2 {
		set[np] = true
	}
	var out []int
	for np := 1; np <= clusters; np++ {
		if set[np] {
			out = append(out, np)
		}
	}
	return out
}
