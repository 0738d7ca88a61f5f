// Command gebe trains bipartite network embeddings for an edge-list file
// and writes them as TSV.
//
// Usage:
//
//	gebe -in ratings.tsv -out emb.tsv -k 128 -method gebep
//
// Methods: gebep (default), gebe-poisson, gebe-geometric, gebe-uniform,
// mhp-bne, mhs-bne, plus the re-implemented competitors (deepwalk,
// node2vec, line, nrp, bine, bigi, bpr, ncf, lightgcn, cse).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"gebe"
	"gebe/internal/baselines"
	"gebe/internal/core"
	"gebe/internal/dense"
	"gebe/internal/obs"
	"gebe/internal/sparse"
)

func main() {
	var (
		in      = flag.String("in", "", "input edge list (u v [w] per line)")
		out     = flag.String("out", "", "output embedding file (TSV)")
		method  = flag.String("method", "gebep", "embedding method")
		k       = flag.Int("k", 128, "embedding dimensionality")
		lambda  = flag.Float64("lambda", 1, "Poisson rate (gebep / poisson PMFs)")
		alpha   = flag.Float64("alpha", 0.5, "Geometric decay (gebe-geometric)")
		tau     = flag.Int("tau", 20, "max path half-length (GEBE)")
		iters   = flag.Int("t", 200, "max KSI sweeps (GEBE)")
		epsilon = flag.Float64("eps", 0.1, "SVD error threshold (gebep); the Krylov depth q = ceil(ln(|V|+2)/(4*sqrt(eps))) is capped at 5, so every eps below (ln(|V|+2)/16)^2 (about 0.24 at |V|=2500) gives the same solve")
		seed    = flag.Uint64("seed", 1, "random seed")
		threads = flag.Int("threads", 1, "solver threads")
		noScale = flag.Bool("noscale", false, "disable spectral scaling of W")
		ddl     = flag.Duration("deadline", 0, "cooperative wall-clock budget for the solver (0 = unlimited)")
		warm    = flag.String("warm", "", "previous embedding file to warm-start the solve from (GEBE/GEBEP/MHP/MHS)")
	)
	cli := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if *in == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "gebe: -in and -out are required")
		flag.Usage()
		os.Exit(2)
	}
	stop, err := cli.Start("gebe")
	if err != nil {
		fail(err)
	}
	defer stop()
	if cli.Active() {
		sparse.EnableMetrics(obs.DefaultRegistry())
		dense.EnableMetrics(obs.DefaultRegistry())
	}
	g, err := gebe.LoadGraph(*in)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "loaded %v\n", g.Stats())

	opt := gebe.Options{
		K: *k, Lambda: *lambda, Tau: *tau, Iters: *iters, Epsilon: *epsilon,
		Seed: *seed, Threads: *threads, NoScale: *noScale, Trace: cli.Trace(),
	}
	if *ddl > 0 {
		opt.Deadline = time.Now().Add(*ddl)
	}
	if *warm != "" {
		prev, err := gebe.LoadEmbedding(*warm)
		if err != nil {
			fail(err)
		}
		opt.WarmStart = prev
		fmt.Fprintf(os.Stderr, "warm-starting from %s (%s, %dx%d / %dx%d)\n",
			*warm, prev.Method, prev.U.Rows, prev.U.Cols, prev.V.Rows, prev.V.Cols)
	}
	start := time.Now()
	var emb *gebe.Embedding
	switch *method {
	case "gebep":
		emb, err = gebe.GEBEP(g, opt)
	case "gebe-poisson":
		opt.PMF = gebe.Poisson(*lambda)
		emb, err = gebe.GEBE(g, opt)
	case "gebe-geometric":
		opt.PMF = gebe.Geometric(*alpha)
		emb, err = gebe.GEBE(g, opt)
	case "gebe-uniform":
		opt.PMF = gebe.Uniform(*tau)
		emb, err = gebe.GEBE(g, opt)
	case "mhp-bne":
		emb, err = gebe.MHPBNE(g, opt)
	case "mhs-bne":
		emb, err = gebe.MHSBNE(g, opt)
	default:
		emb, err = trainBaseline(*method, g, *k, *seed, *threads, opt.Deadline)
	}
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "embedded with %s in %.2fs\n", emb.Method, time.Since(start).Seconds())
	if err := gebe.SaveEmbedding(*out, emb); err != nil {
		fail(err)
	}
}

func trainBaseline(name string, g *gebe.Graph, k int, seed uint64, threads int, deadline time.Time) (*gebe.Embedding, error) {
	displayNames := map[string]string{
		"deepwalk": "DeepWalk", "node2vec": "node2vec", "line": "LINE",
		"nrp": "NRP", "bine": "BiNE", "bigi": "BiGI", "bpr": "BPR",
		"ncf": "NCF", "lightgcn": "LightGCN", "cse": "CSE",
	}
	display, ok := displayNames[name]
	if !ok {
		return nil, fmt.Errorf("unknown method %q", name)
	}
	m, err := baselines.ByName(display)
	if err != nil {
		return nil, err
	}
	var u, v *dense.Matrix
	u, v, err = m.Train(g, k, seed, threads, deadline)
	if err != nil {
		return nil, err
	}
	return &core.Embedding{U: u, V: v, Method: name}, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "gebe:", err)
	os.Exit(1)
}
