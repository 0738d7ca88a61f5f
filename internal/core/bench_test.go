package core

import (
	"fmt"
	"testing"

	"gebe/internal/bigraph"
	"gebe/internal/linalg"
	"gebe/internal/pmf"
)

// BenchmarkGEBE times Algorithm 1 at train-gebe's setting — Poisson λ=1,
// τ=20, a fixed 30 KSI sweeps, k=32, one thread — on a skewed graph
// shaped like the mag stand-in (7987×2499, ≈62.8k edges) and on its
// transpose. Both run their sweeps, QRs and subspace products on the
// 2499-row side: H_V for the tall graph, H for the wide one. The wide
// graph's hops still gather from and scatter into 7987-row blocks, so it
// is the slower of the two (≈0.70 against ≈0.55 s on a 2-vCPU guest).
func BenchmarkGEBE(b *testing.B) {
	r := linalg.NewRand(97)
	edges := make([]bigraph.Edge, 62842)
	for i := range edges {
		u := r.Float64()
		edges[i] = bigraph.Edge{U: min(int(u*u*u*7987), 7986), V: r.IntN(2499), W: 0.1 + r.Float64()}
	}
	tall, err := bigraph.New(7987, 2499, edges)
	if err != nil {
		b.Fatal(err)
	}
	opt := Options{K: 32, PMF: pmf.NewPoisson(1), Tau: 20, Iters: 30, NoAdaptiveStop: true, Threads: 1, Seed: 1}
	for _, g := range []*bigraph.Graph{tall, transposeGraph(b, tall)} {
		b.Run(fmt.Sprintf("%dx%d", g.NU, g.NV), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				emb, err := GEBE(g, opt)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = emb
			}
		})
	}
}

var benchSink *Embedding
