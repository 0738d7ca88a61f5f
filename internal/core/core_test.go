package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"gebe/internal/bigraph"
	"gebe/internal/dense"
	"gebe/internal/obs"
	"gebe/internal/pmf"
)

// figure1Graph builds the paper's running example (Figure 1): each edge
// has weight 0.5; u1,u2 share {v1,v2,v3}, u3 has {v3,v4,v5}, u4 has
// {v2,v3,v4,v5}. Recovered by matching Table 2 exactly.
func figure1Graph(t testing.TB) *bigraph.Graph {
	t.Helper()
	var edges []bigraph.Edge
	add := func(u int, vs ...int) {
		for _, v := range vs {
			edges = append(edges, bigraph.Edge{U: u, V: v, W: 0.5})
		}
	}
	add(0, 0, 1, 2)
	add(1, 0, 1, 2)
	add(2, 2, 3, 4)
	add(3, 1, 2, 3, 4)
	g, err := bigraph.New(4, 5, edges)
	if err != nil {
		t.Fatalf("figure1Graph: %v", err)
	}
	return g
}

func randomBipartite(t testing.TB, nu, nv, ne int, weighted bool, seed uint64) *bigraph.Graph {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed+7))
	seen := map[int64]bool{}
	var edges []bigraph.Edge
	for len(edges) < ne {
		u, v := rng.IntN(nu), rng.IntN(nv)
		key := bigraph.PackEdge(u, v)
		if seen[key] {
			continue
		}
		seen[key] = true
		w := 1.0
		if weighted {
			w = 0.5 + 4.5*rng.Float64()
		}
		edges = append(edges, bigraph.Edge{U: u, V: v, W: w})
	}
	g, err := bigraph.New(nu, nv, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// plantedBlocks builds a graph of `blocks` disjoint complete co-clusters
// (uPer users × vPer items each, weights within 10% of the block's
// strength, strengths growing 4% from one block to the next), plus
// `noise` light random edges. Each block is nearly rank one, so the top
// eigenvalues of H come one per block with clear gaps: the leading
// k < blocks eigenpairs are well determined and the iterative solvers
// converge to them. (On a random graph the bulk spectrum is so clustered
// that the k-th eigenvector stays unresolved at the solvers' budgets.)
func plantedBlocks(t testing.TB, blocks, uPer, vPer, noise int, seed uint64) *bigraph.Graph {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed+11))
	seen := map[int64]bool{}
	var edges []bigraph.Edge
	add := func(u, v int, w float64) {
		if key := bigraph.PackEdge(u, v); !seen[key] {
			seen[key] = true
			edges = append(edges, bigraph.Edge{U: u, V: v, W: w})
		}
	}
	for c := 0; c < blocks; c++ {
		scale := math.Pow(1.04, float64(c))
		for u := c * uPer; u < (c+1)*uPer; u++ {
			for v := c * vPer; v < (c+1)*vPer; v++ {
				add(u, v, scale*(1+0.1*rng.Float64()))
			}
		}
	}
	nu, nv := blocks*uPer, blocks*vPer
	for i := 0; i < noise; i++ {
		add(rng.IntN(nu), rng.IntN(nv), 0.1)
	}
	g, err := bigraph.New(nu, nv, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRunningExample reproduces Table 2 of the paper: H under Poisson
// λ=2 on the Figure 1 graph, plus the MHS ordering conclusion of §2.2.
func TestRunningExample(t *testing.T) {
	g := figure1Graph(t)
	w := WeightMatrix(g)
	h := ExactH(w, pmf.NewPoisson(2), 80)
	want := map[[2]int]float64{
		{0, 0}: 3.641, {0, 1}: 3.506, {0, 3}: 4.064,
		{1, 1}: 3.641, {1, 3}: 4.064, {3, 3}: 5.429,
	}
	for idx, v := range want {
		if got := h.At(idx[0], idx[1]); math.Abs(got-v) > 0.001 {
			t.Errorf("H[u%d,u%d]=%.4f want %.3f", idx[0]+1, idx[1]+1, got, v)
		}
	}
	s := MHSFromH(h)
	// Paper: s(u2,u4) = 0.914.
	if got := s.At(1, 3); math.Abs(got-0.914) > 0.001 {
		t.Errorf("s(u2,u4)=%.4f want 0.914", got)
	}
	// Eq. (4) applied to Table 2 gives s(u1,u2) = 3.506/3.641 = 0.963.
	// (The paper prints 0.981 = √0.963 — inconsistent with its own Eq. (4);
	// see EXPERIMENTS.md.) Either way the §2.2 ordering conclusion holds:
	if got := s.At(0, 1); math.Abs(got-0.963) > 0.001 {
		t.Errorf("s(u1,u2)=%.4f want 0.963", got)
	}
	if s.At(0, 1) <= s.At(1, 3) {
		t.Errorf("MHS ordering violated: s(u1,u2)=%.3f <= s(u2,u4)=%.3f", s.At(0, 1), s.At(1, 3))
	}
	// Raw H shows the counter-intuitive inversion the paper motivates
	// normalization with: H[u2,u4] > H[u2,u1].
	if h.At(1, 3) <= h.At(1, 0) {
		t.Error("expected raw-H inversion H[u2,u4] > H[u2,u1]")
	}
}

// TestLemma21Properties checks Lemma 2.1: s ∈ [0,1], s(u,u)=1, and s=0
// for disconnected pairs, across random graphs and all three PMFs.
func TestLemma21Properties(t *testing.T) {
	pmfs := []pmf.PMF{pmf.NewUniform(5), pmf.NewGeometric(0.5), pmf.NewPoisson(1)}
	f := func(seed uint64) bool {
		nu := 3 + int(seed%10)
		nv := 3 + int((seed/5)%10)
		g := randomBipartite(t, nu, nv, nu+nv, seed%2 == 0, seed)
		w := WeightMatrix(g)
		for _, om := range pmfs {
			s := MHSFromH(ExactH(w, om, 8))
			for i := 0; i < nu; i++ {
				if math.Abs(s.At(i, i)-1) > 1e-12 {
					return false
				}
				for l := 0; l < nu; l++ {
					if s.At(i, l) < -1e-12 || s.At(i, l) > 1+1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestMHSDisconnectedIsZero(t *testing.T) {
	// Two disconnected components: {u0,v0} and {u1,v1}.
	g, err := bigraph.New(2, 2, []bigraph.Edge{
		{U: 0, V: 0, W: 1}, {U: 1, V: 1, W: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := MHSFromH(ExactH(WeightMatrix(g), pmf.NewPoisson(1), 10))
	if s.At(0, 1) != 0 {
		t.Errorf("s across components = %v want 0", s.At(0, 1))
	}
}

// TestExactEmbeddingZeroLossFullRank verifies §3: with k = |U| (full
// eigenbasis) the closed-form solution drives the unified objective to
// (numerically) zero.
func TestExactEmbeddingZeroLossFullRank(t *testing.T) {
	g := figure1Graph(t)
	om := pmf.NewPoisson(1)
	emb, err := ExactEmbedding(g, Options{K: 4, PMF: om, Tau: 40, NoScale: true})
	if err != nil {
		t.Fatal(err)
	}
	loss := Loss(g, emb.U, emb.V, om, 40)
	if loss > 1e-10 {
		t.Errorf("full-rank loss = %g want ~0", loss)
	}
}

// TestLemma22 verifies the v-side identity of Lemma 2.2 at L = 0.
func TestLemma22(t *testing.T) {
	g := figure1Graph(t)
	om := pmf.NewPoisson(1)
	emb, err := ExactEmbedding(g, Options{K: 4, PMF: om, Tau: 40, NoScale: true})
	if err != nil {
		t.Fatal(err)
	}
	dev := VSideMHSDeviation(g, emb.V, om, 40)
	if dev > 1e-8 {
		t.Errorf("Lemma 2.2 deviation = %g want ~0", dev)
	}
}

// TestGEBEMatchesExact cross-checks Algorithm 1 against the dense
// reference solver (Theorem 4.1): same subspace, same eigenvalues, and
// the same Gram matrices U·Uᵀ and U·Vᵀ (which is what downstream tasks
// consume — individual columns may differ by sign/rotation in clusters),
// on a tall graph (the sweeps run on H_V over |V| rows) and on its
// transpose, a wide graph with the same spectrum (on H over |U| rows).
func TestGEBEMatchesExact(t *testing.T) {
	tall := randomBipartite(t, 25, 18, 120, true, 77)
	for _, g := range []*bigraph.Graph{tall, transposeGraph(t, tall)} {
		for _, om := range []pmf.PMF{pmf.NewUniform(5), pmf.NewGeometric(0.5), pmf.NewPoisson(1)} {
			// NoAdaptiveStop: the comparison needs the full fixed budget — with
			// Tol this deep the controller would (correctly) declare it
			// unreachable and stop long before the subspace settles.
			opt := Options{K: 4, PMF: om, Tau: 10, Iters: 800, Tol: 1e-12, Seed: 3, NoAdaptiveStop: true}
			fast, err := GEBE(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := ExactEmbedding(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%dx%d/%s", g.NU, g.NV, om.Name())
			for i := range fast.Values {
				if math.Abs(fast.Values[i]-exact.Values[i]) > 1e-5*(1+exact.Values[i]) {
					t.Errorf("%s: eigenvalue %d: %v vs exact %v", name, i, fast.Values[i], exact.Values[i])
				}
			}
			gramFast := dense.MulT(fast.U, fast.U)
			gramExact := dense.MulT(exact.U, exact.U)
			if !dense.Equal(gramFast, gramExact, 1e-5) {
				t.Errorf("%s: U·Uᵀ mismatch (max dev %g)", name, dense.Sub(gramFast, gramExact).MaxAbs())
			}
			puvFast := dense.MulT(fast.U, fast.V)
			puvExact := dense.MulT(exact.U, exact.V)
			if !dense.Equal(puvFast, puvExact, 1e-5) {
				t.Errorf("%s: U·Vᵀ mismatch (max dev %g)", name, dense.Sub(puvFast, puvExact).MaxAbs())
			}
		}
	}
}

// transposeGraph swaps g's sides: its W is g's Wᵀ.
func transposeGraph(t testing.TB, g *bigraph.Graph) *bigraph.Graph {
	t.Helper()
	edges := make([]bigraph.Edge, len(g.Edges))
	for i, e := range g.Edges {
		edges[i] = bigraph.Edge{U: e.V, V: e.U, W: e.W}
	}
	tg, err := bigraph.New(g.NV, g.NU, edges)
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

// rankThreeGraph is 36 users × 15 items in three co-clusters of 12×5;
// each user's weight is the same on all its items, so every block is
// rank one and W has rank 3.
func rankThreeGraph(t testing.TB) *bigraph.Graph {
	t.Helper()
	var edges []bigraph.Edge
	for c := 0; c < 3; c++ {
		for u := c * 12; u < (c+1)*12; u++ {
			for v := c * 5; v < (c+1)*5; v++ {
				edges = append(edges, bigraph.Edge{U: u, V: v, W: float64(1 + c + u%4)})
			}
		}
	}
	g, err := bigraph.New(36, 15, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGEBERankDeficient: on the tall rank-3 graph with k=6, GEBE sweeps
// on H_V and maps back through W, where three of the six columns of
// W·Z_V vanish. The map must complete them, not lose them: every value,
// the null-space ones ω(0) = e^{−λ} included, matches the exact
// reference, Z = U·Λ^{-1/2} is orthonormal to 1e-12, and H·Z = Z·Λ.
func TestGEBERankDeficient(t *testing.T) {
	g := rankThreeGraph(t)
	om := pmf.NewPoisson(1)
	opt := Options{K: 6, PMF: om, Tau: 10, Iters: 300, Tol: 1e-12, Seed: 5, NoAdaptiveStop: true}
	emb, err := GEBE(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactEmbedding(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range emb.Values {
		if math.Abs(emb.Values[i]-exact.Values[i]) > 1e-9*(1+exact.Values[i]) {
			t.Errorf("eigenvalue %d: gebe %v exact %v", i, emb.Values[i], exact.Values[i])
		}
	}
	if null := om.Weight(0); math.Abs(emb.Values[opt.K-1]-null) > 1e-12 {
		t.Errorf("null-space eigenvalue %v, want ω(0) = %v", emb.Values[opt.K-1], null)
	}
	z := emb.U.Clone()
	inv := make([]float64, opt.K)
	for i, v := range emb.Values {
		inv[i] = 1 / math.Sqrt(v)
	}
	z.ScaleCols(inv)
	if d := dense.Sub(dense.TMul(z, z), dense.Identity(opt.K)).MaxAbs(); d > 1e-12 {
		t.Errorf("‖ZᵀZ − I‖_max = %g, want ≤ 1e-12", d)
	}
	w := WeightMatrix(g).Scaled(1 / emb.SigmaScale)
	hz := newHOperator(w, opt).ApplyInto(dense.New(z.Rows, z.Cols), z)
	zl := z.Clone()
	zl.ScaleCols(emb.Values)
	if d := dense.Sub(hz, zl).MaxAbs(); d > 1e-9 {
		t.Errorf("‖H·Z − Z·Λ‖_max = %g, want ≤ 1e-9", d)
	}
}

// TestGEBETraceBasisSide: the ksi span names the side the sweeps ran on
// (basis_rows = |V| for a tall graph, |U| for a wide one), and only a
// warm run records a warm_start span.
func TestGEBETraceBasisSide(t *testing.T) {
	for _, sh := range [][2]int{{30, 20}, {20, 30}} {
		g := randomBipartite(t, sh[0], sh[1], 150, true, 13)
		var prev *Embedding
		for _, warm := range []bool{false, true} {
			tr := obs.NewTrace("test")
			opt := Options{K: 5, Iters: 20, Seed: 5, Trace: tr}
			if warm {
				opt.WarmStart = prev
			}
			emb, err := GEBE(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			prev = emb
			ksi := findSpan(tr.Root(), "ksi")
			if ksi == nil {
				t.Fatalf("%dx%d: no ksi span", sh[0], sh[1])
			}
			if got := ksi.Attrs["basis_rows"]; got != min(sh[0], sh[1]) {
				t.Errorf("%dx%d: basis_rows = %v, want %d", sh[0], sh[1], got, min(sh[0], sh[1]))
			}
			if got := findSpan(tr.Root(), "warm_start") != nil; got != warm {
				t.Errorf("%dx%d warm=%v: warm_start span recorded = %v", sh[0], sh[1], warm, got)
			}
		}
	}
}

// findSpan returns the first span named name in s's tree, depth first.
func findSpan(s *obs.Span, name string) *obs.Span {
	if s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if f := findSpan(c, name); f != nil {
			return f
		}
	}
	return nil
}

// TestGEBEPMatchesExactPoisson: GEBE^p must agree with the exact
// eigendecomposition of H_λ (large-τ truncation) on the reconstructed
// Gram matrices — Theorem 5.1 with small ε — whichever side of W the
// Krylov basis is built on: |V| rows for the tall graph, |U| for the
// wide one.
func TestGEBEPMatchesExactPoisson(t *testing.T) {
	for _, sh := range [][2]int{{30, 20}, {20, 30}} {
		g := randomBipartite(t, sh[0], sh[1], 150, true, 13)
		lambda := 1.0
		opt := Options{K: 5, PMF: pmf.NewPoisson(lambda), Lambda: lambda, Tau: 60,
			Epsilon: 0.01, Iters: 800, Tol: 1e-12, Seed: 5}
		gp, err := GEBEP(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := ExactEmbedding(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range gp.Values {
			if math.Abs(gp.Values[i]-exact.Values[i]) > 1e-4*(1+exact.Values[i]) {
				t.Errorf("%dx%d: eigenvalue %d: gebep %v exact %v", sh[0], sh[1], i, gp.Values[i], exact.Values[i])
			}
		}
		gram1 := dense.MulT(gp.U, gp.U)
		gram2 := dense.MulT(exact.U, exact.U)
		if !dense.Equal(gram1, gram2, 1e-4) {
			t.Errorf("%dx%d: U·Uᵀ mismatch (max dev %g)", sh[0], sh[1], dense.Sub(gram1, gram2).MaxAbs())
		}
	}
}

// TestGEBEPRankDeficient: on a tall graph whose W has rank 3 < k, the
// left singular vectors of the zero singular values are completed, not
// lost — Z = U·Λ^{-1/2} stays orthonormal to 1e-12 — and every value,
// the k−3 null-space ones e^{−λ} included, matches the exact reference.
func TestGEBEPRankDeficient(t *testing.T) {
	g := rankThreeGraph(t)
	lambda := 1.0
	opt := Options{K: 6, PMF: pmf.NewPoisson(lambda), Lambda: lambda, Tau: 60, Epsilon: 0.01, Seed: 5}
	gp, err := GEBEP(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactEmbedding(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gp.Values {
		if math.Abs(gp.Values[i]-exact.Values[i]) > 1e-4*(1+exact.Values[i]) {
			t.Errorf("eigenvalue %d: gebep %v exact %v", i, gp.Values[i], exact.Values[i])
		}
	}
	if null := math.Exp(-lambda); math.Abs(gp.Values[opt.K-1]-null) > 1e-9 {
		t.Errorf("null-space eigenvalue %v, want e^-λ = %v", gp.Values[opt.K-1], null)
	}
	z := gp.U.Clone()
	inv := make([]float64, opt.K)
	for i, v := range gp.Values {
		inv[i] = 1 / math.Sqrt(v)
	}
	z.ScaleCols(inv)
	if d := dense.Sub(dense.TMul(z, z), dense.Identity(opt.K)).MaxAbs(); d > 1e-12 {
		t.Errorf("‖ZᵀZ − I‖_max = %g, want ≤ 1e-12", d)
	}
}

// TestGEBEPTraceBasisSide: the rsvd span names the side the basis was
// built on (basis_rows = min(|U|,|V|)) and carries σ_{k+1}, the largest
// Ritz value the solve drops, which lies in (0, σ_k].
func TestGEBEPTraceBasisSide(t *testing.T) {
	for _, sh := range [][2]int{{30, 20}, {20, 30}} {
		g := randomBipartite(t, sh[0], sh[1], 150, true, 13)
		tr := obs.NewTrace("test")
		gp, err := GEBEP(g, Options{K: 5, Lambda: 1, Seed: 5, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		rsvd := findSpan(tr.Root(), "rsvd")
		if rsvd == nil {
			t.Fatalf("%dx%d: no rsvd span", sh[0], sh[1])
		}
		if got := rsvd.Attrs["basis_rows"]; got != min(sh[0], sh[1]) {
			t.Errorf("%dx%d: basis_rows = %v, want %d", sh[0], sh[1], got, min(sh[0], sh[1]))
		}
		sigmaK := math.Sqrt(1 + math.Log(gp.Values[4])) // λ_k = e^{σ_k² − 1}
		if s, _ := rsvd.Attrs["sigma_k1"].(float64); !(s > 0 && s <= sigmaK+1e-12) {
			t.Errorf("%dx%d: sigma_k1 = %v, want in (0, σ_k = %v]", sh[0], sh[1], rsvd.Attrs["sigma_k1"], sigmaK)
		}
	}
}

// TestGEBEPMatchesExactMultiPanel is TestGEBEPMatchesExactPoisson on a
// 200×160 graph with k=16, large enough that every QR inside the RSVD
// spans several panels of the blocked factorization — the 24-column
// Krylov blocks two, the global QR of the 144-column basis nine — with
// the same tolerances.
func TestGEBEPMatchesExactMultiPanel(t *testing.T) {
	g := plantedBlocks(t, 20, 10, 8, 300, 31)
	lambda := 1.0
	opt := Options{K: 16, PMF: pmf.NewPoisson(lambda), Lambda: lambda, Tau: 60,
		Epsilon: 0.01, Seed: 5}
	gp, err := GEBEP(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactEmbedding(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gp.Values {
		if math.Abs(gp.Values[i]-exact.Values[i]) > 1e-4*(1+exact.Values[i]) {
			t.Errorf("eigenvalue %d: gebep %v exact %v", i, gp.Values[i], exact.Values[i])
		}
	}
	gram1 := dense.MulT(gp.U, gp.U)
	gram2 := dense.MulT(exact.U, exact.U)
	if !dense.Equal(gram1, gram2, 1e-4) {
		t.Errorf("U·Uᵀ mismatch (max dev %g)", dense.Sub(gram1, gram2).MaxAbs())
	}
}

// TestGEBEMatchesExactWideBlock is TestGEBEMatchesExact with k above the
// QR panel width, so every KSI sweep's QR spans more than one panel.
func TestGEBEMatchesExactWideBlock(t *testing.T) {
	for _, om := range []pmf.PMF{pmf.NewUniform(5), pmf.NewGeometric(0.5), pmf.NewPoisson(1)} {
		g := plantedBlocks(t, 24, 5, 4, 100, 78)
		opt := Options{K: 20, PMF: om, Tau: 10, Iters: 2000, Tol: 1e-12, Seed: 3, NoAdaptiveStop: true}
		fast, err := GEBE(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := ExactEmbedding(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fast.Values {
			if math.Abs(fast.Values[i]-exact.Values[i]) > 1e-5*(1+exact.Values[i]) {
				t.Errorf("%s: eigenvalue %d: %v vs exact %v", om.Name(), i, fast.Values[i], exact.Values[i])
			}
		}
		gramFast := dense.MulT(fast.U, fast.U)
		gramExact := dense.MulT(exact.U, exact.U)
		if !dense.Equal(gramFast, gramExact, 1e-5) {
			t.Errorf("%s: U·Uᵀ mismatch (max dev %g)", om.Name(), dense.Sub(gramFast, gramExact).MaxAbs())
		}
		puvFast := dense.MulT(fast.U, fast.V)
		puvExact := dense.MulT(exact.U, exact.V)
		if !dense.Equal(puvFast, puvExact, 1e-5) {
			t.Errorf("%s: U·Vᵀ mismatch (max dev %g)", om.Name(), dense.Sub(puvFast, puvExact).MaxAbs())
		}
	}
}

// TestGEBEPBeatsGEBELoss: Theorem 5.1's consequence — GEBE^p solves the
// untruncated Poisson objective at least as well as truncated GEBE.
func TestGEBEPLossClose(t *testing.T) {
	g := randomBipartite(t, 20, 15, 80, false, 21)
	lambda := 1.0
	om := pmf.NewPoisson(lambda)
	opt := Options{K: 4, PMF: om, Lambda: lambda, Epsilon: 0.05, Seed: 9}
	gp, err := GEBEP(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	ge, err := GEBE(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate both against the same (long-τ, scaled-W) objective. Loss
	// uses the raw graph, so rescale a copy of the graph's weights first.
	scaled := scaleGraph(t, g, gp.SigmaScale)
	lossP := Loss(scaled, gp.U, gp.V, om, 60)
	lossG := Loss(scaled, ge.U, ge.V, om, 60)
	if lossP > lossG*1.05+1e-9 {
		t.Errorf("GEBE^p loss %g should not exceed GEBE loss %g", lossP, lossG)
	}
}

func scaleGraph(t testing.TB, g *bigraph.Graph, sigma float64) *bigraph.Graph {
	t.Helper()
	edges := make([]bigraph.Edge, len(g.Edges))
	for i, e := range g.Edges {
		edges[i] = bigraph.Edge{U: e.U, V: e.V, W: e.W / sigma}
	}
	s, err := bigraph.New(g.NU, g.NV, edges)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGEBEDeterministic(t *testing.T) {
	g := randomBipartite(t, 20, 15, 70, true, 31)
	opt := Options{K: 4, Seed: 11}
	a, err := GEBE(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GEBE(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !dense.Equal(a.U, b.U, 0) || !dense.Equal(a.V, b.V, 0) {
		t.Error("GEBE not deterministic for equal seeds")
	}
}

func TestGEBEPDeterministic(t *testing.T) {
	g := randomBipartite(t, 20, 15, 70, true, 37)
	opt := Options{K: 4, Seed: 11}
	a, err := GEBEP(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GEBEP(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !dense.Equal(a.U, b.U, 0) || !dense.Equal(a.V, b.V, 0) {
		t.Error("GEBEP not deterministic for equal seeds")
	}
}

func TestOptionValidation(t *testing.T) {
	g := figure1Graph(t)
	cases := []Options{
		{K: 0},
		{K: -3},
		{K: 100},             // K > |U|
		{K: 2, Tau: -1},      // bad tau
		{K: 2, Lambda: -2},   // bad lambda
		{K: 2, Epsilon: 1.5}, // bad epsilon
	}
	for i, opt := range cases {
		if _, err := GEBE(g, opt); err == nil {
			t.Errorf("case %d: GEBE accepted invalid options %+v", i, opt)
		}
	}
	// GEBE^p additionally requires K <= |V|.
	if _, err := GEBEP(g, Options{K: 5}); err == nil {
		t.Error("GEBEP accepted K > min(|U|,|V|)")
	}
	// Empty graph.
	empty, _ := bigraph.New(3, 3, nil)
	if _, err := GEBE(empty, Options{K: 2}); err == nil {
		t.Error("GEBE accepted empty graph")
	}
}

func TestSpectralScaling(t *testing.T) {
	// Large weights would overflow e^{λσ²} without scaling.
	edges := []bigraph.Edge{}
	for u := 0; u < 10; u++ {
		for v := 0; v < 8; v++ {
			edges = append(edges, bigraph.Edge{U: u, V: v, W: 1000})
		}
	}
	g, err := bigraph.New(10, 8, edges)
	if err != nil {
		t.Fatal(err)
	}
	emb, err := GEBEP(g, Options{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if emb.SigmaScale < 1000 {
		t.Errorf("expected large σ scale, got %v", emb.SigmaScale)
	}
	for _, x := range emb.U.Data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatal("non-finite embedding entry despite scaling")
		}
	}
}

func TestEmbeddingScore(t *testing.T) {
	g := figure1Graph(t)
	emb, err := GEBEP(g, Options{K: 3, NoScale: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if emb.K() != 3 {
		t.Errorf("K()=%d", emb.K())
	}
	// u1's strongest associations should include its actual neighbors
	// (v1,v2,v3) rather than v4/v5.
	s3 := emb.Score(0, 3)
	s1 := emb.Score(0, 1)
	if s1 <= s3 {
		t.Errorf("Score(u1,v2)=%.4f should exceed Score(u1,v4)=%.4f", s1, s3)
	}
}

func TestMHPApproximation(t *testing.T) {
	// U·Vᵀ from GEBE^p should approximate P = H_λ·W increasingly well as
	// k grows; at k=min dim it is essentially exact on a low-rank graph.
	g := randomBipartite(t, 15, 10, 60, false, 43)
	om := pmf.NewPoisson(1)
	w := WeightMatrix(g)
	sigma := mustSigma(t, g)
	p := ExactMHP(w.Scaled(1/sigma), om, 60)
	var prev float64 = math.Inf(1)
	for _, k := range []int{2, 5, 10} {
		emb, err := GEBEP(g, Options{K: k, Epsilon: 0.01, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		diff := dense.Sub(dense.MulT(emb.U, emb.V), p).FrobeniusNorm()
		if diff > prev+1e-9 {
			t.Errorf("k=%d: approximation error %g worse than smaller k (%g)", k, diff, prev)
		}
		prev = diff
	}
	if prev > 1e-6*p.FrobeniusNorm()+1e-9 {
		t.Errorf("full-rank MHP approximation error %g not ~0", prev)
	}
}

func mustSigma(t testing.TB, g *bigraph.Graph) float64 {
	t.Helper()
	emb, err := GEBEP(g, Options{K: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return emb.SigmaScale
}

func TestAblationsRun(t *testing.T) {
	g := randomBipartite(t, 25, 20, 120, true, 53)
	mhp, err := MHPBNE(g, Options{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mhs, err := MHSBNE(g, Options{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if mhp.U.Rows != 25 || mhp.V.Rows != 20 || mhs.U.Rows != 25 || mhs.V.Rows != 20 {
		t.Fatal("ablation output shapes wrong")
	}
	// MHS-BNE factorizes the normalized similarity matrix: row norms
	// approximate √S[i,i] = 1 for well-connected nodes, and pairwise dots
	// stay within the MHS range [0, ~1].
	for i := 0; i < mhs.U.Rows; i++ {
		if n := dense.Norm2(mhs.U.Row(i)); n > 1.2 {
			t.Errorf("MHS-BNE U row %d norm %v exceeds the MHS bound", i, n)
		}
	}
}

// TestMHPBNEBestRankK: MHP-BNE's U·Vᵀ equals the projection Φ·Φᵀ·P, whose
// error must match the optimal rank-k error (tail singular values of P).
func TestMHPBNEApproximatesP(t *testing.T) {
	g := randomBipartite(t, 15, 12, 70, false, 59)
	om := pmf.NewPoisson(1)
	emb, err := MHPBNE(g, Options{K: 4, PMF: om, Tau: 20, Iters: 500, Tol: 1e-12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	w := WeightMatrix(g).Scaled(1 / emb.SigmaScale)
	p := ExactMHP(w, om, 20)
	got := dense.Sub(dense.MulT(emb.U, emb.V), p).FrobeniusNorm()
	// Optimal rank-4 error from exact SVD of P.
	_, s, _ := dense.SVD(p)
	var opt float64
	for _, sv := range s[4:] {
		opt += sv * sv
	}
	opt = math.Sqrt(opt)
	if got > opt*1.01+1e-8 {
		t.Errorf("MHP-BNE rank-k error %g exceeds optimal %g", got, opt)
	}
}

// TestTheorem51Bound numerically checks the first bound of Theorem 5.1.
func TestTheorem51Bound(t *testing.T) {
	g := randomBipartite(t, 20, 14, 90, false, 61)
	lambda, eps, k := 1.0, 0.1, 4
	emb, err := GEBEP(g, Options{K: k, Lambda: lambda, Epsilon: eps, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	w := WeightMatrix(g).Scaled(1 / emb.SigmaScale)
	_, s, _ := dense.SVD(w.ToDense())
	// Exact U*_λ via dense route.
	exact, err := ExactEmbedding(g, Options{K: k, PMF: pmf.NewPoisson(lambda), Tau: 80, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	lhs := dense.Sub(dense.MulT(exact.U, exact.U), dense.MulT(emb.U, emb.U)).FrobeniusNorm()
	lhs = lhs * lhs
	var rhs float64
	for i := 0; i < k; i++ {
		rhs += math.Exp(lambda*(s[i]*s[i]-1)) - math.Exp(lambda*(s[i]*s[i]-eps*s[k]*s[k]-1))
	}
	if rhs < 0 {
		rhs = 0
	}
	// The bound is an upper bound on the error of the *randomized SVD*
	// output; allow slack for the σ-estimate in the scaling.
	if lhs > rhs+1e-6 {
		t.Errorf("Theorem 5.1 bound violated: lhs=%g rhs=%g", lhs, rhs)
	}
}
