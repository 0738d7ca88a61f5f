package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"gebe/internal/bigraph"
)

// plantedGraph builds a bipartite graph with c planted co-clusters:
// within-cluster pairs connect with probability pin, cross-cluster pairs
// with pout. The cluster structure gives H a clear spectral gap after
// the top c eigenvalues, so KSI at K=c genuinely converges — which the
// warm-start assertions below need (warm-starting an unconverged basis
// saves nothing measurable).
func plantedGraph(t testing.TB, nu, nv, c int, pin, pout float64, seed uint64) *bigraph.Graph {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed+7))
	var edges []bigraph.Edge
	for u := 0; u < nu; u++ {
		for v := 0; v < nv; v++ {
			p := pout
			if u*c/nu == v*c/nv {
				p = pin
			}
			if rng.Float64() < p {
				edges = append(edges, bigraph.Edge{U: u, V: v, W: 1})
			}
		}
	}
	g, err := bigraph.New(nu, nv, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// perturb returns g plus extra fresh edges, the incremental-update shape
// the warm start exists for.
func perturb(t *testing.T, g *bigraph.Graph, extra int, seed uint64) *bigraph.Graph {
	t.Helper()
	edges := append([]bigraph.Edge(nil), g.Edges...)
	have := g.HasEdgeSet()
	rng := rand.New(rand.NewPCG(seed, seed+7))
	for added := 0; added < extra; {
		u, v := rng.IntN(g.NU), rng.IntN(g.NV)
		if have[bigraph.PackEdge(u, v)] {
			continue
		}
		have[bigraph.PackEdge(u, v)] = true
		edges = append(edges, bigraph.Edge{U: u, V: v, W: 1})
		added++
	}
	ng, err := bigraph.New(g.NU, g.NV, edges)
	if err != nil {
		t.Fatal(err)
	}
	return ng
}

// maxScoreDiff samples the score matrix U·Vᵀ on a grid and returns the
// largest absolute difference plus the largest absolute score seen, the
// rotation-invariant way to compare two embeddings of the same graph.
func maxScoreDiff(a, b *Embedding) (diff, scale float64) {
	for u := 0; u < a.U.Rows; u += 3 {
		for v := 0; v < a.V.Rows; v += 3 {
			sa, sb := a.Score(u, v), b.Score(u, v)
			if d := math.Abs(sa - sb); d > diff {
				diff = d
			}
			if s := math.Abs(sa); s > scale {
				scale = s
			}
		}
	}
	return diff, scale
}

// warmShapes are the graphs the GEBE warm-start tests run on: a tall
// one, whose sweeps run on H_V from Wᵀ times the warm U block, and a
// wide one, whose sweeps run on H from the warm U block itself.
var warmShapes = [][2]int{{60, 40}, {40, 60}}

// Warm-starting GEBE from its own converged embedding must reproduce the
// cold result within tolerance while spending almost no sweep budget.
func TestGEBEWarmStartSameGraph(t *testing.T) {
	for _, sh := range warmShapes {
		t.Run(fmt.Sprintf("%dx%d", sh[0], sh[1]), func(t *testing.T) {
			g := plantedGraph(t, sh[0], sh[1], 4, 0.5, 0.02, 3)
			opt := Options{K: 4, Seed: 1}
			cold, err := GEBE(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !cold.Converged {
				t.Fatalf("cold solve did not converge: %d sweeps, %s", cold.Sweeps, cold.StopReason)
			}
			warmOpt := opt
			warmOpt.Seed = 2 // the carried basis, not the RNG, must drive the result
			warmOpt.WarmStart = cold
			warm, err := GEBE(g, warmOpt)
			if err != nil {
				t.Fatal(err)
			}
			if !warm.WarmStarted {
				t.Error("WarmStarted not set on warm solve")
			}
			if cold.WarmStarted {
				t.Error("WarmStarted set on cold solve")
			}
			if warm.SweepsSaved <= 0 {
				t.Errorf("SweepsSaved = %d, want > 0", warm.SweepsSaved)
			}
			if warm.Sweeps > 3 {
				t.Errorf("warm solve used %d sweeps (cold used %d), want <= 3", warm.Sweeps, cold.Sweeps)
			}
			diff, scale := maxScoreDiff(cold, warm)
			if diff > 1e-5*math.Max(1, scale) {
				t.Errorf("cold/warm score mismatch: max diff %g (scale %g)", diff, scale)
			}
		})
	}
}

// On a mildly perturbed graph the warm solve must agree with a cold
// solve of the same graph while spending fewer sweeps — the incremental
// train→serve loop in one assertion.
func TestGEBEWarmStartPerturbedGraph(t *testing.T) {
	for _, sh := range warmShapes {
		t.Run(fmt.Sprintf("%dx%d", sh[0], sh[1]), func(t *testing.T) {
			base := plantedGraph(t, sh[0], sh[1], 4, 0.5, 0.02, 3)
			grown := perturb(t, base, 6, 99)
			opt := Options{K: 4, Seed: 1}
			prev, err := GEBE(base, opt)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := GEBE(grown, opt)
			if err != nil {
				t.Fatal(err)
			}
			warmOpt := opt
			warmOpt.WarmStart = prev
			warm, err := GEBE(grown, warmOpt)
			if err != nil {
				t.Fatal(err)
			}
			if !warm.Converged {
				t.Fatalf("warm solve did not converge: %d sweeps, %s", warm.Sweeps, warm.StopReason)
			}
			if warm.SweepsSaved <= 0 {
				t.Errorf("SweepsSaved = %d, want > 0", warm.SweepsSaved)
			}
			if warm.Sweeps >= cold.Sweeps {
				t.Errorf("warm used %d sweeps, cold used %d — warm should use fewer", warm.Sweeps, cold.Sweeps)
			}
			diff, scale := maxScoreDiff(cold, warm)
			if diff > 1e-4*math.Max(1, scale) {
				t.Errorf("cold/warm score mismatch on perturbed graph: max diff %g (scale %g)", diff, scale)
			}
		})
	}
}

// GEBEP's randomized SVD takes the warm seed through InitU/InitV; the
// result must match the cold factorization.
func TestGEBEPWarmStart(t *testing.T) {
	g := plantedGraph(t, 60, 40, 4, 0.5, 0.02, 3)
	opt := Options{K: 4, Seed: 1}
	cold, err := GEBEP(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	warmOpt := opt
	warmOpt.Seed = 2
	warmOpt.WarmStart = cold
	warm, err := GEBEP(g, warmOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStarted {
		t.Error("WarmStarted not set")
	}
	diff, scale := maxScoreDiff(cold, warm)
	if diff > 1e-3*math.Max(1, scale) {
		t.Errorf("cold/warm score mismatch: max diff %g (scale %g)", diff, scale)
	}
}

// The ablation solvers accept the same option; MHS-BNE threads each side
// through its own warm basis.
func TestAblationWarmStart(t *testing.T) {
	g := plantedGraph(t, 60, 40, 4, 0.5, 0.02, 5)
	opt := Options{K: 4, Seed: 1}
	for _, solver := range []struct {
		name string
		f    func(*bigraph.Graph, Options) (*Embedding, error)
	}{
		{"mhp-bne", MHPBNE},
		{"mhs-bne", MHSBNE},
	} {
		t.Run(solver.name, func(t *testing.T) {
			cold, err := solver.f(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			warmOpt := opt
			warmOpt.WarmStart = cold
			warm, err := solver.f(g, warmOpt)
			if err != nil {
				t.Fatal(err)
			}
			if !warm.WarmStarted {
				t.Error("WarmStarted not set")
			}
			if warm.SweepsSaved <= 0 {
				t.Errorf("SweepsSaved = %d, want > 0", warm.SweepsSaved)
			}
			if warm.Sweeps > cold.Sweeps {
				t.Errorf("warm used %d sweeps, cold used %d", warm.Sweeps, cold.Sweeps)
			}
		})
	}
}

// A WarmStart embedding without U is a configuration error, not a panic.
func TestWarmStartValidation(t *testing.T) {
	g := plantedGraph(t, 20, 15, 2, 0.5, 0.05, 7)
	_, err := GEBE(g, Options{K: 4, WarmStart: &Embedding{}})
	if err == nil {
		t.Fatal("want error for WarmStart with nil U")
	}
}
