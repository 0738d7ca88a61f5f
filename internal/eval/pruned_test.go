package eval

import (
	"context"
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
	"testing"

	"gebe/internal/core"
	"gebe/internal/dense"
	"gebe/internal/gen"
	"gebe/internal/obs"
)

// refTopN is the reference the pruned selector must reproduce bit for
// bit: one Scorer tile over the full item side, then TopNExcluding.
func refTopN(u []float64, v *dense.Matrix, n int, skip []int32) (ids []int, scores []float64) {
	um := dense.New(1, v.Cols)
	copy(um.Data, u)
	_ = NewScorer(um, v).Score([]int{0}, nil, func(_ int, row []float64) {
		ids = TopNExcluding(row, n, skip)
		scores = make([]float64, len(ids))
		for i, id := range ids {
			scores[i] = row[id]
		}
	})
	return ids, scores
}

// samePrunedList reports whether two ranked lists agree in ids and in
// every score's bits.
func samePrunedList(ids []int, scores []float64, wantIDs []int, wantScores []float64) bool {
	if !slices.Equal(ids, wantIDs) || len(scores) != len(wantScores) {
		return false
	}
	for i := range scores {
		if math.Float64bits(scores[i]) != math.Float64bits(wantScores[i]) {
			return false
		}
	}
	return true
}

// checkPruned compares one pruned selection against the reference and
// returns how many items it rescored.
func checkPruned(t *testing.T, p *Pruned, w *PrunedWork, u []float64, n int, skip []int32) int {
	t.Helper()
	ids, scores, rescored := p.TopN(context.Background(), w, u, n, skip)
	wantIDs, wantScores := refTopN(u, p.v, n, skip)
	if !samePrunedList(ids, scores, wantIDs, wantScores) {
		t.Fatalf("n=%d skip=%v: pruned ids %v scores %v, reference ids %v scores %v",
			n, skip, ids, scores, wantIDs, wantScores)
	}
	return rescored
}

// plantedRows draws rows around shared cluster centroids, the shape of
// the serving benchmark's planted embedding.
func plantedRows(rng *rand.Rand, centroids *dense.Matrix, rows int, noise float64) *dense.Matrix {
	k := centroids.Cols
	m := dense.New(rows, k)
	for i := 0; i < rows; i++ {
		c := centroids.Row(rng.IntN(centroids.Rows))
		for j := range k {
			m.Data[i*k+j] = c[j] + noise*rng.NormFloat64()
		}
	}
	return m
}

func plantedCentroids(rng *rand.Rand, clusters, k int) *dense.Matrix {
	c := dense.New(clusters, k)
	for i := range c.Data {
		c.Data[i] = rng.NormFloat64()
	}
	return c
}

// randomSkip draws an ascending exclusion list of up to size ids below
// items; the user's best items are often among them.
func randomSkip(rng *rand.Rand, items, size int, best []int) []int32 {
	var skip []int32
	for _, id := range best[:min(len(best), size/2)] {
		skip = append(skip, int32(id))
	}
	for len(skip) < size {
		skip = append(skip, int32(rng.IntN(items)))
	}
	slices.Sort(skip)
	return slices.Compact(skip)
}

func TestPrunedTopNMatchesScorer(t *testing.T) {
	t.Run("planted", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(1, 1))
		cents := plantedCentroids(rng, 32, 32)
		v := plantedRows(rng, cents, 3001, 0.6)
		users := plantedRows(rng, cents, 100, 0.6)
		p := NewPruned(v)
		if p.Dims() != PrunedDims {
			t.Fatalf("Dims = %d, want %d", p.Dims(), PrunedDims)
		}
		if e := p.HeadEnergy(); !(e > 0 && e < 1) {
			t.Fatalf("HeadEnergy = %v, want in (0,1)", e)
		}
		var w PrunedWork
		rescored := 0
		for i := range users.Rows {
			u := users.Row(i)
			best, _ := refTopN(u, v, 10, nil)
			rescored += checkPruned(t, p, &w, u, 10, randomSkip(rng, v.Rows, 5, best))
		}
		// Exact lists alone would also pass a selector that never prunes.
		if share := float64(rescored) / float64(users.Rows*v.Rows); share > 0.5 {
			t.Errorf("rescored %.1f%% of items, want the bound to prune most", 100*share)
		}
	})

	t.Run("gebe", func(t *testing.T) {
		g, err := gen.LatentFactor(gen.LFConfig{NU: 300, NV: 400, NE: 4000, Clusters: 8,
			Skew: 0.8, CrossRate: 0.2, MinDegree: 2, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		emb, err := core.GEBE(g, core.Options{K: 16, Iters: 30, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		train, _ := NewExclusions(g.NU, g.Edges, 0, g.NV)
		p := NewPruned(emb.V)
		if p.Dims() != PrunedDims {
			t.Fatalf("Dims = %d, want %d", p.Dims(), PrunedDims)
		}
		var w PrunedWork
		for u := range emb.U.Rows {
			checkPruned(t, p, &w, emb.U.Row(u), 10, train.Of(u))
		}
	})

	t.Run("duplicate rows", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(2, 2))
		base := dense.Random(200, 16, rng)
		v := dense.New(600, 16)
		for i := range v.Rows {
			copy(v.Row(i), base.Row(i%base.Rows))
		}
		p := NewPruned(v)
		var w PrunedWork
		for i := 0; i < 50; i++ {
			checkPruned(t, p, &w, base.Row(i), 7, nil)
			checkPruned(t, p, &w, base.Row(i), 1, []int32{int32(i)})
		}
	})

	t.Run("near ties", func(t *testing.T) {
		// The user equals item i, so the Cauchy–Schwarz tail bound is
		// tight and item i's bound sits within rounding of its score. An
		// earlier item scores one ulp-scale step lower, so θ lands inside
		// that rounding: only the slack keeps item i from being pruned.
		rng := rand.New(rand.NewPCG(3, 3))
		const k = 24
		var w PrunedWork
		for trial := 0; trial < 40; trial++ {
			v := dense.Random(64, k, rng)
			for i := 1; i < v.Rows; i += 2 {
				copy(v.Row(i-1), v.Row(i))
				// Shrink one coordinate by an ulp until the earlier row
				// scores strictly below the later one against itself.
				for j := 0; j < k; j++ {
					x := v.Row(i - 1)
					x[j] = math.Nextafter(x[j], 0)
					if dense.Dot(v.Row(i), x) < dense.Dot(v.Row(i), v.Row(i)) {
						break
					}
				}
			}
			p := NewPruned(v)
			for i := 1; i < v.Rows; i += 2 {
				checkPruned(t, p, &w, v.Row(i), 1, nil)
			}
		}
	})

	t.Run("masks cover the best items", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(4, 4))
		cents := plantedCentroids(rng, 8, 20)
		v := plantedRows(rng, cents, 500, 0.3)
		p := NewPruned(v)
		var w PrunedWork
		for i := 0; i < 30; i++ {
			u := v.Row(rng.IntN(v.Rows))
			best, _ := refTopN(u, v, 40, nil)
			skip := make([]int32, len(best))
			for j, id := range best {
				skip[j] = int32(id)
			}
			slices.Sort(skip)
			checkPruned(t, p, &w, u, 10, skip)
			checkPruned(t, p, &w, u, 10, skip[:20])
		}
	})

	t.Run("list lengths", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(5, 5))
		v := dense.Random(1003, 16, rng) // |V| not a multiple of 8
		p := NewPruned(v)
		var w PrunedWork
		u := dense.Random(1, 16, rng).Row(0)
		skip := []int32{3, 500, 1002}
		for _, n := range []int{-1, 0, 1, 9, 1000, 1003, 1010} {
			checkPruned(t, p, &w, u, n, nil)
			checkPruned(t, p, &w, u, n, skip)
		}
		if ids, scores, rescored := p.TopN(context.Background(), &w, u, 0, nil); ids != nil || scores != nil || rescored != 0 {
			t.Errorf("n=0: got %v %v rescored %d, want nil lists and no scoring", ids, scores, rescored)
		}
	})

	t.Run("zero, tiny and huge rows", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(6, 6))
		v := dense.Random(400, 16, rng)
		for i := range v.Rows {
			row := v.Row(i)
			switch i % 5 {
			case 0:
				clear(row)
			case 1:
				for j := range row {
					row[j] *= 0x1p300
				}
			case 2:
				for j := range row {
					row[j] *= 0x1p-300
				}
			}
		}
		p := NewPruned(v)
		if p.Dims() != PrunedDims {
			t.Fatalf("Dims = %d, want %d on in-range rows", p.Dims(), PrunedDims)
		}
		var w PrunedWork
		for i := 0; i < 20; i++ {
			u := v.Row(i)
			checkPruned(t, p, &w, u, 5, nil)
			checkPruned(t, p, &w, u, 5, []int32{int32(i)})
		}
	})

	t.Run("fallbacks", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(7, 7))
		var w PrunedWork
		narrow := dense.Random(50, PrunedDims, rng) // d ≥ k
		p := NewPruned(narrow)
		if p.Dims() != 0 {
			t.Fatalf("d ≥ k: Dims = %d, want 0", p.Dims())
		}
		if got := checkPruned(t, p, &w, narrow.Row(0), 5, nil); got != narrow.Rows {
			t.Errorf("d ≥ k: rescored %d, want all %d", got, narrow.Rows)
		}
		for _, bad := range []float64{math.NaN(), math.Inf(-1), 0x1p500} {
			v := dense.Random(50, 16, rng)
			v.Data[37] = bad
			if p := NewPruned(v); p.Dims() != 0 {
				t.Errorf("V holding %v: Dims = %d, want 0", bad, p.Dims())
			}
		}
		v := dense.Random(50, 16, rng)
		p = NewPruned(v)
		for _, bad := range []float64{math.NaN(), math.Inf(1), -0x1p500} {
			u := slices.Clone(v.Row(0))
			u[3] = bad
			if got := checkPruned(t, p, &w, u, 5, nil); got != v.Rows {
				t.Errorf("user holding %v: rescored %d, want all %d", bad, got, v.Rows)
			}
		}
	})
}

// TestPrunedWorkRebinds: one scratch may serve two plans in turn (a
// pool outliving a hot swap); it must re-size for the second.
func TestPrunedWorkRebinds(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	a, b := NewPruned(dense.Random(100, 16, rng)), NewPruned(dense.Random(300, 20, rng))
	var w PrunedWork
	checkPruned(t, a, &w, a.v.Row(1), 5, nil)
	checkPruned(t, b, &w, b.v.Row(2), 5, nil)
	checkPruned(t, a, &w, a.v.Row(3), 5, nil)
}

func TestPrunedMetricsAndSpans(t *testing.T) {
	reg := obs.NewRegistry()
	EnableMetrics(reg)
	defer EnableMetrics(nil)
	rng := rand.New(rand.NewPCG(9, 9))
	cents := plantedCentroids(rng, 8, 16)
	p := NewPruned(plantedRows(rng, cents, 400, 0.5))
	tr := obs.NewTrace("req")
	ctx := obs.ContextWithTrace(context.Background(), tr)
	var w PrunedWork
	_, _, rescored := p.TopN(ctx, &w, p.v.Row(0), 5, nil)
	if rescored <= 0 || rescored >= p.v.Rows {
		t.Fatalf("rescored %d of %d items, want a pruned share", rescored, p.v.Rows)
	}
	if got := reg.Counter("eval_pruned_rescored_total", "").Value(); got != float64(rescored) {
		t.Errorf("eval_pruned_rescored_total = %v, want %d", got, rescored)
	}
	if got := reg.Counter("eval_scored_users_total", "").Value(); got != 1 {
		t.Errorf("eval_scored_users_total = %v, want 1", got)
	}
	root := tr.Root()
	var names []string
	for _, c := range root.Children {
		names = append(names, c.Name)
	}
	if !slices.Equal(names, []string{"score.tile", "rank"}) {
		t.Fatalf("spans %v, want [score.tile rank]", names)
	}
	if r := root.Children[1].Attrs["rescored"]; r != rescored {
		t.Errorf("rank span rescored = %v, want %d", r, rescored)
	}
}

// FuzzPrunedTopN checks the pruned selector against Scorer +
// TopNExcluding on generated item sets: duplicate and one-ulp
// near-tied rows, low-rank sets whose tail bound is tight, zero, tiny
// and huge rows, integer-valued rows full of exact ties, non-finite
// entries, any head width d (d ≥ k is the fallback), any n and mask.
func FuzzPrunedTopN(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, items, k, d uint8, flags uint16, n int, mask []byte) {
		rng := rand.New(rand.NewPCG(seed, uint64(flags)))
		nv, kk := 1+int(items)%200, 1+int(k)%24
		dd := 1 + int(d)%(kk+1)
		v := dense.New(nv, kk)
		rank := kk
		if flags&1 != 0 { // low rank: rows in a span of at most dd vectors
			rank = min(dd, kk)
		}
		basis := dense.Random(rank, kk, rng)
		for i := range nv {
			row := v.Row(i)
			for r := range rank {
				c := rng.NormFloat64()
				for j := range row {
					row[j] += c * basis.At(r, j)
				}
			}
			switch {
			case flags&2 != 0 && i > 0 && rng.IntN(3) == 0: // duplicate
				copy(row, v.Row(rng.IntN(i)))
			case flags&4 != 0 && i > 0 && rng.IntN(3) == 0: // one-ulp neighbour
				copy(row, v.Row(i-1))
				j := rng.IntN(kk)
				row[j] = math.Nextafter(row[j], math.Inf(2*rng.IntN(2)-1))
			case flags&8 != 0 && rng.IntN(4) == 0:
				clear(row)
			case flags&16 != 0 && rng.IntN(4) == 0:
				scale := []float64{0x1p-390, 0x1p390, 0x1p-1000, 0x1p600}[rng.IntN(4)]
				for j := range row {
					row[j] *= scale
				}
			case flags&32 != 0: // exact ties
				for j := range row {
					row[j] = math.Round(row[j])
				}
			}
		}
		if flags&64 != 0 {
			v.Data[rng.IntN(len(v.Data))] = []float64{math.NaN(), math.Inf(1)}[rng.IntN(2)]
		}
		p := newPruned(v, dd)
		var skip []int32
		for i := range min(8*len(mask), nv) {
			if mask[i/8]&(1<<(i%8)) != 0 {
				skip = append(skip, int32(i))
			}
		}
		n = n % (nv + 3)
		var w PrunedWork
		for trial := 0; trial < 4; trial++ {
			u := slices.Clone(v.Row(rng.IntN(nv)))
			if trial%2 == 1 {
				for j := range u {
					u[j] += rng.NormFloat64()
				}
			}
			if flags&128 != 0 && trial == 3 {
				u[0] = math.NaN()
			}
			ids, scores, _ := p.TopN(context.Background(), &w, u, n, skip)
			wantIDs, wantScores := refTopN(u, v, n, skip)
			if !samePrunedList(ids, scores, wantIDs, wantScores) {
				t.Fatalf("d=%d n=%d: pruned %v %v, reference %v %v", dd, n, ids, scores, wantIDs, wantScores)
			}
		}
	})
}

// BenchmarkPrunedTopN times one exact single-user selection on the
// serving benchmark's shape (20000 planted items, k=32, n=10, a 5-item
// mask): the Scorer tile + TopNExcluding reference, and the pruned
// selector at several head widths d. "rescored/op" is the share of
// items scored exactly. "build" times NewPruned, the cost a snapshot
// adds to every load and hot swap.
func BenchmarkPrunedTopN(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 0x5e7e))
	cents := plantedCentroids(rng, 64, 32)
	v := plantedRows(rng, cents, 20000, 0.6)
	users := plantedRows(rng, cents, 256, 0.6)
	skips := make([][]int32, users.Rows)
	for i := range skips {
		best, _ := refTopN(users.Row(i), v, 10, nil)
		skips[i] = randomSkip(rng, v.Rows, 5, best)
	}
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			NewPruned(v)
		}
	})
	b.Run("scorer", func(b *testing.B) {
		sc := NewScorer(users, v)
		for i := 0; i < b.N; i++ {
			u := i % users.Rows
			sc.TopN(u, 10, skips[u])
		}
	})
	for _, d := range []int{6, 8, 11, 14, 16} {
		p := newPruned(v, d)
		b.Run("d="+strconv.Itoa(d), func(b *testing.B) {
			var w PrunedWork
			rescored := 0
			for i := 0; i < b.N; i++ {
				u := i % users.Rows
				_, _, r := p.TopN(context.Background(), &w, users.Row(u), 10, skips[u])
				rescored += r
			}
			b.ReportMetric(float64(rescored)/float64(b.N*v.Rows), "rescored/op")
		})
	}
}
