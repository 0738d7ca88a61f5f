package ann

import (
	"math/rand/v2"

	"gebe/internal/cpu"
	"gebe/internal/dense"
	"gebe/internal/par"
)

// The k-means build before the panel-GEMM assignment and the pruned,
// parallel seeding, kept as the oracle Build must match bit for bit:
// single-threaded k-means++ that measures every point against every new
// centroid, and an assignment whose cross terms come from dense.MulTInto
// (A·Bᵀ, four dot products per pass). Its flavor is pinned to the SIMD
// kernels, the default, so the oracle is one index under every
// GEBE_SIMD, and under GEBE_SIMD=off Build (on the Go kernels) is
// checked against it across flavors.

// referenceKmeans returns the centroids, assignment and iteration count
// of the reference build for (items, cfg); cfg must already carry its
// defaults.
func referenceKmeans(items *dense.Matrix, cfg Config) (*dense.Matrix, []int32, int) {
	n, k := items.Rows, items.Cols
	kc := cfg.Clusters
	cent := referenceSeed(items, kc, cfg.Seed)

	assign := make([]int32, n)
	prev := make([]int32, n)
	cnorm2 := make([]float64, kc)
	iters := 0
	for ; iters < cfg.Iters; iters++ {
		for c := 0; c < kc; c++ {
			row := cent.Row(c)
			cnorm2[c] = dense.Dot(row, row)
		}
		referenceAssign(items, cent, cnorm2, assign, cfg.Threads)
		if iters > 0 && equalAssign(assign, prev) {
			break
		}
		copy(prev, assign)

		sums := dense.New(kc, k)
		counts := make([]int, kc)
		for i := 0; i < n; i++ {
			c := int(assign[i])
			counts[c]++
			srow, irow := sums.Row(c), items.Row(i)
			for j, v := range irow {
				srow[j] += v
			}
		}
		for c := 0; c < kc; c++ {
			if counts[c] == 0 {
				continue
			}
			inv := 1 / float64(counts[c])
			crow, srow := cent.Row(c), sums.Row(c)
			for j := range crow {
				crow[j] = srow[j] * inv
			}
		}
	}
	return cent, assign, iters
}

// referenceAssign writes each item's nearest centroid (argmin of
// ‖c‖² − 2·x·c, ties toward the smaller id) with the cross terms from
// dense.MulTInto over 256-row tiles.
func referenceAssign(items, cent *dense.Matrix, cnorm2 []float64, assign []int32, threads int) {
	n, k := items.Rows, items.Cols
	kc := cent.Rows
	parts := max(min(threads, n), 1)
	chunk := (n + parts - 1) / parts
	par.Parts(parts, func(p int) {
		lo := p * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			return
		}
		tile := dense.New(min(assignTile, hi-lo), kc)
		for blo := lo; blo < hi; blo += assignTile {
			bhi := min(blo+assignTile, hi)
			rows := bhi - blo
			xb := &dense.Matrix{Rows: rows, Cols: k, Data: items.Data[blo*k : bhi*k]}
			tb := &dense.Matrix{Rows: rows, Cols: kc, Data: tile.Data[:rows*kc]}
			dense.MulTInto(tb, xb, cent, dense.Tuning{Kernels: cpu.KernelSIMD})
			for r := 0; r < rows; r++ {
				trow := tb.Row(r)
				best, bestD := 0, cnorm2[0]-2*trow[0]
				for c := 1; c < kc; c++ {
					if d := cnorm2[c] - 2*trow[c]; d < bestD {
						best, bestD = c, d
					}
				}
				assign[blo+r] = int32(best)
			}
		}
	})
}

// referenceSeed is k-means++ measuring every point against every new
// centroid on one thread.
func referenceSeed(items *dense.Matrix, kc int, seed uint64) *dense.Matrix {
	n := items.Rows
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	cent := dense.New(kc, items.Cols)
	copy(cent.Row(0), items.Row(rng.IntN(n)))

	d2 := make([]float64, n)
	for i := range d2 {
		d2[i] = sqDist(items.Row(i), cent.Row(0))
	}
	for c := 1; c < kc; c++ {
		var total float64
		for _, d := range d2 {
			total += d
		}
		var pick int
		if total <= 0 {
			pick = rng.IntN(n)
		} else {
			r := rng.Float64() * total
			acc := 0.0
			pick = n - 1
			for i, d := range d2 {
				acc += d
				if acc >= r {
					pick = i
					break
				}
			}
		}
		copy(cent.Row(c), items.Row(pick))
		crow := cent.Row(c)
		for i := range d2 {
			if d := sqDist(items.Row(i), crow); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return cent
}
