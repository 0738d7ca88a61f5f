package ann

import (
	"math/rand/v2"

	"gebe/internal/cpu"
	"gebe/internal/dense"
	"gebe/internal/par"
)

// assignTile is the row-block height of one point-centroid GEMM: a
// 256×k slab of items against all centroids per product, small enough
// that the tile stays cache-resident at serving dimensionalities.
const assignTile = 256

// seedChunk is the fewest points one k-means++ seeding worker takes per
// round: below it the pool's fork/join costs more than the distances.
const seedChunk = 256

// kmeans runs k-means++ seeding plus Lloyd iterations over the item
// rows and returns the centroids, the per-item cluster assignment, and
// the iteration count. Deterministic for a fixed (items, cfg): seeding
// draws from a fixed PCG stream and each point's distance update is
// independent of how the points are split across workers, parallel
// assignment writes each item's slot independently, and the centroid
// update accumulates sequentially in item order.
func kmeans(items *dense.Matrix, cfg Config) (*dense.Matrix, []int32, int) {
	n, k := items.Rows, items.Cols
	kc := cfg.Clusters
	cent := seedPlusPlus(items, kc, cfg.Seed, cfg.Threads)

	as := newAssigner(items, kc, cfg.Threads)
	assign := make([]int32, n)
	prev := make([]int32, n)
	sums := dense.New(kc, k)
	counts := make([]int, kc)
	iters := 0
	for ; iters < cfg.Iters; iters++ {
		as.run(cent, assign)
		if iters > 0 && equalAssign(assign, prev) {
			break
		}
		copy(prev, assign)

		// Update: sequential accumulation in item order keeps the means
		// bit-reproducible across thread counts. An emptied cluster keeps
		// its previous centroid — deterministic, and k-means++ seeding
		// makes the case rare.
		clear(sums.Data)
		clear(counts)
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

// assigner holds the Lloyd assignment step's scratch for one build: the
// transposed, zero-padded centroid block and one product tile per
// worker, so no iteration allocates.
type assigner struct {
	items  *dense.Matrix
	ct     *dense.Matrix // k × stride: column c is centroid c, columns ≥ kc stay zero
	cnorm2 []float64     // ‖c‖² per centroid, kc entries
	parts  []assignPart
}

// assignPart is one worker's item range and its product tile. The
// matrix headers are rebound per block instead of allocated.
type assignPart struct {
	lo, hi int
	tile   []float64
	x, t   dense.Matrix
}

// newAssigner sizes the scratch for assigning items to kc centroids
// over at most threads workers. The centroid block is kc columns
// rounded up to a multiple of 8, the width at which the dense engine
// runs its 8-column register-panel kernels (k8, k16, panel8); any
// other width falls to the generic loop.
func newAssigner(items *dense.Matrix, kc, threads int) *assigner {
	n := items.Rows
	stride := (kc + 7) &^ 7
	parts := max(min(threads, n), 1)
	chunk := (n + parts - 1) / parts
	as := &assigner{
		items:  items,
		ct:     dense.New(items.Cols, stride),
		cnorm2: make([]float64, kc),
	}
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		as.parts = append(as.parts, assignPart{
			lo: lo, hi: hi,
			tile: make([]float64, min(assignTile, hi-lo)*stride),
		})
	}
	return as
}

// run writes each item's nearest centroid (squared Euclidean, ties
// toward the smaller cluster id) into assign. The distance argmin
// reduces to argmin_c ‖c‖² − 2·x·c. The cross terms are X_tile · Cᵀ on
// the dense engine's panel kernels, pinned to the non-fused SIMD
// flavor: each one is then a single ascending-order sum from zero,
// bitwise what dense.Dot computes, whatever GEBE_SIMD says (DESIGN.md
// §4, IVF build). The padding columns come out zero and are never read.
func (as *assigner) run(cent *dense.Matrix, assign []int32) {
	k, stride := as.items.Cols, as.ct.Cols
	cn := as.cnorm2
	for c := range cn {
		row := cent.Row(c)
		cn[c] = dense.Dot(row, row)
		for j, v := range row {
			as.ct.Data[j*stride+c] = v
		}
	}
	par.Parts(len(as.parts), func(p int) {
		ap := &as.parts[p]
		for blo := ap.lo; blo < ap.hi; blo += assignTile {
			bhi := min(blo+assignTile, ap.hi)
			rows := bhi - blo
			ap.x = dense.Matrix{Rows: rows, Cols: k, Data: as.items.Data[blo*k : bhi*k]}
			ap.t = dense.Matrix{Rows: rows, Cols: stride, Data: ap.tile[:rows*stride]}
			// Threads 0 keeps the product sequential: the pool parts are
			// the only parallelism here, mirroring eval.Scorer.
			dense.MulInto(&ap.t, &ap.x, as.ct, dense.Tuning{Kernels: cpu.KernelSIMD})
			for r := 0; r < rows; r++ {
				trow := ap.t.Data[r*stride:][:len(cn)]
				best, bestD := 0, cn[0]-2*trow[0]
				for c := 1; c < len(trow); c++ {
					if d := cn[c] - 2*trow[c]; d < bestD {
						best, bestD = c, d
					}
				}
				assign[blo+r] = int32(best)
			}
		}
	})
}

func equalAssign(a, b []int32) bool {
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// seedPlusPlus picks kc initial centroids with k-means++: the first
// uniformly, the rest proportionally to squared distance from the
// nearest already-chosen centroid. All randomness comes from one PCG
// stream keyed on seed, and the draw reads the distances sequentially,
// so the picks do not depend on threads.
//
// Each round's distance update runs over contiguous point ranges on the
// shared pool and skips every point the triangle inequality rules out:
// with c_near the point's closest chosen centroid, a new centroid c
// with ‖c − c_near‖² ≥ 4·d2·(1+δ) is provably no closer, so the strict
// update could not fire (skipNewCentroid; δ is derived in DESIGN.md §4).
func seedPlusPlus(items *dense.Matrix, kc int, seed uint64, threads int) *dense.Matrix {
	n, k := items.Rows, items.Cols
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	cent := dense.New(kc, k)
	copy(cent.Row(0), items.Row(rng.IntN(n)))

	d2 := make([]float64, n)
	near := make([]int32, n) // index of the centroid d2 was measured to
	cc := make([]float64, kc)
	margin := seedMargin(k)
	parts := max(min(threads, (n+seedChunk-1)/seedChunk), 1)
	update := func(c int) {
		crow := cent.Row(c)
		par.Parts(parts, func(p int) {
			lo, hi := n*p/parts, n*(p+1)/parts
			seedUpdate(items.Data[lo*k:hi*k], crow, int32(c), d2[lo:hi], near[lo:hi], cc, margin)
		})
	}
	update(0)
	for c := 1; c < kc; c++ {
		var total float64
		for _, d := range d2 {
			total += d
		}
		var pick int
		if total <= 0 {
			// All points coincide with a centroid (duplicate-heavy data):
			// fall back to uniform choice.
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
		for j := 0; j < c; j++ {
			cc[j] = sqDist(crow, cent.Row(j))
		}
		update(c)
	}
	return cent
}

// seedUpdate runs one k-means++ round over a range of points: rows
// holds their rows back to back, and d2/near their distance to, and the
// index of, their closest chosen centroid. Round 0 measures every point
// against crow; later rounds skip the points skipNewCentroid rules out
// (cc holds ‖crow − c_j‖² for every earlier centroid j) and lower d2
// where crow is strictly closer.
func seedUpdate(rows, crow []float64, c int32, d2 []float64, near []int32, cc []float64, margin float64) {
	k := len(crow)
	if c == 0 {
		for i := range d2 {
			d2[i] = sqDist(rows[i*k:][:k], crow)
		}
		return
	}
	for i, d := range d2 {
		if skipNewCentroid(d, cc[near[i]], margin) {
			continue
		}
		if dn := sqDist(rows[i*k:][:k], crow); dn < d {
			d2[i], near[i] = dn, c
		}
	}
}

// seedMargin returns 4·(1+δ) for k-dimensional rows, δ = 8·(k+2)·2⁻⁵³:
// twice what the rounding of the three sqDist values and of the product
// 4·d2·(1+δ) can cost (DESIGN.md §4).
func seedMargin(k int) float64 {
	return 4 * (1 + 8*float64(k+2)*0x1p-53)
}

// Pruning is sound only where sqDist's relative error bound holds: well
// above the subnormals (whose absolute rounding the margin cannot
// cover) and well below overflow. Outside [seedPruneMin, seedPruneMax]
// every point is measured.
const (
	seedPruneMin = 0x1p-900
	seedPruneMax = 0x1p900
)

// skipNewCentroid reports whether a point whose computed squared
// distance to its closest chosen centroid is d2 can skip measuring a
// new centroid whose computed squared distance to that one is cc: then
// the new distance cannot compute below d2, so `d < d2` cannot fire.
// A zero d2 is always skipped (no distance is negative); NaN never is.
func skipNewCentroid(d2, cc, margin float64) bool {
	if d2 == 0 {
		return true
	}
	return d2 >= seedPruneMin && d2 <= seedPruneMax && cc >= margin*d2
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}
