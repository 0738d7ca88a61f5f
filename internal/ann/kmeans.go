package ann

import (
	"math"
	"math/rand/v2"

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
// rows and returns the centroids, the per-item cluster assignment, the
// iteration count, and the share of point rows the Lloyd bounds let the
// assignment passes skip. Deterministic for a fixed (items, cfg):
// seeding draws from a fixed PCG stream and each point's distance update
// is independent of how the points are split across workers, parallel
// assignment writes each item's slot independently, and the centroid
// update accumulates sequentially in item order.
func kmeans(items *dense.Matrix, cfg Config) (*dense.Matrix, []int32, int, float64) {
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
	return cent, assign, iters, float64(as.skipped) / float64(as.rows)
}

// assigner holds the Lloyd assignment step's state for one build: the
// transposed, zero-padded centroid block, one product tile per worker,
// so no iteration allocates, and Hamerly's two bounds per point, kept
// across passes (DESIGN.md §4, "IVF build"):
//
//	upper[i] ≥ ‖x_i − c_a‖ for the centroid a = assign[i],
//	lower[i] ≤ ‖x_i − c‖ for every other centroid c,
//
// both for the exact distances. A pass moves them by each centroid's
// drift and measures only the rows they cannot settle.
type assigner struct {
	items  *dense.Matrix
	ct     *dense.Matrix // k × stride: column c is centroid c, columns ≥ kc stay zero
	cnorm2 []float64     // ‖c‖² per centroid, kc entries
	parts  []assignPart

	// usable: the items are finite and no row's norm exceeds boundMax,
	// so the bounds' error analysis holds; otherwise every pass
	// measures every row. bounded: a pass has set every row's bounds.
	usable, bounded bool
	slack           float64   // ε = lloydSlack(k)
	theta           float64   // ≥ √(2ε), the skip margin per unit of norm
	xn2             []float64 // computed Σ x_il² per item
	xnorm           []float64 // ≥ ‖x_i‖
	upper, lower    []float64
	last            *dense.Matrix // the centroids of the previous pass
	drift           []float64     // ≥ ‖c − its previous position‖
	cbound          float64       // ≥ ‖c‖ for every centroid of this pass

	rows, skipped int // point rows over all passes, and those the bounds settled
}

// assignPart is one worker's item range, its gather block and its
// product tile. The matrix headers are rebound per block instead of
// allocated.
type assignPart struct {
	lo, hi  int
	ids     []int32   // items gathered into the block
	gather  []float64 // their rows, back to back
	tile    []float64
	x, t    dense.Matrix
	skipped int
}

// Bounds on the magnitudes the Lloyd bounds' rounding analysis covers:
// items up to boundMax in norm keep every square and product far from
// overflow; below, underflow costs each computed distance or score at
// most tinySq in absolute terms, and rootTiny² = 2⁻⁹⁹⁸ > 2·tinySq.
const (
	boundMax = 0x1p400
	tinySq   = 0x1p-1000
	rootTiny = 0x1p-499
)

// newAssigner sizes the scratch for assigning items to kc centroids
// over at most threads workers. The centroid block is kc columns
// rounded up to a multiple of 8, the width at which the dense engine
// runs its 8-column register-panel kernels (k8, k16, panel8); any
// other width falls to the generic loop.
func newAssigner(items *dense.Matrix, kc, threads int) *assigner {
	n, k := items.Rows, items.Cols
	stride := (kc + 7) &^ 7
	parts := max(min(threads, n), 1)
	chunk := (n + parts - 1) / parts
	eps := lloydSlack(k)
	as := &assigner{
		items:  items,
		ct:     dense.New(k, stride),
		cnorm2: make([]float64, kc),
		usable: true,
		slack:  eps,
		theta:  up(math.Sqrt(2 * eps)),
		xn2:    make([]float64, n),
		xnorm:  make([]float64, n),
		upper:  make([]float64, n),
		lower:  make([]float64, n),
		last:   dense.New(kc, k),
		drift:  make([]float64, kc),
	}
	for i := range as.xn2 {
		row := items.Row(i)
		as.xn2[i] = sumSq(row)
		as.xnorm[i] = rootUp(as.xn2[i], eps)
		if !(as.xnorm[i] <= boundMax) {
			as.usable = false
		}
	}
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		rows := min(assignTile, hi-lo)
		as.parts = append(as.parts, assignPart{
			lo: lo, hi: hi,
			ids:    make([]int32, rows),
			gather: make([]float64, rows*k),
			tile:   make([]float64, rows*stride),
		})
	}
	return as
}

// lloydSlack returns ε = 4·(k+2)·2⁻⁵³ for k-dimensional rows: at least
// twice the relative error of a computed sum of k+2 squares, and more
// than the error of one assignment score plus that of ‖x‖², relative to
// (‖x‖ + max‖c‖)² (DESIGN.md §4).
func lloydSlack(k int) float64 {
	return 4 * float64(k+2) * 0x1p-53
}

// up and down step one float toward ±∞: applied to a rounded result,
// they bound the exact value of the operation from above and below.
// They are math.Nextafter toward ±Inf without its general cases.
func up(x float64) float64 {
	switch {
	case x > 0 && x <= math.MaxFloat64:
		return math.Float64frombits(math.Float64bits(x) + 1)
	case x < 0:
		return math.Float64frombits(math.Float64bits(x) - 1)
	case x == 0:
		return 0x1p-1074
	}
	return x // +Inf, NaN
}

func down(x float64) float64 { return -up(-x) }

// rootUp returns an upper bound on √S for the exact sum of squares S
// whose computed value is s.
func rootUp(s, eps float64) float64 {
	return up(math.Sqrt(up(up(s*(1+eps)) + tinySq)))
}

// run writes each item's nearest centroid (squared Euclidean, ties
// toward the smaller cluster id) into assign. The distance argmin
// reduces to argmin_c ‖c‖² − 2·x·c. The cross terms are X_tile · Cᵀ on
// the dense engine's panel kernels: each one is a single ascending-order
// sum from zero, bitwise what dense.Dot computes, under either kernel
// flavor and wherever the row sits in the tile (DESIGN.md §4, IVF
// build). The padding columns come out zero and are never read.
//
// The first pass measures every row and sets its bounds. A later pass
// first moves them by the centroids' drift since the pass before, and
// keeps assign[i] without measuring row i where lower[i] clears
// upper[i] by the rounding margin: then the measured argmin would be
// assign[i] again.
func (as *assigner) run(cent *dense.Matrix, assign []int32) {
	stride := as.ct.Cols
	cn := as.cnorm2
	var cmax float64
	for c := range cn {
		row := cent.Row(c)
		cn[c] = dense.Dot(row, row)
		cmax = max(cmax, cn[c])
		for j, v := range row {
			as.ct.Data[j*stride+c] = v
		}
	}
	as.cbound = rootUp(cmax, as.slack)
	var far, far2 float64 // the two largest drifts
	farID := -1
	if as.bounded {
		for c := range as.drift {
			d := rootUp(sqDist(cent.Row(c), as.last.Row(c)), as.slack)
			as.drift[c] = d
			if d > far {
				far, far2, farID = d, far, c
			} else if d > far2 {
				far2 = d
			}
		}
	}
	copy(as.last.Data, cent.Data)
	par.Parts(len(as.parts), func(p int) {
		ap := &as.parts[p]
		ap.skipped = 0
		n := 0
		for i := ap.lo; i < ap.hi; i++ {
			if as.bounded {
				a := int(assign[i])
				other := far
				if a == farID {
					other = far2
				}
				if as.settled(i, a, as.drift[a], other) {
					ap.skipped++
					continue
				}
			}
			ap.ids[n] = int32(i)
			copy(ap.gather[n*as.items.Cols:], as.items.Row(i))
			n++
			if n == len(ap.ids) {
				as.measure(ap, n, assign)
				n = 0
			}
		}
		if n > 0 {
			as.measure(ap, n, assign)
		}
	})
	for p := range as.parts {
		as.skipped += as.parts[p].skipped
	}
	as.rows += as.items.Rows
	as.bounded = as.usable
}

// settled moves row i's bounds by the drift of its centroid a (dOwn)
// and the largest drift among the others (dOther), and reports whether
// the lower bound clears the upper by the margin θ·P + 2⁻⁴⁹⁹, with P ≥
// ‖x_i‖ + max‖c‖: every other centroid's score then exceeds a's by more
// than both their rounding errors. Where it does not, the upper bound
// is first tightened by measuring centroid a alone, as Hamerly does.
func (as *assigner) settled(i, a int, dOwn, dOther float64) bool {
	u := up(as.upper[i] + dOwn)
	l := max(0, down(as.lower[i]-dOther))
	p := up(as.xnorm[i] + as.cbound)
	margin := up(up(as.theta*p) + rootTiny)
	if l < up(u+margin) {
		s := as.cnorm2[a] - 2*dense.Dot(as.items.Row(i), as.last.Row(a))
		u = min(u, distUp(s, as.xn2[i], as.scoreSlack(p)))
	}
	as.upper[i], as.lower[i] = u, l
	return l >= up(u+margin)
}

// scoreSlack returns E ≥ the rounding error of one computed score
// ‖c‖² − 2·x·c plus that of the computed ‖x‖², given P ≥ ‖x‖ + max‖c‖:
// E = ε·P² + 2⁻¹⁰⁰⁰, rounded up.
func (as *assigner) scoreSlack(p float64) float64 {
	return up(up(as.slack*up(p*p)) + tinySq)
}

// distUp and distDown bound ‖x − c‖ = √(s + ‖x‖²) from above and below,
// given the computed score s, the computed ‖x‖² xn2 and the slack e
// of scoreSlack.
func distUp(s, xn2, e float64) float64 {
	return up(math.Sqrt(max(0, up(up(s+xn2)+e))))
}

func distDown(s, xn2, e float64) float64 {
	return max(0, down(math.Sqrt(max(0, down(down(s+xn2)-e)))))
}

// measure assigns the n gathered rows of ap from one panel product and
// sets their bounds from the best and second-best scores: exact
// ‖x − c‖² is s_c + ‖x‖², and scoreSlack covers the rounding.
func (as *assigner) measure(ap *assignPart, n int, assign []int32) {
	k, stride := as.items.Cols, as.ct.Cols
	cn := as.cnorm2
	ap.x = dense.Matrix{Rows: n, Cols: k, Data: ap.gather[:n*k]}
	ap.t = dense.Matrix{Rows: n, Cols: stride, Data: ap.tile[:n*stride]}
	// Threads 0 keeps the product sequential: the pool parts are the
	// only parallelism here, mirroring eval.Scorer.
	dense.MulInto(&ap.t, &ap.x, as.ct, dense.Tuning{})
	for r := 0; r < n; r++ {
		trow := ap.t.Data[r*stride:][:len(cn)]
		best, bestD, second := 0, cn[0]-2*trow[0], math.Inf(1)
		for c := 1; c < len(trow); c++ {
			// A score below bestD is below second too (second ≥ bestD,
			// unless bestD is NaN and no score is below it), so this
			// picks best exactly as a plain argmin does.
			if d := cn[c] - 2*trow[c]; d < second {
				if d < bestD {
					best, bestD, second = c, d, bestD
				} else {
					second = d
				}
			}
		}
		i := ap.ids[r]
		assign[i] = int32(best)
		if as.usable {
			e := as.scoreSlack(up(as.xnorm[i] + as.cbound))
			as.upper[i] = distUp(bestD, as.xn2[i], e)
			as.lower[i] = distDown(second, as.xn2[i], e)
		}
	}
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

func sumSq(a []float64) float64 {
	var s float64
	for _, v := range a {
		s += v * v
	}
	return s
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}
