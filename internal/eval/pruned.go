package eval

import (
	"context"
	"math"
	"time"

	"gebe/internal/dense"
	"gebe/internal/obs"
)

// PrunedDims is d, the number of leading rotated coordinates the pruned
// selector keeps per item. Each request reads a (d+1)×|V| block instead
// of the |V|×k item matrix, then rescores the items whose bound reaches
// the running n-th best. A larger d tightens the bound but streams more
// bytes per item. On the 20000×32 planted serving embedding, d=11 gave
// the fastest single-user selection (BenchmarkPrunedTopN; see DESIGN.md).
const PrunedDims = 11

const (
	// prunedMaxAbs bounds the magnitude of every entry the selector
	// prunes with. Products of two such entries, and sums of |V| of them,
	// stay far from overflow, so the rounding model of DESIGN.md holds.
	// A larger entry selects the exact fallback.
	prunedMaxAbs = 0x1p400
	// prunedFloor (ν) is the least norm the slack is scaled by. It keeps
	// a slack term in every bound, large enough to cover the absolute
	// error of products that underflow. Zero and tiny rows stay prunable.
	prunedFloor = 0x1p-400
	// prunedMaxDefect is the largest orthogonality defect ‖RᵀR − I‖ the
	// rotation may have. A worse eigensolve selects the fallback.
	prunedMaxDefect = 0x1p-20
	// prunedChunk is how many item rows are rotated per product at
	// build, so the rotated copy of V never exists whole.
	prunedChunk = 256
	// unitRoundoff is u = 2⁻⁵³, the float64 rounding unit.
	unitRoundoff = 0x1p-53
)

// Pruned is an exact, bound-pruned top-N selector over an item matrix V
// (FEXIPRO, Li et al., SIGMOD 2017; LEMP, Teflioudi et al., SIGMOD
// 2015). It is built once per snapshot and is immutable, so any number
// of goroutines may share it, each with its own PrunedWork.
//
// The plan rotates onto V's principal axes: R holds the eigenvectors of
// the Gram matrix VᵀV, in descending eigenvalue order. For each item it
// keeps the first d rotated coordinates, and in row d the norm of the
// rest plus a rounding slack. One 1×(d+1) by (d+1)×|V| product then
// gives every item an upper bound on its score. Items are scanned in
// ascending id order. An item is rescored with dense.Dot only when its
// bound reaches the running n-th best score. That dot is bitwise the
// Scorer tile's entry, so the selected ids and scores are bitwise what
// Scorer + TopNExcluding give. DESIGN.md derives the bound and its
// slack.
type Pruned struct {
	v *dense.Matrix
	// d is the head width; 0 when the plan cannot prune (d ≥ k, or V has
	// an entry that is non-finite or beyond prunedMaxAbs, or the rotation
	// is not orthogonal enough) and every request takes the fallback.
	d int
	// rot is R, k×k; head is the (d+1)×|V| bound block, item-major along
	// each row so the bound product streams it.
	rot, head *dense.Matrix
	// slack is s = √c, where c covers every rounding error and the
	// rotation's orthogonality defect, relative to ‖u‖·‖v‖.
	slack float64
	// energy is the head's share of V's spectral energy: the first d
	// eigenvalues of VᵀV over their sum.
	energy float64
}

// NewPruned builds the pruned selector over the item rows of v with
// d = PrunedDims.
func NewPruned(v *dense.Matrix) *Pruned {
	return newPruned(v, PrunedDims)
}

func newPruned(v *dense.Matrix, d int) *Pruned {
	p := &Pruned{v: v}
	k := v.Cols
	if d >= k || !inPrunedRange(v.Data) {
		return p
	}
	g := dense.TMulOpts(v, v, dense.Tuning{})
	// Scaling by a power of two is exact and leaves the eigenvectors
	// alone; it keeps the eigensolver's intermediates in range.
	if mx := g.MaxAbs(); mx > 0 {
		_, e := math.Frexp(mx)
		g.Scale(math.Ldexp(1, -max(e, -1000)))
	}
	vals, rot := dense.SymEig(g)
	defect := orthDefect(rot)
	if !(defect <= prunedMaxDefect) { // also rejects NaN
		return p
	}
	// DESIGN.md bounds every error term, relative to ‖u‖·‖v‖, by
	// ε_R + 8·(k+2)^{3/2}·u; c takes twice that. The bound carries s·‖u‖
	// and s·‖v‖ in its last coordinate, whose product is s²·‖u‖·‖v‖ = c·‖u‖·‖v‖.
	c := 2*defect + 16*math.Pow(float64(k+2), 1.5)*unitRoundoff
	p.d, p.rot, p.slack = d, rot, math.Sqrt(c)
	var total, top float64
	for j, l := range vals {
		l = max(l, 0)
		total += l
		if j < d {
			top += l
		}
	}
	if total > 0 {
		p.energy = top / total
	}

	nv := v.Rows
	p.head = dense.New(d+1, nv)
	hd := p.head.Data
	buf := dense.New(min(prunedChunk, nv), k)
	for lo := 0; lo < nv; lo += prunedChunk {
		hi := min(lo+prunedChunk, nv)
		src := &dense.Matrix{Rows: hi - lo, Cols: k, Data: v.Data[lo*k : hi*k]}
		dst := &dense.Matrix{Rows: hi - lo, Cols: k, Data: buf.Data[:(hi-lo)*k]}
		dense.MulInto(dst, src, rot, dense.Tuning{})
		for i := lo; i < hi; i++ {
			r := dst.Row(i - lo)
			for j, x := range r[:d] {
				hd[j*nv+i] = x
			}
			hd[d*nv+i] = norm(r[d:]) + p.slack*max(norm(v.Row(i)), prunedFloor)
		}
	}
	return p
}

// orthDefect returns an upper bound on ‖RᵀR − I‖₂: the Frobenius norm
// of the computed residual plus the rounding the computation of RᵀR
// itself may hide (γ_k·‖R‖_F², DESIGN.md). NaN when R is not finite.
func orthDefect(r *dense.Matrix) float64 {
	k := r.Cols
	rtr := dense.TMulOpts(r, r, dense.Tuning{})
	for i := 0; i < k; i++ {
		rtr.Data[i*k+i] -= 1
	}
	fro := r.FrobeniusNorm()
	return (rtr.FrobeniusNorm() + gamma(k+1)*fro*fro) * (1 + gamma(k*k+2))
}

// gamma is γ_n = n·u/(1 − n·u), the classic bound on the relative
// error of an n-term floating-point sum of products.
func gamma(n int) float64 {
	nu := float64(n) * unitRoundoff
	return nu / (1 - nu)
}

// norm is the Euclidean norm as a plain ascending sum of squares.
func norm(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// inPrunedRange reports whether every entry is finite with magnitude at
// most prunedMaxAbs: the inputs the bound's rounding model covers.
func inPrunedRange(x []float64) bool {
	for _, v := range x {
		if !(math.Abs(v) <= prunedMaxAbs) { // NaN fails too
			return false
		}
	}
	return true
}

// Dims returns d, the number of rotated coordinates the bound reads
// exactly, or 0 when the plan cannot prune and every request falls back
// to the Scorer tile.
func (p *Pruned) Dims() int { return p.d }

// HeadEnergy returns the share of V's spectral energy (the trace of
// VᵀV) that the first d rotated coordinates hold; 0 on the fallback.
func (p *Pruned) HeadEnergy() float64 { return p.energy }

// PrunedWork is one goroutine's scratch for Pruned.TopN: the rotated
// user, the bound query and row, the selection heap, and the fallback
// scorer. The zero value is ready to use; buffers are sized on first
// use. It is NOT safe for concurrent use.
type PrunedWork struct {
	p      *Pruned
	ur, q  *dense.Matrix // 1×k rotated user, 1×(d+1) bound query
	bounds *dense.Matrix // 1×|V|
	heap   TopNHeap
	user   *dense.Matrix // 1×k, the fallback scorer's left side
	sc     *Scorer
}

// TopN returns the ids and scores of user row u's n best items in
// descending order, excluding the ids in skip (ascending, as
// TopNExcluding takes it), and how many items it scored exactly. The
// result is bitwise what Scorer + TopNExcluding give.
//
// When ctx carries an obs.Trace it records a "score.tile" span around
// the bound product (or the fallback's tile) and a "rank" span around
// the scan. Users with a non-finite or out-of-range entry, and plans
// that cannot prune, take the fallback: the Scorer tile and
// TopNExcluding, scoring all |V| items. n ≤ 0 selects nothing and
// scores nothing.
func (p *Pruned) TopN(ctx context.Context, w *PrunedWork, u []float64, n int, skip []int32) (ids []int, scores []float64, rescored int) {
	if n <= 0 {
		return nil, nil, 0
	}
	tr := obs.FromContext(ctx)
	m := scorerMetrics.Load()
	if w.p != p {
		*w = PrunedWork{p: p}
	}
	if p.d == 0 || !inPrunedRange(u) {
		ids, scores = p.fallback(tr, w, u, n, skip)
		rescored = p.v.Rows
	} else {
		ids, scores, rescored = p.pruned(tr, m, w, u, n, skip)
	}
	if m != nil {
		m.rescored.Add(float64(rescored))
	}
	return ids, scores, rescored
}

// fallback is the exact tile path: a one-user Scorer product and
// TopNExcluding over the full score row.
func (p *Pruned) fallback(tr *obs.Trace, w *PrunedWork, u []float64, n int, skip []int32) (ids []int, scores []float64) {
	if w.sc == nil {
		w.user = dense.New(1, p.v.Cols)
		w.sc = NewScorer(w.user, p.v)
	}
	copy(w.user.Data, u)
	_ = w.sc.score(tr, []int{0}, nil, func(_ int, row []float64) {
		rankSp := tr.StartSpan("rank")
		ids = TopNExcluding(row, n, skip)
		scores = make([]float64, len(ids))
		for i, id := range ids {
			scores[i] = row[id]
		}
		rankSp.End()
	})
	return ids, scores
}

// pruned is the bound-pruned path: rotate u, take every item's bound
// in one product, and rescore only the items whose bound reaches the
// running n-th best. n ≥ 1.
func (p *Pruned) pruned(tr *obs.Trace, m *evalMetrics, w *PrunedWork, u []float64, n int, skip []int32) (ids []int, scores []float64, rescored int) {
	k, d, nv := p.v.Cols, p.d, p.v.Rows
	if w.bounds == nil {
		w.ur, w.q, w.bounds = dense.New(1, k), dense.New(1, d+1), dense.New(1, nv)
	}
	dense.MulInto(w.ur, &dense.Matrix{Rows: 1, Cols: k, Data: u}, p.rot, dense.Tuning{})
	q := w.q.Data
	copy(q[:d], w.ur.Data[:d])
	q[d] = norm(w.ur.Data[d:]) + p.slack*max(norm(u), prunedFloor)

	sp := tr.StartSpan("score.tile")
	t0 := time.Now()
	dense.MulInto(w.bounds, w.q, p.head, dense.Tuning{})
	sp.Set("users", 1).Set("items", nv).End()
	if m != nil {
		m.tileSeconds.ObserveSince(t0)
		m.tiles.Inc()
		m.users.Inc()
	}

	rankSp := tr.StartSpan("rank")
	bounds := w.bounds.Data
	n = min(n, nv)
	h := &w.heap
	h.Reset(n)
	pos := 0 // skip[:pos] holds only ids below the current index
	excluded := func(i int) bool {
		for pos < len(skip) && int(skip[pos]) < i {
			pos++
		}
		return pos < len(skip) && int(skip[pos]) == i
	}
	i := 0
	for ; i < nv && len(h.heap) < n; i++ {
		if !excluded(i) {
			h.Push(i, dense.Dot(u, p.v.Row(i)))
			rescored++
		}
	}
	if i < nv { // items remain, so the heap is full
		theta := h.heap[0].s
		for j := i; j < nv; j++ {
			// Prune only on a strict miss: a bound equal to θ, or a NaN
			// bound, is rescored, so no tie is ever lost to the bound.
			if bounds[j] < theta || excluded(j) {
				continue
			}
			rescored++
			// As in TopNExcluding: every heap entry has a smaller id, so
			// a tie with the root loses and the test is s > θ.
			if s := dense.Dot(u, p.v.Row(j)); s > theta {
				h.heap[0] = topPair{s, j}
				h.siftDown(0, n)
				theta = h.heap[0].s
			}
		}
	}
	ids, scores = h.Ranked()
	rankSp.Set("rescored", rescored).End()
	return ids, scores, rescored
}
