package eval

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"gebe/internal/dense"
	"gebe/internal/obs"
)

// TileUsers is the GEMM tile height the scorer batches users into: one
// U_tile·Vᵀ product streams V once for the whole tile instead of once
// per user, which is where scoring time goes when the item side is
// large.
const TileUsers = 16

// Scorer is the tiled GEMM scoring core shared by the top-N evaluation
// protocol and the serving layer: it streams full score rows
// U[u]·Vᵀ (one float per item) for any set of users, TileUsers rows per
// dense product. The two sides only need matching widths, so the same
// type scores U against V (recommendation) or a side against itself
// (same-side similarity).
//
// A Scorer owns its tile buffers and is NOT safe for concurrent use;
// create one per goroutine (allocation is deferred until the first
// Score call and sized to the largest batch actually seen, so idle or
// single-user scorers stay small).
type Scorer struct {
	u, v   *dense.Matrix
	ubatch *dense.Matrix // gathered user rows, tile-height × k
	tile   *dense.Matrix // score tile, tile-height × |V|
}

// NewScorer builds a scorer over the given row sets. It panics when the
// widths differ — like the dense package, a shape mismatch is a
// programming bug, not a runtime condition.
func NewScorer(u, v *dense.Matrix) *Scorer {
	if u.Cols != v.Cols {
		panic(fmt.Sprintf("eval: scorer sides have widths %d and %d", u.Cols, v.Cols))
	}
	return &Scorer{u: u, v: v}
}

// Users returns the number of scoreable users (rows of the left side).
func (s *Scorer) Users() int { return s.u.Rows }

// Items returns the number of scored items (rows of the right side).
func (s *Scorer) Items() int { return s.v.Rows }

// Score streams the full score row for each listed user, in order,
// batching TileUsers users per GEMM. checkpoint (optional) runs once
// before every tile — the cooperative cancellation hook for deadlines
// and shared abort flags; a non-nil error stops scoring and is returned
// as-is. emit receives each user id with its score row; the row is a
// view into the scorer's tile buffer and is only valid until emit
// returns. User ids outside [0, Users()) panic, mirroring dense row
// access.
func (s *Scorer) Score(users []int, checkpoint func() error, emit func(user int, scores []float64)) error {
	return s.score(nil, users, checkpoint, emit)
}

// ScoreCtx is Score with request-scoped tracing: when ctx carries an
// obs.Trace (the serve layer's per-request trace), every GEMM tile is
// recorded as a "score.tile" span attributed with its user count and
// item width — the per-tile visibility that turns "this request was
// slow" into "tile 37 was slow". An untraced context is exactly Score.
func (s *Scorer) ScoreCtx(ctx context.Context, users []int, checkpoint func() error, emit func(user int, scores []float64)) error {
	return s.score(obs.FromContext(ctx), users, checkpoint, emit)
}

func (s *Scorer) score(tr *obs.Trace, users []int, checkpoint func() error, emit func(user int, scores []float64)) error {
	if len(users) == 0 {
		return nil
	}
	h := TileUsers
	if len(users) < h {
		h = len(users)
	}
	if s.ubatch == nil || s.ubatch.Rows < h {
		s.ubatch = dense.New(h, s.u.Cols)
		s.tile = dense.New(h, s.v.Rows)
	}
	m := scorerMetrics.Load()
	for lo := 0; lo < len(users); lo += TileUsers {
		if checkpoint != nil {
			if err := checkpoint(); err != nil {
				return err
			}
		}
		hi := lo + TileUsers
		if hi > len(users) {
			hi = len(users)
		}
		batch := users[lo:hi]
		ub, st := s.ubatch, s.tile
		if len(batch) < ub.Rows {
			ub = &dense.Matrix{Rows: len(batch), Cols: s.u.Cols, Data: s.ubatch.Data[:len(batch)*s.u.Cols]}
			st = &dense.Matrix{Rows: len(batch), Cols: s.v.Rows, Data: s.tile.Data[:len(batch)*s.v.Rows]}
		}
		for bi, uu := range batch {
			copy(ub.Row(bi), s.u.Row(uu))
		}
		sp := tr.StartSpan("score.tile")
		t0 := time.Now()
		// The zero Tuning is the one score rule of every serving and
		// evaluation path: a sequential product (callers supply the
		// parallelism) whose every score is one ascending-order dot
		// product, bitwise dense.Dot, which is what lets the ANN probe
		// and the pruned selector's rescoring reproduce the tile exactly.
		dense.MulTInto(st, ub, s.v, dense.Tuning{})
		sp.Set("users", len(batch)).Set("items", s.v.Rows).End()
		if m != nil {
			m.tileSeconds.ObserveSince(t0)
			m.tiles.Inc()
			m.users.Add(float64(len(batch)))
		}
		for bi, uu := range batch {
			emit(uu, st.Row(bi))
		}
	}
	return nil
}

// TopN scores one user and returns the ids and scores of their n
// best items in descending order, excluding any id in skip (ascending,
// as TopNExcluding takes it).
func (s *Scorer) TopN(user, n int, skip []int32) (ids []int, scores []float64) {
	_ = s.Score([]int{user}, nil, func(_ int, row []float64) {
		ids = TopNExcluding(row, n, skip)
		scores = make([]float64, len(ids))
		for i, id := range ids {
			scores[i] = row[id]
		}
	})
	return ids, scores
}

// evalMetrics instruments the scoring core; installed by EnableMetrics
// and read with one atomic load per tile so the disabled path stays
// branch-only, like the sparse and dense engines' kernel metrics.
type evalMetrics struct {
	tileSeconds *obs.Histogram
	tiles       *obs.Counter
	users       *obs.Counter
	rescored    *obs.Counter
}

var scorerMetrics atomic.Pointer[evalMetrics]

// EnableMetrics records scoring-tile timings and throughput counters
// into r; nil disables collection again. The tile histogram uses
// obs.FastBuckets: one 16×k by |V|×k product sits well under a
// millisecond at evaluation and serving shapes, where obs.DefBuckets
// would lump every observation into its first bucket (the eval/query
// half of the ROADMAP histogram-bucket review).
func EnableMetrics(r *obs.Registry) {
	if r == nil {
		scorerMetrics.Store(nil)
		return
	}
	scorerMetrics.Store(&evalMetrics{
		tileSeconds: r.Histogram("eval_score_tile_seconds", "wall-clock of one scoring product: a U-tile·Vᵀ tile or a pruned selector's bound product", obs.FastBuckets),
		tiles:       r.Counter("eval_score_tiles_total", "scoring products executed (tiles and bound products)"),
		users:       r.Counter("eval_scored_users_total", "users scored against the full item side"),
		rescored:    r.Counter("eval_pruned_rescored_total", "items the pruned top-N selector scored exactly (every item on its fallback)"),
	})
}
