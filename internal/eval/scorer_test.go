package eval

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"

	"gebe/internal/dense"
	"gebe/internal/obs"
)

// naiveScores is the pre-Scorer reference loop: one dot product per
// (user, item) pair. The tiled GEMM path must reproduce it bitwise —
// MulTInto with the sequential Tuning{} accumulates each output cell in
// the same order as a plain dot product.
func naiveScores(u, v *dense.Matrix, user int) []float64 {
	out := make([]float64, v.Rows)
	for j := 0; j < v.Rows; j++ {
		out[j] = dense.Dot(u.Row(user), v.Row(j))
	}
	return out
}

func TestScorerMatchesNaiveLoop(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0))
	for _, shape := range []struct{ nu, nv, k int }{
		{1, 9, 4}, {17, 33, 8}, {40, 21, 5}, {16, 50, 16},
	} {
		u := dense.Random(shape.nu, shape.k, rng)
		v := dense.Random(shape.nv, shape.k, rng)
		sc := NewScorer(u, v)
		if sc.Users() != shape.nu || sc.Items() != shape.nv {
			t.Fatalf("scorer reports %dx%d, want %dx%d", sc.Users(), sc.Items(), shape.nu, shape.nv)
		}
		users := make([]int, shape.nu)
		for i := range users {
			users[i] = i
		}
		seen := 0
		err := sc.Score(users, nil, func(uu int, scores []float64) {
			if uu != users[seen] {
				t.Fatalf("emit order: got user %d at position %d", uu, seen)
			}
			seen++
			want := naiveScores(u, v, uu)
			for j := range want {
				if scores[j] != want[j] {
					t.Fatalf("shape %+v user %d item %d: tiled %v != naive %v",
						shape, uu, j, scores[j], want[j])
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if seen != shape.nu {
			t.Fatalf("emitted %d users, want %d", seen, shape.nu)
		}
	}
}

func TestScorerTopNMatchesTopNIndices(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 0))
	u := dense.Random(6, 7, rng)
	v := dense.Random(40, 7, rng)
	sc := NewScorer(u, v)
	skip := map[int]bool{3: true, 17: true}
	ids, scores := sc.TopN(2, 5, []int32{3, 17})
	want := TopNIndices(naiveScores(u, v, 2), 5, skip)
	if len(ids) != len(want) {
		t.Fatalf("got %d ids, want %d", len(ids), len(want))
	}
	row := naiveScores(u, v, 2)
	for i := range ids {
		if ids[i] != want[i] {
			t.Errorf("ids[%d] = %d, want %d", i, ids[i], want[i])
		}
		if scores[i] != row[ids[i]] {
			t.Errorf("scores[%d] = %v, want %v", i, scores[i], row[ids[i]])
		}
	}
	for _, id := range ids {
		if skip[id] {
			t.Errorf("skipped item %d recommended", id)
		}
	}
}

func TestScorerCheckpointAborts(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 0))
	u := dense.Random(3*TileUsers, 4, rng)
	v := dense.Random(10, 4, rng)
	sc := NewScorer(u, v)
	users := make([]int, u.Rows)
	for i := range users {
		users[i] = i
	}
	boom := errors.New("boom")
	calls, emits := 0, 0
	err := sc.Score(users, func() error {
		calls++
		if calls == 2 {
			return boom
		}
		return nil
	}, func(int, []float64) { emits++ })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if emits != TileUsers {
		t.Fatalf("emitted %d users before abort, want exactly one tile (%d)", emits, TileUsers)
	}
}

func TestScorerMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	EnableMetrics(reg)
	defer EnableMetrics(nil)
	rng := rand.New(rand.NewPCG(5, 0))
	u := dense.Random(2*TileUsers+3, 4, rng)
	v := dense.Random(12, 4, rng)
	sc := NewScorer(u, v)
	users := make([]int, u.Rows)
	for i := range users {
		users[i] = i
	}
	if err := sc.Score(users, nil, func(int, []float64) {}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("eval_score_tiles_total", "").Value(); got != 3 {
		t.Errorf("tiles counter = %v, want 3", got)
	}
	if got := reg.Counter("eval_scored_users_total", "").Value(); got != float64(u.Rows) {
		t.Errorf("users counter = %v, want %d", got, u.Rows)
	}
	if got := reg.Histogram("eval_score_tile_seconds", "", nil).Count(); got != 3 {
		t.Errorf("tile histogram count = %v, want 3", got)
	}
}

// TestScoreCtxTileSpans: with a request-scoped trace in the context,
// every GEMM tile appears as a "score.tile" span attributed with its
// user count and item width; an untraced context behaves exactly like
// Score.
func TestScoreCtxTileSpans(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 0))
	u := dense.Random(40, 8, rng)
	v := dense.Random(30, 8, rng)
	sc := NewScorer(u, v)
	users := make([]int, 40)
	for i := range users {
		users[i] = i
	}

	tr := obs.NewTrace("req")
	ctx := obs.ContextWithTrace(context.Background(), tr)
	emitted := 0
	if err := sc.ScoreCtx(ctx, users, nil, func(int, []float64) { emitted++ }); err != nil {
		t.Fatal(err)
	}
	if emitted != 40 {
		t.Fatalf("emitted %d rows, want 40", emitted)
	}
	root := tr.Root()
	// 40 users at 16 per tile → 3 tiles.
	if len(root.Children) != 3 {
		t.Fatalf("trace has %d spans, want 3 tiles: %+v", len(root.Children), root.Children)
	}
	usersSeen := 0
	for i, sp := range root.Children {
		if sp.Name != "score.tile" {
			t.Errorf("span %d = %q, want score.tile", i, sp.Name)
		}
		if sp.Attrs["items"] != 30 {
			t.Errorf("span %d items = %v, want 30", i, sp.Attrs["items"])
		}
		usersSeen += sp.Attrs["users"].(int)
	}
	if usersSeen != 40 {
		t.Errorf("tile spans account for %d users, want 40", usersSeen)
	}

	// Untraced context: same scoring, no spans, no panic.
	emitted = 0
	if err := sc.ScoreCtx(context.Background(), users, nil, func(int, []float64) { emitted++ }); err != nil {
		t.Fatal(err)
	}
	if emitted != 40 {
		t.Fatalf("untraced emitted %d rows, want 40", emitted)
	}
}
