package eval

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"strconv"
	"testing"

	"gebe/internal/bigraph"
)

// heapSelect is the selection TopNExcluding must reproduce bit for
// bit: every index not in skip pushed through a TopNHeap in ascending
// order, with a hash lookup per item.
func heapSelect(scores []float64, n int, skip map[int]bool) []int {
	if n <= 0 {
		return nil
	}
	var t TopNHeap
	t.Reset(min(n, len(scores)))
	for i, s := range scores {
		if !skip[i] {
			t.Push(i, s)
		}
	}
	return t.IDs()
}

// sortSelect is the naive oracle: filter out skip, sort everything by
// topLess, keep the first n. topLess is a total order only without
// NaN, so only NaN-free rows may be checked against it.
func sortSelect(scores []float64, n int, skip map[int]bool) []int {
	if n <= 0 {
		return nil
	}
	var pairs []topPair
	for i, s := range scores {
		if !skip[i] {
			pairs = append(pairs, topPair{s, i})
		}
	}
	sort.Slice(pairs, func(a, b int) bool { return topLess(pairs[b], pairs[a]) })
	out := make([]int, 0, min(n, len(pairs)))
	for _, p := range pairs[:min(n, len(pairs))] {
		out = append(out, p.i)
	}
	return out
}

// skipList turns an exclusion set into the ascending list
// TopNExcluding takes.
func skipList(skip map[int]bool) []int32 {
	var out []int32
	for i := range skip {
		out = append(out, int32(i))
	}
	slices.Sort(out)
	return out
}

// checkSelection runs TopNExcluding and the map form on one row and
// holds both to the heap reference, and, when the row has no NaN, to
// the sort oracle.
func checkSelection(t *testing.T, scores []float64, n int, skip map[int]bool) {
	t.Helper()
	want := heapSelect(scores, n, skip)
	if !slices.ContainsFunc(scores, math.IsNaN) {
		if oracle := sortSelect(scores, n, skip); !slices.Equal(want, oracle) {
			t.Fatalf("heap reference %v disagrees with the sort oracle %v (scores %v, n %d, skip %v)",
				want, oracle, scores, n, skip)
		}
	}
	if got := TopNExcluding(scores, n, skipList(skip)); !slices.Equal(got, want) {
		t.Fatalf("TopNExcluding = %v, want %v (scores %v, n %d, skip %v)", got, want, scores, n, skip)
	}
	if got := TopNIndices(scores, n, skip); !slices.Equal(got, want) {
		t.Fatalf("TopNIndices = %v, want %v (scores %v, n %d, skip %v)", got, want, scores, n, skip)
	}
	if (n <= 0) != (want == nil) {
		t.Fatalf("n = %d gave %v: nil exactly when n ≤ 0", n, want)
	}
}

// TestTopNIndicesExcludingMatchesMap pins the sorted-list selection to
// the map form it replaces: for random scores with heavy ties, skip
// lists of one entry (or none, or out of range) and of random subsets
// must produce exactly the list the hash-lookup loop produces.
func TestTopNIndicesExcludingMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 7))
	for trial := 0; trial < 400; trial++ {
		m := 1 + rng.IntN(100)
		scores := make([]float64, m)
		for i := range scores {
			// Few distinct values so ties are the common case.
			scores[i] = float64(rng.IntN(5))
		}
		n := 1 + rng.IntN(m+3)
		skip := map[int]bool{}
		if trial%2 == 0 {
			// One exclusion, occasionally -1 or past the end.
			skip[rng.IntN(m+2)-1] = true
		} else {
			for i := range scores {
				if rng.IntN(4) == 0 {
					skip[i] = true
				}
			}
		}
		checkSelection(t, scores, n, skip)
	}
}

// TestTopNExcludingMatchesSortOracle covers the edge rows: heavy ties,
// NaN, ±Inf and signed zeros, n ≤ 0 and n ≥ len, empty skip lists and
// skip lists that cover every item.
func TestTopNExcludingMatchesSortOracle(t *testing.T) {
	palette := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1, 1, 2, -1, 0.5}
	rng := rand.New(rand.NewPCG(5, 17))
	for trial := 0; trial < 2000; trial++ {
		m := rng.IntN(40)
		scores := make([]float64, m)
		withNaN := trial%3 == 0
		for i := range scores {
			v := palette[rng.IntN(len(palette))]
			for !withNaN && math.IsNaN(v) {
				v = palette[rng.IntN(len(palette))]
			}
			scores[i] = v
		}
		n := rng.IntN(m+5) - 2
		skip := map[int]bool{}
		switch trial % 4 {
		case 1: // every item
			for i := range scores {
				skip[i] = true
			}
		case 2:
			for i := range scores {
				if rng.IntN(3) == 0 {
					skip[i] = true
				}
			}
		case 3: // ids outside the row exclude nothing
			skip[-3], skip[m], skip[m+7] = true, true, true
		}
		checkSelection(t, scores, n, skip)
	}
	// A skip list covering every item leaves nothing to rank.
	if got := TopNExcluding([]float64{3, 1, 2}, 2, []int32{0, 1, 2}); len(got) != 0 || got == nil {
		t.Errorf("all items skipped: got %#v, want an empty list", got)
	}
	if got := TopNExcluding(nil, 4, nil); len(got) != 0 || got == nil {
		t.Errorf("empty row: got %#v, want an empty list", got)
	}
}

// TestTopNHeapOrderIndependent: the selected list depends only on the
// pushed set, not on push order — the property the ANN path's
// cluster-order candidate enumeration relies on.
func TestTopNHeapOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	scores := make([]float64, 64)
	for i := range scores {
		scores[i] = float64(rng.IntN(4))
	}
	want := TopNIndices(scores, 10, nil)
	perm := rng.Perm(len(scores))
	var h TopNHeap
	h.Reset(10)
	for _, i := range perm {
		h.Push(i, scores[i])
	}
	ids, ranked := h.Ranked()
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("rank %d: got %d want %d", i, ids[i], want[i])
		}
		if ranked[i] != scores[want[i]] {
			t.Fatalf("rank %d: score %g want %g", i, ranked[i], scores[want[i]])
		}
	}
}

// TestTopNIndicesExcludingAllocs guards the hot-path win: selection
// allocates only its heap and the result slice — no skip map, and a
// caller's stack-held skip list (/v1/similar's query vertex) stays on
// the stack.
func TestTopNIndicesExcludingAllocs(t *testing.T) {
	scores := make([]float64, 4096)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range scores {
		scores[i] = rng.Float64()
	}
	allocs := testing.AllocsPerRun(100, func() {
		self := [1]int32{17}
		TopNExcluding(scores, 10, self[:])
	})
	if allocs > 2 {
		t.Errorf("TopNExcluding allocates %.1f/op, want ≤ 2 (heap + result)", allocs)
	}
}

// FuzzTopNIndices holds the selection to the heap reference and, on
// NaN-free rows, to the sort oracle. Each row byte is one score: the
// low nibble picks a special value (NaN, ±Inf, −0) for 0–3, otherwise
// the byte as a signed eighth, so ties are common. Bit i of mask skips
// item i.
func FuzzTopNIndices(f *testing.F) {
	f.Fuzz(func(t *testing.T, row, mask []byte, n int) {
		row, mask = row[:min(len(row), 1024)], mask[:min(len(mask), 160)]
		scores := make([]float64, len(row))
		for i, b := range row {
			switch b & 0x0f {
			case 0:
				scores[i] = math.NaN()
			case 1:
				scores[i] = math.Inf(1)
			case 2:
				scores[i] = math.Inf(-1)
			case 3:
				scores[i] = math.Copysign(0, -1)
			default:
				scores[i] = float64(int8(b)) / 8
			}
		}
		skip := map[int]bool{}
		for i := range 8 * len(mask) {
			if mask[i/8]&(1<<(i%8)) != 0 {
				skip[i] = true
			}
		}
		checkSelection(t, scores, n, skip)
	})
}

// BenchmarkTopNIndices times one serving-sized rank: 20000 items,
// n = 10, with no mask and with a 5-item training mask. The masked
// items are the row's 5 best, as a user's training items tend to be
// under a trained embedding, so every one of them reaches the mask
// check.
func BenchmarkTopNIndices(b *testing.B) {
	scores := make([]float64, 20000)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range scores {
		scores[i] = rng.Float64()
	}
	best := TopNExcluding(scores, 5, nil)
	for _, masked := range []int{0, 5} {
		var skip []int32
		for _, id := range best[:masked] {
			skip = append(skip, int32(id))
		}
		slices.Sort(skip)
		b.Run("mask="+strconv.Itoa(masked), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				TopNExcluding(scores, 10, skip)
			}
		})
	}
}

// TestNewExclusions: lists come out ascending and deduplicated whatever
// the edge order, items outside [lo, hi) are dropped and the rest
// renumbered by lo, users without kept edges get empty lists, and kept
// counts every in-range edge, duplicates included.
func TestNewExclusions(t *testing.T) {
	edges := []bigraph.Edge{
		{U: 3, V: 9}, {U: 0, V: 7}, {U: 3, V: 4}, {U: 0, V: 5}, {U: 3, V: 9},
		{U: 0, V: 12}, {U: 1, V: 2}, {U: 3, V: 6}, {U: 0, V: 5}, {U: 3, V: 11},
		{U: 1, V: 10},
	}
	for _, tc := range []struct {
		lo, hi int
		lists  [][]int32
		kept   int
	}{
		{0, 13, [][]int32{{5, 7, 12}, {2, 10}, nil, {4, 6, 9, 11}, nil}, 11},
		{4, 10, [][]int32{{1, 3}, nil, nil, {0, 2, 5}, nil}, 7},
		{20, 30, [][]int32{nil, nil, nil, nil, nil}, 0},
	} {
		x, kept := NewExclusions(5, edges, tc.lo, tc.hi)
		if kept != tc.kept {
			t.Errorf("[%d,%d): kept %d, want %d", tc.lo, tc.hi, kept, tc.kept)
		}
		for u, want := range tc.lists {
			if got := x.Of(u); !slices.Equal(got, want) {
				t.Errorf("[%d,%d): user %d list %v, want %v", tc.lo, tc.hi, u, got, want)
			}
		}
	}
	if x, kept := NewExclusions(0, nil, 0, 0); kept != 0 || x == nil {
		t.Errorf("no users: got %v, %d", x, kept)
	}
}
