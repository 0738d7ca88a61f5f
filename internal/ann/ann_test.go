package ann

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"gebe/internal/dense"
	"gebe/internal/eval"
	"gebe/internal/obs"
)

// clusteredMatrix draws rows from a mixture of c Gaussian bumps — the
// shape IVF pruning exists for.
func clusteredMatrix(rows, k, c int, rng *rand.Rand) *dense.Matrix {
	centers := dense.Random(c, k, rng)
	m := dense.New(rows, k)
	for i := 0; i < rows; i++ {
		base := centers.Row(rng.IntN(c))
		row := m.Row(i)
		for j := range row {
			row[j] = base[j] + 0.15*rng.NormFloat64()
		}
	}
	return m
}

// TestExhaustiveProbeMatchesScorerBitwise is the correctness oracle the
// whole package hangs off: at nprobe = Clusters with float rows, Search
// must reproduce eval.Scorer + eval.TopNIndices exactly — identical ids
// AND bitwise-identical scores — on randomized embeddings, with and
// without an exclusion list. The masks vary from none through a few
// ids to the user's 30 best items (so masking decides the answer),
// with repeats and ids outside the item range mixed in.
func TestExhaustiveProbeMatchesScorerBitwise(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 1))
	users := dense.Random(40, 12, rng)
	items := clusteredMatrix(500, 12, 7, rng)
	ix, err := Build(items, Config{Clusters: 13, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sc := eval.NewScorer(users, items)
	for u := 0; u < users.Rows; u++ {
		var row []float64
		if err := sc.Score([]int{u}, nil, func(_ int, r []float64) { row = slices.Clone(r) }); err != nil {
			t.Fatal(err)
		}
		var skip []int32
		switch u % 4 {
		case 1:
			skip = []int32{int32(u % items.Rows), int32((u * 7) % items.Rows)}
		case 2:
			for _, id := range eval.TopNIndices(row, 30, nil) {
				skip = append(skip, int32(id))
			}
		case 3:
			for _, id := range eval.TopNIndices(row, 12, nil) {
				skip = append(skip, int32(id), int32(id))
			}
			skip = append(skip, -4, int32(items.Rows), int32(items.Rows+9))
		}
		slices.Sort(skip)
		skipSet := map[int]bool{}
		for _, id := range skip {
			skipSet[int(id)] = true
		}
		inRange := 0
		for id := range skipSet {
			if id >= 0 && id < items.Rows {
				inRange++
			}
		}
		ids, scores, st := ix.Search(users.Row(u), 10, Options{Nprobe: ix.Clusters(), Skip: skip})
		if st.Probed != ix.Clusters() || st.Scored != items.Rows-inRange {
			t.Fatalf("user %d: full probe stats %+v, want %d scored", u, st, items.Rows-inRange)
		}
		wantIDs := eval.TopNIndices(row, 10, skipSet)
		if len(ids) != len(wantIDs) {
			t.Fatalf("user %d: %d ids vs %d", u, len(ids), len(wantIDs))
		}
		for i := range ids {
			if ids[i] != wantIDs[i] {
				t.Fatalf("user %d rank %d: id %d want %d", u, i, ids[i], wantIDs[i])
			}
			if scores[i] != row[wantIDs[i]] { // bitwise: no tolerance
				t.Fatalf("user %d rank %d: score %v want %v (diff %g)",
					u, i, scores[i], row[wantIDs[i]], scores[i]-row[wantIDs[i]])
			}
		}
	}
}

// TestPartialProbeHonoursMask: below a full probe the list may differ
// from the exact one, but an excluded id is never scored or returned,
// and the list equals an unmasked search of the same clusters with the
// excluded ids filtered out.
func TestPartialProbeHonoursMask(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 3))
	users := dense.Random(20, 10, rng)
	items := clusteredMatrix(400, 10, 6, rng)
	ix, err := Build(items, Config{Clusters: 12, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < users.Rows; u++ {
		q := users.Row(u)
		all, _, full := ix.Search(q, items.Rows, Options{Nprobe: 3})
		// Mask every other id of the unmasked list: the top ones included.
		var skip []int32
		for i, id := range all {
			if i%2 == 0 {
				skip = append(skip, int32(id))
			}
		}
		slices.Sort(skip)
		ids, scores, st := ix.Search(q, 10, Options{Nprobe: 3, Skip: skip})
		if st.Scored != full.Scored-len(skip) {
			t.Fatalf("user %d: scored %d, want %d (masked ids are not scored)", u, st.Scored, full.Scored-len(skip))
		}
		var want []int
		for i, id := range all {
			if i%2 == 1 && len(want) < 10 {
				want = append(want, id)
			}
		}
		if !slices.Equal(ids, want) {
			t.Fatalf("user %d: masked search %v, want %v", u, ids, want)
		}
		for i, id := range ids {
			if scores[i] != dense.Dot(q, items.Row(id)) {
				t.Fatalf("user %d: score of %d is %v, want the float dot product", u, id, scores[i])
			}
		}
	}
}

// TestBuildDeterministic: same items and seed → identical centroids,
// members, and quantized rows; a different seed must be allowed to
// differ (it nearly always does on clustered data).
func TestBuildDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	items := clusteredMatrix(300, 8, 5, rng)
	a, err := Build(items, Config{Clusters: 9, Seed: 3, Int8: true, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(items, Config{Clusters: 9, Seed: 3, Int8: true, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !dense.Equal(a.centroids, b.centroids, 0) {
		t.Fatal("same seed, different centroids (thread count must not matter)")
	}
	for c := range a.members {
		if len(a.members[c]) != len(b.members[c]) {
			t.Fatalf("cluster %d: %d vs %d members", c, len(a.members[c]), len(b.members[c]))
		}
		for i := range a.members[c] {
			if a.members[c][i] != b.members[c][i] {
				t.Fatalf("cluster %d member %d differs", c, i)
			}
		}
	}
	for i := range a.q8 {
		if a.q8[i] != b.q8[i] {
			t.Fatalf("q8[%d] differs", i)
		}
	}
}

// TestMembersPartitionItems: every item appears in exactly one cluster.
func TestMembersPartitionItems(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 2))
	items := clusteredMatrix(257, 6, 4, rng)
	ix, err := Build(items, Config{Clusters: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, items.Rows)
	total := 0
	for _, ms := range ix.members {
		prev := int32(-1)
		for _, id := range ms {
			if id <= prev {
				t.Fatalf("member list not ascending: %d after %d", id, prev)
			}
			prev = id
			if seen[id] {
				t.Fatalf("item %d in two clusters", id)
			}
			seen[id] = true
			total++
		}
	}
	if total != items.Rows {
		t.Fatalf("%d members over %d items", total, items.Rows)
	}
}

// TestInt8ErrorBound pins the quantizer's contract: per-component
// reconstruction error ≤ scale/2 (+1 ULP slack), and a quantized inner
// product within (scale/2)·‖q‖₁ of the float score.
func TestInt8ErrorBound(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 4))
	items := dense.Random(120, 16, rng)
	// Exercise degenerate rows too.
	clear(items.Row(3))
	q8, scales := quantize(items)
	for i := 0; i < items.Rows; i++ {
		row := items.Row(i)
		s := scales[i]
		for j, v := range row {
			rec := s * float64(q8[i*items.Cols+j])
			if math.Abs(rec-v) > s/2*(1+1e-12) {
				t.Fatalf("row %d comp %d: |%g - %g| > scale/2 = %g", i, j, rec, v, s/2)
			}
		}
		q := make([]float64, items.Cols)
		var l1 float64
		for j := range q {
			q[j] = rng.NormFloat64()
			l1 += math.Abs(q[j])
		}
		approx := s * dotQ8(q, q8[i*items.Cols:(i+1)*items.Cols])
		exact := dense.Dot(q, row)
		if math.Abs(approx-exact) > s/2*l1*(1+1e-12) {
			t.Fatalf("row %d: |%g - %g| exceeds bound %g", i, approx, exact, s/2*l1)
		}
	}
}

// TestInt8SearchFullProbeRanksWell: int8 at full probe is not bitwise,
// but on well-separated scores it should agree with the exact top-1
// and overlap heavily at n=10.
func TestInt8SearchFullProbe(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 8))
	items := clusteredMatrix(400, 16, 6, rng)
	users := dense.Random(20, 16, rng)
	ix, err := Build(items, Config{Clusters: 10, Seed: 2, Int8: true})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < users.Rows; u++ {
		q := users.Row(u)
		exIDs, _, _ := ix.Search(q, 10, Options{Nprobe: ix.Clusters()})
		qIDs, _, _ := ix.Search(q, 10, Options{Nprobe: ix.Clusters(), Int8: true})
		overlap := 0
		in := make(map[int]bool, len(exIDs))
		for _, id := range exIDs {
			in[id] = true
		}
		for _, id := range qIDs {
			if in[id] {
				overlap++
			}
		}
		if overlap < 8 {
			t.Fatalf("user %d: int8 full probe overlaps only %d/10 with float", u, overlap)
		}
	}
}

// TestPrunedSearchStats: nprobe below Clusters must scan fewer
// candidates and report it.
func TestPrunedSearchStats(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 5))
	items := clusteredMatrix(600, 8, 8, rng)
	ix, err := Build(items, Config{Clusters: 12, Nprobe: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, _, st := ix.Search(items.Row(0), 5, Options{})
	if st.Probed != 3 {
		t.Fatalf("probed %d clusters, want default nprobe 3", st.Probed)
	}
	if st.Scored <= 0 || st.Scored >= items.Rows {
		t.Fatalf("scored %d of %d items — pruning did nothing", st.Scored, items.Rows)
	}
	if got := ix.EffectiveNprobe(0); got != 3 {
		t.Fatalf("EffectiveNprobe(0) = %d, want 3", got)
	}
	if got := ix.EffectiveNprobe(99); got != 12 {
		t.Fatalf("EffectiveNprobe(99) = %d, want clamp to 12", got)
	}
}

// TestConfigDefaults: zero config picks sqrt clusters and a positive
// nprobe; cluster count clamps to the item count.
func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults(10000)
	if cfg.Clusters != 100 {
		t.Fatalf("Clusters = %d, want 100", cfg.Clusters)
	}
	if cfg.Nprobe != 12 {
		t.Fatalf("Nprobe = %d, want 12", cfg.Nprobe)
	}
	if c := (Config{Clusters: 50}).withDefaults(20); c.Clusters != 20 {
		t.Fatalf("Clusters = %d, want clamp to 20", c.Clusters)
	}
	if _, err := Build(nil, Config{}); err == nil {
		t.Fatal("Build(nil) must error")
	}
	if _, err := Build(dense.New(0, 4), Config{}); err == nil {
		t.Fatal("Build over zero rows must error")
	}
}

// TestMetrics: enabling the registry books searches, candidates, and
// build latency.
func TestMetrics(t *testing.T) {
	r := obs.NewRegistry()
	EnableMetrics(r)
	defer EnableMetrics(nil)
	rng := rand.New(rand.NewPCG(17, 3))
	items := clusteredMatrix(200, 8, 4, rng)
	ix, err := Build(items, Config{Clusters: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, _, st := ix.Search(items.Row(1), 5, Options{Nprobe: 2})
	snap := r.Snapshot()
	if got := snap["ann_queries_total"].(float64); got != 1 {
		t.Fatalf("ann_queries_total = %v", got)
	}
	if got := snap["ann_candidates_scored_total"].(float64); got != float64(st.Scored) {
		t.Fatalf("ann_candidates_scored_total = %v, want %d", got, st.Scored)
	}
	if got := snap["ann_clusters_probed_total"].(float64); got != 2 {
		t.Fatalf("ann_clusters_probed_total = %v, want 2", got)
	}
}

// TestSearchPanics: shape and capability misuse panic like the dense
// package.
func TestSearchPanics(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	items := dense.Random(50, 8, rng)
	ix, err := Build(items, Config{Clusters: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "width mismatch", func() { ix.Search(make([]float64, 5), 3, Options{}) })
	mustPanic(t, "int8 without build", func() { ix.Search(make([]float64, 8), 3, Options{Int8: true}) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
}
