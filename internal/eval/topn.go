package eval

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gebe/internal/bigraph"
	"gebe/internal/budget"
	"gebe/internal/dense"
)

// TopNResult aggregates per-user recommendation metrics (§6.3).
type TopNResult struct {
	F1, NDCG, MRR float64
	// Users is the number of users with at least one held-out edge
	// (the denominator of the averages).
	Users int
	// Skipped counts test edges that referenced a node outside the
	// training graph's index range and were therefore excluded from the
	// protocol instead of panicking the scorer. Non-zero values usually
	// mean the split was built against a different graph.
	Skipped int
}

// TopNConfig parameterizes TopNRun; the zero value matches TopN's
// historical behavior (all CPUs, no deadline).
type TopNConfig struct {
	// N is the recommendation list length (the paper's N).
	N int
	// Threads caps scorer parallelism; <1 selects GOMAXPROCS.
	Threads int
	// Deadline optionally bounds the evaluation (cooperative, checked
	// once per scored user batch); when it fires TopNRun returns
	// budget.ErrExceeded.
	Deadline time.Time
}

// TopN runs the paper's top-N recommendation protocol: for every user
// with held-out edges, rank all items by U[u]·V[v] excluding training
// edges, compare the top n against the user's ground-truth list (their
// held-out neighbors ranked by edge weight, truncated to n), and average
// F1/NDCG/MRR over users.
func TopN(train *bigraph.Graph, test []bigraph.Edge, u, v *dense.Matrix, n int, threads int) TopNResult {
	res, _ := TopNRun(train, test, u, v, TopNConfig{N: n, Threads: threads})
	return res
}

// TopNRun is the configurable form of TopN. Test edges whose endpoints
// fall outside the training graph are skipped (and counted in
// Skipped) rather than crashing the run.
func TopNRun(train *bigraph.Graph, test []bigraph.Edge, u, v *dense.Matrix, cfg TopNConfig) (TopNResult, error) {
	threads := cfg.Threads
	if threads < 1 {
		threads = runtime.GOMAXPROCS(0)
	}
	n := cfg.N
	// Per-user training items to exclude and held-out edges.
	trainItems, _ := NewExclusions(train.NU, train.Edges, 0, train.NV)
	heldOut := make([][]bigraph.Edge, train.NU)
	skipped := 0
	for _, e := range test {
		if e.U < 0 || e.U >= train.NU || e.V < 0 || e.V >= train.NV {
			skipped++
			continue
		}
		heldOut[e.U] = append(heldOut[e.U], e)
	}
	var users []int
	for uu, edges := range heldOut {
		if len(edges) > 0 {
			users = append(users, uu)
		}
	}
	res := TopNResult{Users: len(users), Skipped: skipped}
	if len(users) == 0 {
		return res, nil
	}

	var mu sync.Mutex
	var wg sync.WaitGroup
	var expired atomic.Bool
	chunk := (len(users) + threads - 1) / threads
	for lo := 0; lo < len(users); lo += chunk {
		hi := lo + chunk
		if hi > len(users) {
			hi = len(users)
		}
		wg.Add(1)
		go func(users []int) {
			defer wg.Done()
			// Per-worker scorer: its tile buffers are reused across batches,
			// and its sequential GEMM keeps the workers as the only
			// parallelism here.
			sc := NewScorer(u, v)
			var f1, ndcg, mrr float64
			err := sc.Score(users, func() error {
				if expired.Load() {
					return budget.ErrExceeded
				}
				if budget.Exceeded(cfg.Deadline) {
					expired.Store(true)
					return budget.ErrExceeded
				}
				return nil
			}, func(uu int, scores []float64) {
				rec := TopNExcluding(scores, n, trainItems.Of(uu))
				truth := groundTruth(heldOut[uu], n)
				f1 += F1At(rec, truth, n)
				ndcg += NDCGAt(rec, truth, n)
				mrr += MRRAt(rec, truth, n)
			})
			if err != nil {
				return
			}
			mu.Lock()
			res.F1 += f1
			res.NDCG += ndcg
			res.MRR += mrr
			mu.Unlock()
		}(users[lo:hi])
	}
	wg.Wait()
	if expired.Load() {
		return TopNResult{Users: len(users), Skipped: skipped},
			fmt.Errorf("eval: top-N over %d users: %w", len(users), budget.ErrExceeded)
	}
	res.F1 /= float64(len(users))
	res.NDCG /= float64(len(users))
	res.MRR /= float64(len(users))
	return res, nil
}

// Exclusions holds the top-N protocol's training-edge mask: for each
// user, the ascending list of item ids to leave out of their ranking,
// all users' lists sharing one flat array (CSR layout). It is immutable
// once built and safe for concurrent readers.
type Exclusions struct {
	start []int // user u's items are items[start[u]:start[u+1]]
	items []int32
}

// NewExclusions builds the mask of users [0, users) from training
// edges. Only items in [lo, hi) are kept, renumbered to item−lo — a
// shard holding item rows [lo, hi) passes its range, a whole graph
// passes [0, NV). Duplicate edges collapse to one entry. kept counts
// the in-range edges, duplicates included. Edge users must lie in
// [0, users).
func NewExclusions(users int, edges []bigraph.Edge, lo, hi int) (x *Exclusions, kept int) {
	start := make([]int, users+1)
	for _, e := range edges {
		if e.V >= lo && e.V < hi {
			start[e.U+1]++
		}
	}
	for u := 0; u < users; u++ {
		start[u+1] += start[u]
	}
	kept = start[users]
	items := make([]int32, kept)
	fill := slices.Clone(start[:users])
	for _, e := range edges {
		if e.V >= lo && e.V < hi {
			items[fill[e.U]] = int32(e.V - lo)
			fill[e.U]++
		}
	}
	// Sort and deduplicate each list, compacting the flat array in place:
	// list u moves down to start at out, which never passes start[u].
	out := 0
	for u := 0; u < users; u++ {
		list := items[start[u]:start[u+1]]
		slices.Sort(list)
		start[u] = out
		out += copy(items[out:], slices.Compact(list))
	}
	start[users] = out
	return &Exclusions{start: start, items: items[:out:out]}, kept
}

// Of returns user u's excluded items in ascending order (empty when
// none). The slice aliases the mask: callers must not modify it.
func (x *Exclusions) Of(u int) []int32 {
	return x.items[x.start[u]:x.start[u+1]]
}

// groundTruth ranks a user's held-out neighbors by edge weight (ties by
// item index for determinism) and keeps the top n — the paper's
// "top-N ground-truth list".
func groundTruth(edges []bigraph.Edge, n int) map[int]bool {
	sorted := make([]bigraph.Edge, len(edges))
	copy(sorted, edges)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].W != sorted[b].W {
			return sorted[a].W > sorted[b].W
		}
		return sorted[a].V < sorted[b].V
	})
	if len(sorted) > n {
		sorted = sorted[:n]
	}
	truth := make(map[int]bool, len(sorted))
	for _, e := range sorted {
		truth[e.V] = true
	}
	return truth
}
