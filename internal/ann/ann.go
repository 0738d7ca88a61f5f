// Package ann implements cluster-pruned approximate top-N retrieval
// over the item embedding: an inverted-file (IVF) index built by
// k-means over V's rows. A query scores the user vector against the
// cluster centroids, keeps the top-nprobe clusters, exactly scores only
// their members, and merges through the same bounded top-N selection
// the exact scorer uses — so at nprobe = Clusters with float rows the
// result is bitwise identical to eval.Scorer + eval.TopNExcluding, which
// is the package's correctness oracle.
//
// The index optionally stores 8-bit symmetrically quantized item rows
// with per-row scales: four times the cache density of float64 at a
// bounded score error (see Quantization in the README), selectable per
// search.
//
// Build reuses the repository's engines: point-centroid distance tiles
// go through the internal/dense panel GEMM kernels, and assignment and
// seeding parallelism through the shared internal/par worker pool.
// Seeding is k-means++ from a fixed PCG stream, so builds are
// deterministic for a fixed (items, Config) and do not depend on the
// thread count or the kernel flavor.
package ann

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"gebe/internal/dense"
	"gebe/internal/eval"
	"gebe/internal/obs"
)

// Config parameterizes Build. The zero value picks ~sqrt(items)
// clusters, 20 Lloyd iterations, nprobe = Clusters/8, float rows only,
// GOMAXPROCS assignment workers, and seed 0.
type Config struct {
	// Clusters is the number of k-means centroids (the IVF's K);
	// 0 selects round(sqrt(items)), clamped to [1, items].
	Clusters int
	// Iters caps Lloyd iterations; assignment convergence stops the loop
	// earlier. 0 selects 20.
	Iters int
	// Nprobe is the default cluster count a search scans when the caller
	// does not choose one; 0 selects max(1, Clusters/8). Clamped to
	// [1, Clusters].
	Nprobe int
	// Int8 additionally stores symmetric 8-bit quantized item rows with
	// per-row scales, selectable per search via Options.Int8.
	Int8 bool
	// Threads caps the build's workers, both the Lloyd assignment and
	// each k-means++ seeding round; <1 selects GOMAXPROCS. The index is
	// bitwise the same at every value.
	Threads int
	// Seed drives k-means++ seeding.
	Seed uint64
}

func (c Config) withDefaults(items int) Config {
	if c.Clusters <= 0 {
		c.Clusters = int(math.Round(math.Sqrt(float64(items))))
	}
	if c.Clusters < 1 {
		c.Clusters = 1
	}
	if c.Clusters > items {
		c.Clusters = items
	}
	if c.Iters <= 0 {
		c.Iters = 20
	}
	if c.Nprobe <= 0 {
		c.Nprobe = c.Clusters / 8
	}
	if c.Nprobe < 1 {
		c.Nprobe = 1
	}
	if c.Nprobe > c.Clusters {
		c.Nprobe = c.Clusters
	}
	if c.Threads < 1 {
		c.Threads = runtime.GOMAXPROCS(0)
	}
	return c
}

// Index is an immutable inverted-file index over one item matrix. It
// keeps a reference to the matrix it was built over (rows are scored in
// place, never copied); the serving layer's versioned model snapshots
// give both the same lifetime. Search is safe for concurrent use.
type Index struct {
	cfg   Config
	items *dense.Matrix

	centroids *dense.Matrix // Clusters × k
	members   [][]int32     // per-cluster item ids, ascending
	iters     int           // Lloyd iterations actually run
	// assignSkipped is the share of point rows the Lloyd bounds settled
	// without measuring them, over all assignment passes.
	assignSkipped float64

	// Symmetric per-row int8 quantization (nil unless Config.Int8):
	// items[i][j] ≈ scales[i] * q8[i*k+j].
	q8     []int8
	scales []float64

	buildSeconds float64
}

// Build clusters the item rows and assembles the inverted file.
func Build(items *dense.Matrix, cfg Config) (*Index, error) {
	if items == nil || items.Rows == 0 || items.Cols == 0 {
		return nil, errors.New("ann: empty item matrix")
	}
	t0 := time.Now()
	cfg = cfg.withDefaults(items.Rows)
	ix := &Index{cfg: cfg, items: items}

	cent, assign, iters, skipped := kmeans(items, cfg)
	ix.centroids = cent
	ix.iters = iters
	ix.assignSkipped = skipped

	counts := make([]int, cfg.Clusters)
	for _, a := range assign {
		counts[a]++
	}
	flat := make([]int32, items.Rows)
	ix.members = make([][]int32, cfg.Clusters)
	off := 0
	for c, n := range counts {
		ix.members[c] = flat[off : off : off+n]
		off += n
	}
	// Fill in item order: member lists come out ascending, so candidate
	// enumeration within a cluster is deterministic.
	for i, a := range assign {
		ix.members[a] = append(ix.members[a], int32(i))
	}

	if cfg.Int8 {
		ix.q8, ix.scales = quantize(items)
	}

	ix.buildSeconds = time.Since(t0).Seconds()
	if m := annMetrics.Load(); m != nil {
		m.buildSeconds.Observe(ix.buildSeconds)
	}
	return ix, nil
}

// Clusters returns the number of centroids (the IVF's K).
func (ix *Index) Clusters() int { return ix.cfg.Clusters }

// Items returns the number of indexed item rows.
func (ix *Index) Items() int { return ix.items.Rows }

// DefaultNprobe returns the probe count a search uses when the caller
// passes none.
func (ix *Index) DefaultNprobe() int { return ix.cfg.Nprobe }

// Int8 reports whether quantized rows were built.
func (ix *Index) Int8() bool { return ix.q8 != nil }

// Iters reports the Lloyd iterations the build actually ran (early
// convergence stops before Config.Iters).
func (ix *Index) Iters() int { return ix.iters }

// AssignSkipped reports the share of point–centroid rows, over all the
// build's Lloyd assignment passes, that the Hamerly bounds settled
// without measuring: in [0, 1), since the first pass measures every
// row.
func (ix *Index) AssignSkipped() float64 { return ix.assignSkipped }

// BuildSeconds reports the wall-clock the build took.
func (ix *Index) BuildSeconds() float64 { return ix.buildSeconds }

// EffectiveNprobe clamps a requested probe count to [1, Clusters],
// substituting the index default for 0 — exported so callers caching by
// nprobe can canonicalize the knob first.
func (ix *Index) EffectiveNprobe(nprobe int) int {
	if nprobe <= 0 {
		nprobe = ix.cfg.Nprobe
	}
	if nprobe > ix.cfg.Clusters {
		nprobe = ix.cfg.Clusters
	}
	return nprobe
}

// Options tunes one search.
type Options struct {
	// Nprobe overrides the index default when > 0 (clamped to
	// [1, Clusters]). Nprobe = Clusters scans everything: with float
	// rows that reproduces the exact scorer bitwise.
	Nprobe int
	// Skip excludes item ids — the serving layer's train-edge mask. It
	// must be in ascending order (eval.Exclusions lists are): each
	// cluster walks it with a merge pointer beside its own ascending
	// member list.
	Skip []int32
	// Int8 scores the quantized rows instead of the float rows; requires
	// an index built with Config.Int8 (panics otherwise, mirroring the
	// dense package's shape discipline).
	Int8 bool
}

// Stats reports how much work one search did.
type Stats struct {
	// Probed is the number of clusters scanned.
	Probed int
	// Scored is the number of candidate items exactly scored (excluded
	// ids are skipped before scoring and not counted).
	Scored int
}

// Search returns the ids and inner-product scores of the top n items
// for query q (length k), in descending score order with ties broken
// toward smaller ids. q is the user vector; scores are q·V[id].
func (ix *Index) Search(q []float64, n int, opt Options) (ids []int, scores []float64, st Stats) {
	if len(q) != ix.items.Cols {
		panic(fmt.Sprintf("ann: query has width %d, index has %d", len(q), ix.items.Cols))
	}
	if opt.Int8 && ix.q8 == nil {
		panic("ann: int8 search on an index built without Config.Int8")
	}
	nprobe := ix.EffectiveNprobe(opt.Nprobe)

	// Rank centroids by inner product with the query — the pruning
	// heuristic: for unit-ish cluster spreads the clusters whose
	// centroids score highest contain the highest-scoring members.
	var ct eval.TopNHeap
	ct.Reset(nprobe)
	for c := 0; c < ix.cfg.Clusters; c++ {
		ct.Push(c, dense.Dot(q, ix.centroids.Row(c)))
	}
	probe := ct.IDs()

	var t eval.TopNHeap
	t.Reset(n)
	k := ix.items.Cols
	for _, c := range probe {
		members := ix.members[c]
		skip := opt.Skip
		if len(skip) > 0 && len(members) > 0 {
			// Start the merge at the cluster's smallest member.
			j, _ := slices.BinarySearch(skip, members[0])
			skip = skip[j:]
		}
		for _, id32 := range members {
			for len(skip) > 0 && skip[0] < id32 {
				skip = skip[1:]
			}
			if len(skip) > 0 && skip[0] == id32 {
				continue
			}
			id := int(id32)
			var s float64
			if opt.Int8 {
				s = ix.scales[id] * dotQ8(q, ix.q8[id*k:(id+1)*k])
			} else {
				s = dense.Dot(q, ix.items.Row(id))
			}
			t.Push(id, s)
			st.Scored++
		}
	}
	st.Probed = len(probe)
	if m := annMetrics.Load(); m != nil {
		m.queries.Inc()
		m.candidates.Add(float64(st.Scored))
		m.probed.Add(float64(st.Probed))
		m.probeFraction.Observe(float64(st.Scored) / float64(ix.items.Rows))
	}
	ids, scores = t.Ranked()
	return ids, scores, st
}

// --- metrics -------------------------------------------------------

type metricsSet struct {
	queries       *obs.Counter
	candidates    *obs.Counter
	probed        *obs.Counter
	probeFraction *obs.Histogram
	buildSeconds  *obs.Histogram
}

var annMetrics atomic.Pointer[metricsSet]

// fractionBuckets spans candidate fractions in (0,1]: a probe that
// scored 3% of the items lands in the 0.05 bucket, full probe in 1.
var fractionBuckets = []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1}

// EnableMetrics records retrieval and build instrumentation into r;
// nil disables collection. One atomic load per search keeps the
// disabled path branch-only, like the engines' kernel metrics.
func EnableMetrics(r *obs.Registry) {
	if r == nil {
		annMetrics.Store(nil)
		return
	}
	annMetrics.Store(&metricsSet{
		queries:       r.Counter("ann_queries_total", "approximate retrieval searches served"),
		candidates:    r.Counter("ann_candidates_scored_total", "candidate items exactly scored by approximate searches"),
		probed:        r.Counter("ann_clusters_probed_total", "clusters scanned by approximate searches"),
		probeFraction: r.Histogram("ann_probe_fraction", "fraction of the item side scored per search", fractionBuckets),
		buildSeconds:  r.Histogram("ann_build_seconds", "wall-clock of one IVF index build (k-means + inverted file + quantization)", nil),
	})
}
