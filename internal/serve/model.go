package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"gebe/internal/ann"
	"gebe/internal/bigraph"
	"gebe/internal/core"
	"gebe/internal/dense"
	"gebe/internal/eval"
)

// model is one immutable serving snapshot: the embedding, the per-user
// training exclusion lists, the precomputed row norms, the pruned top-N
// selector, and the scorer pools bound to those matrices — everything
// request handling reads that must stay mutually consistent. The Server holds the current model
// behind one atomic pointer; a hot swap publishes a fully built
// replacement with a single store, so no request ever observes state
// from two versions. Handlers capture the pointer once on entry and use
// only that snapshot; the old model (pools included) is garbage-collected
// once its last in-flight request finishes.
type model struct {
	// version increases monotonically across swaps within one Server and
	// is stamped into /v1/info, the X-Model-Version response header, the
	// access log, and the recommend cache key.
	version uint64
	// loaded is when this snapshot was published.
	loaded time.Time
	emb    *core.Embedding

	// trainItems holds each user's training items, in ascending
	// shard-local ids, when a training graph was supplied (nil
	// otherwise) — the exclusion lists the paper's top-N protocol
	// applies, optional per request via mask_train. trainEdges counts the
	// edges they were built from, duplicates included.
	trainItems *eval.Exclusions
	trainEdges int

	// Precomputed row norms for /v1/similar's normalized dot products:
	// cosine(i,j) = M[i]·M[j] / (norm[i]·norm[j]).
	uNorms, vNorms []float64

	// ann is the cluster-pruned retrieval index over the item embedding
	// (nil when Config.ANN is nil). Built inside the snapshot, so a hot
	// swap publishes the new embedding and its index in the same pointer
	// store — a request can never score one model's users against
	// another model's clusters.
	ann *ann.Index

	// pruned is the exact bound-pruned top-N selector over the item side,
	// which serves every exact recommend miss; recWork pools its
	// per-request scratch.
	pruned  *eval.Pruned
	recWork sync.Pool

	// One scorer pool per similarity side; scorers are not
	// concurrency-safe, so each in-flight request checks one out.
	uSimScorers, vSimScorers sync.Pool
}

// newModel validates and precomputes one serving snapshot. train is
// optional; when non-nil it must index-align with the embedding.
// annCfg, when non-nil, builds the IVF index over the item side.
func newModel(version uint64, emb *core.Embedding, train *bigraph.Graph, annCfg *ann.Config) (*model, error) {
	if emb == nil || emb.U == nil || emb.V == nil {
		return nil, errors.New("serve: nil embedding")
	}
	m := &model{version: version, loaded: time.Now(), emb: emb}
	if train != nil {
		// A shard holds V rows [ShardOffset, ShardOffset+V.Rows) of a
		// ShardTotal-item embedding but is given the FULL training graph —
		// bigraph.ReadEdgeList densifies ids by first appearance, so
		// splitting the edge file per shard would scramble the indexing.
		// The slicing happens here instead: global item ids are validated
		// against the full item count and remapped to shard-local rows;
		// edges landing on other shards are dropped.
		items := emb.V.Rows
		if emb.Sharded() {
			items = emb.ShardTotal
		}
		if train.NU > emb.U.Rows || train.NV > items {
			return nil, fmt.Errorf("serve: training graph is %dx%d but embedding covers %dx%d",
				train.NU, train.NV, emb.U.Rows, items)
		}
		lo, hi := 0, train.NV
		if emb.Sharded() {
			lo, hi = emb.ShardOffset, emb.ShardOffset+emb.V.Rows
		}
		m.trainItems, m.trainEdges = eval.NewExclusions(emb.U.Rows, train.Edges, lo, hi)
	}
	m.uNorms = rowNorms(emb.U)
	m.vNorms = rowNorms(emb.V)
	if annCfg != nil {
		ix, err := ann.Build(emb.V, *annCfg)
		if err != nil {
			return nil, fmt.Errorf("serve: building retrieval index: %w", err)
		}
		m.ann = ix
	}
	m.pruned = eval.NewPruned(emb.V)
	m.recWork.New = func() any { return new(eval.PrunedWork) }
	m.uSimScorers.New = func() any { return eval.NewScorer(emb.U, emb.U) }
	m.vSimScorers.New = func() any { return eval.NewScorer(emb.V, emb.V) }
	return m, nil
}

// rowNorms precomputes per-row Euclidean norms, the denominators of
// /v1/similar's cosine scores.
func rowNorms(m *dense.Matrix) []float64 {
	norms := make([]float64, m.Rows)
	for i := range norms {
		norms[i] = math.Sqrt(dense.Dot(m.Row(i), m.Row(i)))
	}
	return norms
}

// model returns the current serving snapshot. Handlers call this exactly
// once per request and thread the result through, so one request never
// mixes two versions even across a concurrent swap.
func (s *Server) model() *model {
	return s.cur.Load()
}

// ModelVersion reports the currently served model version.
func (s *Server) ModelVersion() uint64 {
	return s.model().version
}

// Swap atomically replaces the served model with a freshly validated
// snapshot over emb/train and returns the new version. In-flight
// requests finish on the snapshot they started with; new requests see
// the new model immediately — nothing drains and nothing blocks. The
// recommend cache is purged (its keys are version-scoped, so stale
// entries could never be served either way; purging just frees them
// eagerly).
func (s *Server) Swap(emb *core.Embedding, train *bigraph.Graph) (uint64, error) {
	t0 := time.Now()
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	version := s.model().version + 1
	m, err := newModel(version, emb, train, s.cfg.ANN)
	if err != nil {
		s.m.swapFailures.Inc()
		return 0, err
	}
	s.cur.Store(m)
	s.cache.purge()
	s.m.swaps.Inc()
	s.m.modelVersion.Set(float64(version))
	s.m.swapSeconds.ObserveSince(t0)
	s.cfg.Log.Info("serve: model swapped", "model_version", version,
		"users", emb.U.Rows, "items", emb.V.Rows, "k", emb.K(),
		"method", emb.Method, "warm_start", emb.WarmStarted,
		"swap_s", time.Since(t0).Seconds())
	return version, nil
}

// Reload runs the configured loader (Config.Reload) and swaps the result
// in — the shared implementation behind POST /v1/reload and SIGHUP. The
// load+validate latency lands in serve_model_load_seconds.
func (s *Server) Reload() (uint64, error) {
	if s.cfg.Reload == nil {
		return 0, errors.New("serve: no reload loader configured")
	}
	t0 := time.Now()
	emb, train, err := s.cfg.Reload()
	s.m.loadSeconds.ObserveSince(t0)
	if err != nil {
		s.m.swapFailures.Inc()
		return 0, fmt.Errorf("serve: reload: %w", err)
	}
	v, err := s.Swap(emb, train)
	if err != nil {
		return 0, fmt.Errorf("serve: reload: %w", err)
	}
	return v, nil
}
