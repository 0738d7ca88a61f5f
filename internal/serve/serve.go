// Package serve is the embedding-serving subsystem behind cmd/gebe-serve:
// online top-N recommendation, same-side similarity and pair scoring over
// a trained embedding, exposed as JSON over stdlib net/http.
//
// Exact recommendations come from a bound-pruned top-N selector
// (eval.Pruned) whose lists are bitwise those of the tiled GEMM scoring
// core of the offline evaluation protocol (eval.Scorer), so a served
// recommendation list is byte-for-byte the list the eval harness would
// rank. Around the
// handlers sits the request lifecycle shared with the coordinator
// (internal/api): panic recovery, a semaphore concurrency limiter that
// sheds load with 429 instead of queueing unboundedly, cooperative
// per-request deadlines, request tracing, per-endpoint latency
// histograms and status-code counters, and graceful drain on shutdown.
// A size-bounded LRU (cache.go) memoizes repeated recommend queries.
package serve

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gebe/internal/ann"
	"gebe/internal/api"
	"gebe/internal/bigraph"
	"gebe/internal/budget"
	"gebe/internal/core"
	"gebe/internal/eval"
	"gebe/internal/obs"
)

// Config parameterizes a Server; the zero value serves with no
// deadline, no concurrency cap, no cache, and the package defaults for
// list lengths and batch sizes.
type Config struct {
	// Deadline is the per-request compute budget; 0 disables it. A
	// request that exhausts the budget mid-scoring gets 503 with
	// Retry-After rather than holding a scorer slot indefinitely.
	Deadline time.Duration
	// MaxInflight caps concurrently served requests; excess requests are
	// shed with 429 + Retry-After. 0 means unlimited. /v1/healthz is
	// exempt so liveness probes keep answering under overload.
	MaxInflight int
	// CacheSize bounds the recommend LRU in entries; 0 disables caching.
	CacheSize int
	// TraceRequests enables request-scoped tracing and sets the
	// tail-sampling retention: the N slowest and the N most recent
	// errored request traces stay retrievable by X-Request-ID at
	// /debug/requests/{id}. 0 disables tracing and those endpoints.
	TraceRequests int
	// DefaultN is the list length used when a request omits n (default 10).
	DefaultN int
	// MaxN caps the requested list length (default 1000).
	MaxN int
	// MaxBatch caps users per recommend call and pairs per score call
	// (default 1024).
	MaxBatch int
	// Metrics receives the serve instrumentation; nil selects the
	// process-wide obs.DefaultRegistry.
	Metrics *obs.Registry
	// Log receives request-level debug logging; nil disables it.
	Log *obs.Logger
	// Reload loads a fresh (embedding, training graph) pair for a hot
	// swap — POST /v1/reload and SIGHUP both call it. The callback keeps
	// file I/O out of the serving layer: cmd/gebe-serve re-reads its -emb
	// and -train paths. nil disables /v1/reload (501).
	Reload func() (*core.Embedding, *bigraph.Graph, error)
	// AdminToken gates POST /v1/reload: when non-empty, requests must
	// carry it in an X-Admin-Token header. Empty leaves the endpoint
	// open — for local use and tests only.
	AdminToken string
	// ANN enables cluster-pruned approximate retrieval on /v1/recommend:
	// when non-nil, every model snapshot — the initial load and each hot
	// swap — builds an ann.Index over the item embedding with this
	// configuration, and requests may select "mode":"approx" with an
	// optional nprobe. nil keeps the server exact-only (approx requests
	// get 400). Indexes built with ANN.Int8 serve approx requests from
	// the quantized rows.
	ANN *ann.Config
}

// Server answers embedding queries. Build one with New and mount
// Handler on an http.Server.
type Server struct {
	cfg    Config
	lc     *api.Lifecycle
	limits api.Limits

	// cur is the served model snapshot (embedding + norms + exclusion
	// sets + scorer pools, see model.go), swapped atomically by
	// Swap/Reload. swapMu serializes swaps so versions are assigned in
	// store order; reads never take it.
	cur    atomic.Pointer[model]
	swapMu sync.Mutex

	cache *lruCache

	m serveMetrics
}

type serveMetrics struct {
	deadlines    *obs.Counter
	truncated    *obs.Counter
	cacheHit     *obs.Counter
	cacheMiss    *obs.Counter
	swaps        *obs.Counter
	swapFailures *obs.Counter
	modelVersion *obs.Gauge
	loadSeconds  *obs.Histogram
	swapSeconds  *obs.Histogram
}

// New builds a Server over a loaded embedding. train is optional: when
// non-nil its edges become the per-user exclusion sets for recommend's
// mask_train option (the offline protocol's "exclude training edges"),
// and it must index-align with the embedding.
func New(emb *core.Embedding, train *bigraph.Graph, cfg Config) (*Server, error) {
	if cfg.Metrics == nil {
		cfg.Metrics = obs.DefaultRegistry()
	}
	mdl, err := newModel(1, emb, train, cfg.ANN)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		limits: api.Limits{DefaultN: cfg.DefaultN, MaxN: cfg.MaxN, MaxBatch: cfg.MaxBatch}.WithDefaults(),
		cache:  newLRU(cfg.CacheSize),
		lc: api.New(api.Settings{
			Component: "serve", Deadline: cfg.Deadline, MaxInflight: cfg.MaxInflight,
			TraceRequests: cfg.TraceRequests, Metrics: cfg.Metrics, Log: cfg.Log,
		}),
	}
	s.cur.Store(mdl)
	r := cfg.Metrics
	s.m = serveMetrics{
		deadlines:    r.Counter("serve_deadline_total", "requests that blew the per-request budget (503)"),
		truncated:    r.Counter("serve_truncated_total", "recommend requests answered partially after the budget expired mid-scoring (200 + truncated)"),
		cacheHit:     r.Counter("serve_cache_hit_total", "recommend results answered from the LRU"),
		cacheMiss:    r.Counter("serve_cache_miss_total", "recommend results scored afresh"),
		swaps:        r.Counter("serve_model_swaps_total", "successful hot swaps of the served model"),
		swapFailures: r.Counter("serve_model_swap_failures_total", "reloads/swaps rejected by load or validation errors"),
		modelVersion: r.Gauge("serve_model_version", "version of the currently served model"),
		loadSeconds:  r.Histogram("serve_model_load_seconds", "wall-clock of the reload loader (read + parse + validate)", nil),
		swapSeconds:  r.Histogram("serve_model_swap_seconds", "wall-clock of building and publishing a model snapshot", nil),
	}
	s.m.modelVersion.Set(1)
	return s, nil
}

// Handler returns the full serving surface: the six /v1 routes, each
// with its latency histogram and status counters, wrapped in the shared
// request lifecycle (recovery → in-flight accounting → load shedding →
// deadline stamping → request tracing), plus — when request tracing is
// on — the /debug/requests diagnostic routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/recommend", s.lc.Instrument("recommend", s.handleRecommend))
	mux.Handle("GET /v1/similar", s.lc.Instrument("similar", s.handleSimilar))
	mux.Handle("POST /v1/score", s.lc.Instrument("score", s.handleScore))
	mux.Handle("GET /v1/healthz", s.lc.Instrument("healthz", s.handleHealthz))
	mux.Handle("GET /v1/info", s.lc.Instrument("info", s.handleInfo))
	mux.Handle("POST /v1/reload", s.lc.Instrument("reload", s.handleReload))
	return s.lc.Handler(mux)
}

// testCheckpoint, when non-nil, replaces the deadline-derived scoring
// checkpoint — the deterministic truncation hook for tests, which
// cannot otherwise make a wall-clock budget expire between two specific
// users or tiles. Never set outside _test files.
var testCheckpoint func() func() error

// checkpoint returns the cooperative cancellation hook scoring loops
// call before each ranked user (recommend) or GEMM tile (similar): nil
// when the request carries no deadline, so the loop skips the clock
// entirely.
func checkpoint(r *http.Request) func() error {
	if testCheckpoint != nil {
		return testCheckpoint()
	}
	dl, ok := r.Context().Deadline()
	if !ok {
		return nil
	}
	return func() error { return budget.Check(dl) }
}

// --- /v1/recommend -------------------------------------------------

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	var req api.RecommendRequest
	if _, err := api.Read(r, &req, s.limits); err != nil {
		s.lc.Fail(w, http.StatusBadRequest, err)
		return
	}
	users, n := req.Users, req.N
	// One snapshot for the whole request: scores, masks, cache keys and
	// the X-Model-Version header all come from the same model even if a
	// swap lands mid-request.
	m := s.model()
	stampVersion(w, m)
	mode := req.Mode
	if mode == "" {
		mode = modeExact
	}
	switch mode {
	case modeExact, modeApprox:
	default:
		s.lc.Fail(w, http.StatusBadRequest, fmt.Errorf("mode must be %q or %q, got %q", modeExact, modeApprox, req.Mode))
		return
	}
	if req.Nprobe < 0 {
		s.lc.Fail(w, http.StatusBadRequest, fmt.Errorf("nprobe must be non-negative, got %d", req.Nprobe))
		return
	}
	if req.Nprobe > 0 && mode != modeApprox {
		s.lc.Fail(w, http.StatusBadRequest, errors.New("nprobe requires mode approx"))
		return
	}
	nprobe := 0
	if mode == modeApprox {
		if m.ann == nil {
			s.lc.Fail(w, http.StatusBadRequest, errors.New("approximate retrieval is not enabled on this server (-ann-clusters)"))
			return
		}
		// Canonicalize before the cache: nprobe 0 and an explicit default
		// hit the same entries.
		nprobe = m.ann.EffectiveNprobe(req.Nprobe)
	}
	w.Header().Set(retrievalModeHeader, mode)
	mask := m.trainItems != nil
	if req.MaskTrain != nil {
		mask = *req.MaskTrain
	}
	if mask && m.trainItems == nil {
		s.lc.Fail(w, http.StatusBadRequest, errors.New("mask_train requested but the server has no training graph (-train)"))
		return
	}
	for _, u := range users {
		if u < 0 || u >= m.emb.U.Rows {
			s.lc.Fail(w, http.StatusBadRequest, fmt.Errorf("user %d outside [0,%d)", u, m.emb.U.Rows))
			return
		}
	}

	tr := obs.FromContext(r.Context())

	resp := api.RecommendResponse{N: n, Results: make([]api.UserRecommendation, len(users))}
	// Prefill the user ids so a truncated response still names every
	// requested user: unranked slots keep null items. A complete pass
	// overwrites every slot, so complete responses are unchanged.
	for i, u := range users {
		resp.Results[i] = api.UserRecommendation{User: u}
	}
	// Serve cache hits first, then score the misses in one batched pass.
	var missUsers []int
	var missSlots []int
	cacheSp := tr.StartSpan("cache")
	for i, u := range users {
		key := cacheKey(m.version, u, n, mask, mode, nprobe)
		if items, ok := s.cache.get(key); ok {
			s.m.cacheHit.Inc()
			resp.Results[i] = api.UserRecommendation{User: u, Items: items, Cached: true}
			continue
		}
		if s.cache != nil {
			s.m.cacheMiss.Inc()
		}
		missUsers = append(missUsers, u)
		missSlots = append(missSlots, i)
	}
	cacheSp.Set("batch", len(users)).Set("misses", len(missUsers)).End()
	switch {
	case len(missUsers) == 0:
	case mode == modeApprox:
		// Cluster-pruned retrieval: per-user index searches instead of
		// full GEMM rows. The retrieval span aggregates how much of the
		// item side the whole batch actually touched.
		retrSp := tr.StartSpan("retrieval").Set("mode", mode).
			Set("nprobe", nprobe).Set("users", len(missUsers))
		check := checkpoint(r)
		probed, scored := 0, 0
		for mi, u := range missUsers {
			if check != nil {
				if err := check(); err != nil {
					// Budget gone mid-batch: ship what was ranked instead of
					// discarding it — every completed list is still exact.
					resp.Truncated = true
					break
				}
			}
			var skip []int32
			if mask {
				skip = m.trainItems.Of(u)
			}
			ids, scores, st := m.ann.Search(m.emb.U.Row(u), n, ann.Options{
				Nprobe: nprobe, Skip: skip, Int8: m.ann.Int8(),
			})
			probed += st.Probed
			scored += st.Scored
			items := make([]api.ScoredItem, len(ids))
			for j, id := range ids {
				items[j] = api.ScoredItem{Item: id, Score: scores[j]}
			}
			s.cache.add(cacheKey(m.version, u, n, mask, mode, nprobe), items)
			resp.Results[missSlots[mi]] = api.UserRecommendation{User: u, Items: items}
		}
		retrSp.Set("clusters", probed).Set("candidates", scored).End()
	default:
		// Exact lists come from the pruned selector, one user at a time:
		// its bound product reads a (d+1)×|V| block, so batching users
		// into one tile no longer saves a pass over V. Each user's
		// "score.tile" (bound product) and "rank" (scan and rescoring)
		// spans nest under "score".
		work := m.recWork.Get().(*eval.PrunedWork)
		defer m.recWork.Put(work)
		scoreSp := tr.StartSpan("score").Set("users", len(missUsers))
		check := checkpoint(r)
		rescored := 0
		for mi, u := range missUsers {
			if check != nil {
				if err := check(); err != nil {
					if !errors.Is(err, budget.ErrExceeded) {
						s.lc.Fail(w, http.StatusInternalServerError, err)
						return
					}
					// Budget gone mid-batch: the users already ranked carry
					// complete exact lists; ship them as a partial answer.
					resp.Truncated = true
					break
				}
			}
			var skip []int32
			if mask {
				skip = m.trainItems.Of(u)
			}
			ids, scores, st := m.pruned.TopN(r.Context(), work, m.emb.U.Row(u), n, skip)
			rescored += st
			items := make([]api.ScoredItem, len(ids))
			for j, id := range ids {
				items[j] = api.ScoredItem{Item: id, Score: scores[j]}
			}
			s.cache.add(cacheKey(m.version, u, n, mask, mode, nprobe), items)
			resp.Results[missSlots[mi]] = api.UserRecommendation{User: u, Items: items}
		}
		scoreSp.Set("rescored", rescored).End()
	}
	if resp.Truncated {
		s.m.truncated.Inc()
		w.Header().Set(api.TruncatedHeader, "true")
	}
	encodeSp := tr.StartSpan("encode")
	s.lc.WriteJSON(w, http.StatusOK, resp)
	encodeSp.End()
}

// modeExact and modeApprox are the /v1/recommend retrieval paths,
// echoed back in the X-Retrieval-Mode response header.
const (
	modeExact  = "exact"
	modeApprox = "approx"

	retrievalModeHeader = "X-Retrieval-Mode"
)

// cacheKey scopes cached lists to the model version that produced them:
// after a hot swap every lookup misses by construction, so a reload can
// never serve a list ranked by a previous embedding (the purge in Swap
// only frees memory faster). Mode and nprobe are part of the key — an
// approximate list must never answer an exact request, and different
// probe depths rank differently.
func cacheKey(version uint64, user, n int, mask bool, mode string, nprobe int) string {
	return strconv.FormatUint(version, 10) + "|" +
		strconv.Itoa(user) + "|" + strconv.Itoa(n) + "|" + strconv.FormatBool(mask) + "|" +
		mode + "|" + strconv.Itoa(nprobe)
}

// --- /v1/similar ---------------------------------------------------

type similarResponse struct {
	Side      string           `json:"side"`
	ID        int              `json:"id"`
	Neighbors []api.ScoredItem `json:"neighbors"`
}

// handleSimilar ranks same-side neighbors by cosine similarity:
// normalized dot products over the precomputed row norms. Query
// parameters: side (u|v, default u), id (required), n.
func (s *Server) handleSimilar(w http.ResponseWriter, r *http.Request) {
	m := s.model()
	stampVersion(w, m)
	q := r.URL.Query()
	side := q.Get("side")
	if side == "" {
		side = "u"
	}
	var pool *sync.Pool
	var norms []float64
	switch side {
	case "u":
		pool, norms = &m.uSimScorers, m.uNorms
	case "v":
		pool, norms = &m.vSimScorers, m.vNorms
	default:
		s.lc.Fail(w, http.StatusBadRequest, fmt.Errorf("side must be u or v, got %q", side))
		return
	}
	id, err := strconv.Atoi(q.Get("id"))
	if err != nil {
		s.lc.Fail(w, http.StatusBadRequest, fmt.Errorf("id is required and must be an integer: %q", q.Get("id")))
		return
	}
	if id < 0 || id >= len(norms) {
		s.lc.Fail(w, http.StatusBadRequest, fmt.Errorf("%s id %d outside [0,%d)", side, id, len(norms)))
		return
	}
	n := 0
	if raw := q.Get("n"); raw != "" {
		if n, err = strconv.Atoi(raw); err != nil {
			s.lc.Fail(w, http.StatusBadRequest, fmt.Errorf("bad n %q", raw))
			return
		}
	}
	if n, err = s.limits.ClampN(n); err != nil {
		s.lc.Fail(w, http.StatusBadRequest, err)
		return
	}

	tr := obs.FromContext(r.Context())
	sc := pool.Get().(*eval.Scorer)
	defer pool.Put(sc)
	resp := similarResponse{Side: side, ID: id}
	scoreSp := tr.StartSpan("score").Set("side", side).Set("n", n)
	err = sc.ScoreCtx(r.Context(), []int{id}, checkpoint(r), func(_ int, scores []float64) {
		rankSp := tr.StartSpan("rank")
		for j := range scores {
			// Zero-norm rows are isolated vertices: their all-zero embedding
			// has no direction, so cosine against anything is defined as 0
			// here — never NaN/Inf in the JSON (which encoding/json would
			// reject wholesale). The non-finite check also catches subnormal
			// denominators overflowing the division.
			c := 0.0
			if d := norms[id] * norms[j]; d > 0 {
				c = scores[j] / d
				if math.IsNaN(c) || math.IsInf(c, 0) {
					c = 0
				}
			}
			scores[j] = c
		}
		// The query vertex is left out of its own neighbor list.
		self := [1]int32{int32(id)}
		ids := eval.TopNExcluding(scores, n, self[:])
		resp.Neighbors = make([]api.ScoredItem, len(ids))
		for j, nid := range ids {
			resp.Neighbors[j] = api.ScoredItem{Item: nid, Score: scores[nid]}
		}
		rankSp.End()
	})
	scoreSp.End()
	if err != nil {
		s.failBudget(w, err)
		return
	}
	encodeSp := tr.StartSpan("encode")
	s.lc.WriteJSON(w, http.StatusOK, resp)
	encodeSp.End()
}

// --- /v1/score -----------------------------------------------------

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	var req api.ScoreRequest
	if _, err := api.Read(r, &req, s.limits); err != nil {
		s.lc.Fail(w, http.StatusBadRequest, err)
		return
	}
	m := s.model()
	stampVersion(w, m)
	if err := req.CheckRange(m.emb.U.Rows, m.emb.V.Rows); err != nil {
		s.lc.Fail(w, http.StatusBadRequest, err)
		return
	}
	tr := obs.FromContext(r.Context())
	check := checkpoint(r)
	out := api.ScoreResponse{Scores: make([]float64, len(req.Pairs))}
	scoreSp := tr.StartSpan("score").Set("pairs", len(req.Pairs))
	for i, p := range req.Pairs {
		if i%1024 == 0 && check != nil {
			if err := check(); err != nil {
				scoreSp.End()
				s.failBudget(w, err)
				return
			}
		}
		out.Scores[i] = m.emb.Score(p[0], p[1])
	}
	scoreSp.End()
	encodeSp := tr.StartSpan("encode")
	s.lc.WriteJSON(w, http.StatusOK, out)
	encodeSp.End()
}

// --- /v1/healthz and /v1/info --------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	stampVersion(w, s.model())
	s.lc.WriteJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": s.lc.Uptime().Seconds(),
	})
}

// handleInfo reports the embedding header plus the solver diagnostics
// the TSV #meta lines carry — the ops-facing identity of what this
// process is serving — and the binary's build provenance, so a trace or
// latency snapshot pulled from this process is attributable to the
// exact commit and toolchain serving it.
func (s *Server) handleInfo(w http.ResponseWriter, _ *http.Request) {
	m := s.model()
	stampVersion(w, m)
	var annInfo map[string]any
	if m.ann != nil {
		annInfo = map[string]any{
			"clusters":       m.ann.Clusters(),
			"default_nprobe": m.ann.DefaultNprobe(),
			"int8":           m.ann.Int8(),
			"build_seconds":  m.ann.BuildSeconds(),
			"iters":          m.ann.Iters(),
			"assign_skipped": m.ann.AssignSkipped(),
		}
	}
	// The exact path's pruned selector: d = 0 means it cannot prune this
	// embedding and every exact miss scores all items.
	prunedInfo := map[string]any{
		"dims":        m.pruned.Dims(),
		"head_energy": m.pruned.HeadEnergy(),
	}
	// A sharded server advertises which slice of the item side it holds;
	// the coordinator reads this block to build its id-remapping tables.
	var shardInfo map[string]any
	if m.emb.Sharded() {
		shardInfo = map[string]any{
			"index":  m.emb.ShardIndex,
			"count":  m.emb.ShardCount,
			"offset": m.emb.ShardOffset,
			"total":  m.emb.ShardTotal,
		}
	}
	s.lc.WriteJSON(w, http.StatusOK, map[string]any{
		"ann":            annInfo,
		"pruned":         prunedInfo,
		"shard":          shardInfo,
		"build":          obs.BuildInfo(),
		"model_version":  m.version,
		"model_loaded":   m.loaded.UTC().Format(time.RFC3339),
		"method":         m.emb.Method,
		"users":          m.emb.U.Rows,
		"items":          m.emb.V.Rows,
		"k":              m.emb.K(),
		"sigma_scale":    m.emb.SigmaScale,
		"sweeps":         m.emb.Sweeps,
		"sweeps_saved":   m.emb.SweepsSaved,
		"converged":      m.emb.Converged,
		"warm_start":     m.emb.WarmStarted,
		"stop_reason":    m.emb.StopReason,
		"values":         len(m.emb.Values),
		"train_edges":    m.trainEdges,
		"cache_size":     s.cfg.CacheSize,
		"cache_len":      s.cache.len(),
		"max_inflight":   s.cfg.MaxInflight,
		"deadline_ms":    s.cfg.Deadline.Milliseconds(),
		"trace_requests": s.lc.Traces().Cap(),
	})
}

// --- /v1/reload ----------------------------------------------------

type reloadResponse struct {
	ModelVersion uint64 `json:"model_version"`
	Method       string `json:"method"`
	Users        int    `json:"users"`
	Items        int    `json:"items"`
	K            int    `json:"k"`
	WarmStart    bool   `json:"warm_start"`
}

// handleReload hot-swaps the served model through the configured loader.
// Drain-free by design: the swap is one pointer store, in-flight
// requests finish on their snapshot, and the endpoint bypasses the load
// shedder so an overloaded server can still be given a fresh model. The
// X-Model-Version header and the body carry the new version.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Reload == nil {
		s.lc.Fail(w, http.StatusNotImplemented, errors.New("reload is not configured on this server"))
		return
	}
	if s.cfg.AdminToken != "" && r.Header.Get("X-Admin-Token") != s.cfg.AdminToken {
		s.lc.Fail(w, http.StatusForbidden, errors.New("reload requires a valid X-Admin-Token"))
		return
	}
	v, err := s.Reload()
	if err != nil {
		s.lc.Fail(w, http.StatusInternalServerError, err)
		return
	}
	m := s.model()
	stampVersion(w, m)
	s.lc.WriteJSON(w, http.StatusOK, reloadResponse{
		ModelVersion: v,
		Method:       m.emb.Method,
		Users:        m.emb.U.Rows,
		Items:        m.emb.V.Rows,
		K:            m.emb.K(),
		WarmStart:    m.emb.WarmStarted,
	})
}

// stampVersion puts the serving snapshot's version on the response, so
// every answer is attributable to the exact model that produced it.
func stampVersion(w http.ResponseWriter, m *model) {
	w.Header().Set("X-Model-Version", strconv.FormatUint(m.version, 10))
}

// --- shared helpers ------------------------------------------------

// failBudget maps a blown per-request budget to 503 + Retry-After; any
// other scoring error is a 500.
func (s *Server) failBudget(w http.ResponseWriter, err error) {
	if errors.Is(err, budget.ErrExceeded) {
		s.m.deadlines.Inc()
		w.Header().Set("Retry-After", "1")
		s.lc.Fail(w, http.StatusServiceUnavailable, fmt.Errorf("request budget exceeded (%s)", s.cfg.Deadline))
		return
	}
	s.lc.Fail(w, http.StatusInternalServerError, err)
}

// LatencySnapshot captures the server's current latency state.
func (s *Server) LatencySnapshot() api.LatencySnapshot {
	return s.lc.Snapshot(map[string]float64{
		"shed":       s.lc.Shed(),
		"deadline":   s.m.deadlines.Value(),
		"cache_hit":  s.m.cacheHit.Value(),
		"cache_miss": s.m.cacheMiss.Value(),
	})
}
