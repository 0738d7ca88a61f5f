package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"gebe/internal/api"
	"gebe/internal/budget"
	"gebe/internal/eval"
	"gebe/internal/obs"
)

// Config parameterizes a Coordinator. Shards is required; everything
// else defaults to match an unsharded gebe-serve, which is what makes
// the full-health gather bitwise-identical to a single server.
type Config struct {
	// Shards lists the shard base URLs (e.g. "http://127.0.0.1:8091"),
	// one gebe-serve process per entry. Order is irrelevant — each shard
	// self-describes its row slice via /v1/info.
	Shards []string
	// Deadline bounds one coordinator request end to end; the remaining
	// budget is propagated to every shard call as X-Gebe-Deadline-Ms.
	// 0 disables it.
	Deadline time.Duration
	// HedgeAfter launches a second identical shard request when the
	// first has not answered after this long; first answer wins, the
	// loser is context-cancelled. 0 disables hedging.
	HedgeAfter time.Duration
	// ProbeInterval is the background health-probe period (default 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round-trip (default 500ms).
	ProbeTimeout time.Duration
	// FailAfter is the consecutive-failure count that ejects a shard
	// from the healthy set (default 2). Probes and scatter calls both
	// count; a successful probe readmits.
	FailAfter int
	// DefaultN, MaxN, MaxBatch mirror the serve limits; they MUST match
	// the shard configuration for merged responses to be identical to an
	// unsharded server's.
	DefaultN int
	MaxN     int
	MaxBatch int
	// TraceRequests sets the trace retention ring size, as in serve.
	TraceRequests int
	// AdminToken gates POST /v1/reload on the coordinator and is
	// forwarded to every shard's reload.
	AdminToken string
	// Metrics receives the coord_*/shard_* instrumentation; nil selects
	// the process-wide default registry.
	Metrics *obs.Registry
	// Log receives coordinator logging; nil disables it.
	Log *obs.Logger
}

// Coordinator fronts a fleet of item-sharded gebe-serve processes
// behind the unsharded /v1 API: it scatters each query to every healthy
// shard under the request's remaining deadline, gathers the per-shard
// top-N lists, remaps shard-local item ids to global ones, and merges
// through eval.TopNHeap — the same selection core the shards themselves
// rank with, so a full-health merge reproduces a single unsharded
// server bit for bit.
type Coordinator struct {
	cfg    Config
	lc     *api.Lifecycle
	limits api.Limits
	shards []*shardState

	stop context.CancelFunc

	m coordMetrics
}

type coordMetrics struct {
	truncated       *obs.Counter
	infoRejected    *obs.Counter
	answersRejected *obs.Counter
	healthyShards   *obs.Gauge
	versionMismatch *obs.Gauge
	ejections       *obs.Counter
	readmissions    *obs.Counter
	probeFailures   *obs.Counter
	scatterCalls    *obs.Counter
	scatterFailures *obs.Counter
	hedges          *obs.Counter
	retries         *obs.Counter
}

// New builds a Coordinator and synchronously probes every shard once,
// so the first request already sees a live topology. Call Start to run
// the background prober and Close to stop it.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("shard: coordinator needs at least one shard URL")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 500 * time.Millisecond
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 2
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.DefaultRegistry()
	}
	// The coordinator does not shed (MaxInflight 0): it does ~no compute,
	// and backpressure belongs on the shards, whose 429s degrade a gather
	// the same way any shard error does.
	c := &Coordinator{
		cfg:    cfg,
		limits: api.Limits{DefaultN: cfg.DefaultN, MaxN: cfg.MaxN, MaxBatch: cfg.MaxBatch}.WithDefaults(),
		lc: api.New(api.Settings{
			Component: "coord", Deadline: cfg.Deadline,
			TraceRequests: cfg.TraceRequests, Metrics: cfg.Metrics, Log: cfg.Log,
		}),
	}
	r := cfg.Metrics
	c.m = coordMetrics{
		truncated:       r.Counter("coord_truncated_total", "gathers answered partially (shard down, failed, or shard-side truncation)"),
		infoRejected:    r.Counter("shard_info_rejected_total", "shard /v1/info bodies rejected as malformed or inconsistent (the shard stays unknown)"),
		answersRejected: r.Counter("shard_answer_rejected_total", "shard /v1/recommend answers rejected by the gather (wrong users, item ids out of range, non-finite scores)"),
		healthyShards:   r.Gauge("shard_healthy", "shards currently in the healthy set"),
		versionMismatch: r.Gauge("shard_version_mismatch", "1 when healthy shards disagree on model version (coordinator not ready)"),
		ejections:       r.Counter("shard_unhealthy_total", "shard ejections from the healthy set"),
		readmissions:    r.Counter("shard_readmit_total", "ejected shards readmitted by a successful probe"),
		probeFailures:   r.Counter("shard_probe_failures_total", "failed shard probes and scatter calls"),
		scatterCalls:    r.Counter("shard_scatter_calls_total", "shard calls issued by scatters"),
		scatterFailures: r.Counter("shard_scatter_failures_total", "shard calls that failed after retry/hedging"),
		hedges:          r.Counter("shard_hedge_total", "hedged second requests launched"),
		retries:         r.Counter("shard_retry_total", "transport-error retries launched"),
	}
	cm := &clientMetrics{hedges: c.m.hedges, retries: c.m.retries}
	hc := &http.Client{} // per-call contexts bound every request; no global timeout
	c.shards = make([]*shardState, len(cfg.Shards))
	for i, addr := range cfg.Shards {
		c.shards[i] = &shardState{
			addr:   addr,
			client: &Client{addr: addr, hc: hc, hedgeAfter: cfg.HedgeAfter, m: cm},
		}
	}
	c.probeAll(context.Background())
	return c, nil
}

// Start launches the background health prober.
func (c *Coordinator) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	c.stop = cancel
	go c.prober(ctx)
}

// Close stops the background prober (if started).
func (c *Coordinator) Close() {
	if c.stop != nil {
		c.stop()
	}
}

// Handler returns the coordinator's serving surface: the same /v1
// routes an unsharded gebe-serve exposes, wrapped in the shared request
// lifecycle, plus /debug/requests when tracing is on. Deadline stamping
// runs before the mux so the context deadline bounds the whole scatter;
// scatterHeaders re-derives the remaining budget at fan-out time, so
// shard calls never get more time than the coordinator has left.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/recommend", c.lc.Instrument("recommend", c.handleRecommend))
	mux.Handle("GET /v1/similar", c.lc.Instrument("similar", c.handleSimilar))
	mux.Handle("POST /v1/score", c.lc.Instrument("score", c.handleScore))
	mux.Handle("GET /v1/healthz", c.lc.Instrument("healthz", c.handleHealthz))
	mux.Handle("GET /v1/info", c.lc.Instrument("info", c.handleInfo))
	mux.Handle("POST /v1/reload", c.lc.Instrument("reload", c.handleReload))
	return c.lc.Handler(mux)
}

// healthyShards returns a stable snapshot of the currently healthy,
// identity-known shards.
func (c *Coordinator) healthyShards() []snapshotState {
	out := make([]snapshotState, 0, len(c.shards))
	for _, s := range c.shards {
		st := s.snapshot()
		if st.healthy && st.known {
			out = append(out, st)
		}
	}
	return out
}

// scatterHeaders builds the headers every shard call carries: the
// propagated request id and the remaining deadline in milliseconds.
func scatterHeaders(r *http.Request) http.Header {
	h := http.Header{}
	if id := r.Header.Get("X-Request-ID"); id != "" {
		h.Set("X-Request-ID", id)
	}
	if dl, ok := r.Context().Deadline(); ok {
		ms := budget.Remaining(dl).Milliseconds()
		h.Set(api.DeadlineHeader, strconv.FormatInt(ms, 10))
	}
	return h
}

// shardCall is one gathered shard result.
type shardCall struct {
	shard snapshotState
	resp  *Response
	err   error
}

// scatter POSTs the JSON bodies[i] to shards[i], all concurrently, and
// gathers every result. Each shard call is hedged/retried by its
// Client; a call that still fails counts toward the shard's ejection
// threshold. The parent span gets one detached child per shard, so
// concurrent shard spans cannot close each other.
func (c *Coordinator) scatter(r *http.Request, shards []snapshotState, path string, bodies [][]byte, parent *obs.Span) []shardCall {
	hdr := scatterHeaders(r)
	hdr.Set("Content-Type", "application/json")
	calls := make([]shardCall, len(shards))
	var wg sync.WaitGroup
	for i, st := range shards {
		wg.Add(1)
		go func(i int, st snapshotState) {
			defer wg.Done()
			sp := parent.StartChild("shard").Set("addr", st.addr)
			c.m.scatterCalls.Inc()
			resp, err := st.src.client.Do(r.Context(), http.MethodPost, path, hdr, bodies[i])
			calls[i] = shardCall{shard: st, resp: resp, err: err}
			if err != nil {
				c.m.scatterFailures.Inc()
				c.noteFailure(st.src, err)
				sp.Set("err", err.Error())
			} else {
				sp.Set("status", resp.Status)
			}
			sp.End()
		}(i, st)
	}
	wg.Wait()
	return calls
}

// --- /v1/recommend -------------------------------------------------

// handleRecommend validates what needs no model, then forwards the
// body to every shard verbatim — the model-dependent checks (user
// range, mode, nprobe, mask_train) happen shard-side and their 400s are
// proxied.
func (c *Coordinator) handleRecommend(w http.ResponseWriter, r *http.Request) {
	var req api.RecommendRequest
	body, err := api.Read(r, &req, c.limits)
	if err != nil {
		c.lc.Fail(w, http.StatusBadRequest, err)
		return
	}
	users, n := req.Users, req.N
	shards := c.healthyShards()
	if len(shards) == 0 {
		c.failUnavailable(w, errors.New("no healthy shards"))
		return
	}
	c.stampVersion(w, shards)

	tr := obs.FromContext(r.Context())
	scatterSp := tr.StartSpan("scatter").Set("shards", len(shards)).Set("users", len(users))
	bodies := make([][]byte, len(shards))
	for i := range bodies {
		bodies[i] = body
	}
	calls := c.scatter(r, shards, "/v1/recommend", bodies, scatterSp)
	scatterSp.End()

	// Classify: a 400 means the request itself is bad — every shard saw
	// the same bytes, so the first 400 is THE answer, proxied verbatim.
	gathered := make([]*api.RecommendResponse, 0, len(calls))
	truncated := len(calls) < len(c.shards) // ejected shards contribute nothing
	for _, call := range calls {
		switch {
		case call.err != nil:
			truncated = true
		case call.resp.Status == http.StatusBadRequest:
			c.proxyResponse(w, call.resp)
			return
		case call.resp.Status != http.StatusOK:
			truncated = true
		default:
			sr, err := decodeAnswer(call.resp.Body, users, call.shard.rows, call.shard.offset)
			if err != nil {
				// An answer the merge cannot trust counts as a failed call.
				truncated = true
				c.m.answersRejected.Inc()
				c.noteFailure(call.shard.src, err)
				continue
			}
			if sr.Truncated {
				truncated = true
			}
			gathered = append(gathered, sr)
		}
	}
	if len(gathered) == 0 {
		c.failUnavailable(w, errors.New("all shards failed"))
		return
	}

	gatherSp := tr.StartSpan("gather").Set("responses", len(gathered))
	resp := api.RecommendResponse{N: n, Results: make([]api.UserRecommendation, len(users))}
	var heap eval.TopNHeap
	for i, u := range users {
		resp.Results[i] = api.UserRecommendation{User: u}
		heap.Reset(n)
		contributed := 0
		for _, sr := range gathered {
			if i >= len(sr.Results) || sr.Results[i].Items == nil {
				// This shard's answer is missing the user (shard-side
				// truncation); the merged list is incomplete.
				truncated = true
				continue
			}
			contributed++
			for _, it := range sr.Results[i].Items {
				heap.Push(it.Item, it.Score)
			}
		}
		if contributed == 0 {
			continue // prefilled null items mark the user unanswered
		}
		ids, scores := heap.Ranked()
		items := make([]api.ScoredItem, len(ids))
		for j := range ids {
			items[j] = api.ScoredItem{Item: ids[j], Score: scores[j]}
		}
		resp.Results[i].Items = items
	}
	resp.Truncated = truncated
	gatherSp.Set("truncated", truncated).End()
	if truncated {
		c.m.truncated.Inc()
		w.Header().Set(api.TruncatedHeader, "true")
	}
	c.lc.WriteJSON(w, http.StatusOK, resp)
}

// decodeAnswer decodes one shard's /v1/recommend body and remaps its
// shard-local item ids to global rows (local + offset). The gather
// merges results by position, so it rejects an answer that lists more
// users than asked or a user other than users[i] at position i, an item
// id outside the shard's [0, rows), or a non-finite score.
func decodeAnswer(body []byte, users []int, rows, offset int) (*api.RecommendResponse, error) {
	var sr api.RecommendResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return nil, fmt.Errorf("shard answer: %w", err)
	}
	if len(sr.Results) > len(users) {
		return nil, fmt.Errorf("shard answer: %d results for %d users", len(sr.Results), len(users))
	}
	for i, ur := range sr.Results {
		if ur.User != users[i] {
			return nil, fmt.Errorf("shard answer: result %d is user %d, asked %d", i, ur.User, users[i])
		}
		for j, it := range ur.Items {
			if it.Item < 0 || it.Item >= rows {
				return nil, fmt.Errorf("shard answer: item %d outside the shard's %d rows", it.Item, rows)
			}
			if math.IsNaN(it.Score) || math.IsInf(it.Score, 0) {
				return nil, fmt.Errorf("shard answer: item %d scored %v", it.Item, it.Score)
			}
			ur.Items[j].Item += offset
		}
	}
	return &sr, nil
}

// --- /v1/similar ---------------------------------------------------

// handleSimilar proxies side=u queries to one healthy shard verbatim —
// every shard holds the full user matrix, so any shard's answer (its
// 400s included) is the unsharded answer byte for byte. side=v would need a cross-shard
// cosine gather over rows no single process holds; it is explicitly
// unimplemented on a sharded deployment (501).
func (c *Coordinator) handleSimilar(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("side") == "v" {
		c.lc.Fail(w, http.StatusNotImplemented,
			errors.New("item-side similarity is not available on a sharded deployment (items are partitioned across shards)"))
		return
	}
	shards := c.healthyShards()
	if len(shards) == 0 {
		c.failUnavailable(w, errors.New("no healthy shards"))
		return
	}
	tr := obs.FromContext(r.Context())
	path := r.URL.Path
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	hdr := scatterHeaders(r)
	// One shard suffices; walk the healthy set until one answers.
	for _, st := range shards {
		sp := tr.StartSpan("proxy").Set("addr", st.addr)
		c.m.scatterCalls.Inc()
		resp, err := st.src.client.Do(r.Context(), http.MethodGet, path, hdr, nil)
		sp.End()
		if err != nil {
			c.m.scatterFailures.Inc()
			c.noteFailure(st.src, err)
			continue
		}
		c.proxyResponse(w, resp)
		return
	}
	c.failUnavailable(w, errors.New("all shards failed"))
}

// --- /v1/score -----------------------------------------------------

// handleScore routes each pair to the shard owning its item row. A
// complete answer is byte-identical to an unsharded server's; pairs
// whose shard is down come back as 0 and are listed in "missing".
func (c *Coordinator) handleScore(w http.ResponseWriter, r *http.Request) {
	var req api.ScoreRequest
	if _, err := api.Read(r, &req, c.limits); err != nil {
		c.lc.Fail(w, http.StatusBadRequest, err)
		return
	}
	shards := c.healthyShards()
	if len(shards) == 0 {
		c.failUnavailable(w, errors.New("no healthy shards"))
		return
	}
	c.stampVersion(w, shards)
	// Check ranges against the whole fleet before scattering; shards only
	// ever see their own (in-range) rows.
	if err := req.CheckRange(c.dimensions(shards)); err != nil {
		c.lc.Fail(w, http.StatusBadRequest, err)
		return
	}

	// Group pairs by owning shard, remapping item ids to local rows;
	// indices maps each group's pairs back to request slots.
	type group struct {
		pairs   [][2]int
		indices []int
	}
	var owners []snapshotState
	var groups []*group
	var missing []int
	for i, p := range req.Pairs {
		owner := ownerOf(shards, p[1])
		if owner == nil {
			missing = append(missing, i)
			continue
		}
		k := slices.IndexFunc(owners, func(o snapshotState) bool { return o.addr == owner.addr })
		if k < 0 {
			k = len(owners)
			owners, groups = append(owners, *owner), append(groups, &group{})
		}
		groups[k].pairs = append(groups[k].pairs, [2]int{p[0], p[1] - owner.offset})
		groups[k].indices = append(groups[k].indices, i)
	}
	bodies := make([][]byte, len(groups))
	for k, g := range groups {
		bodies[k], _ = json.Marshal(api.ScoreRequest{Pairs: g.pairs})
	}

	tr := obs.FromContext(r.Context())
	scatterSp := tr.StartSpan("scatter").Set("shards", len(owners)).Set("pairs", len(req.Pairs))
	calls := c.scatter(r, owners, "/v1/score", bodies, scatterSp)
	scatterSp.End()
	resp := api.ScoreResponse{Scores: make([]float64, len(req.Pairs))}
	for k, call := range calls {
		if call.err == nil && call.resp.Status == http.StatusBadRequest {
			c.proxyResponse(w, call.resp)
			return
		}
		var out api.ScoreResponse
		if call.err != nil || call.resp.Status != http.StatusOK ||
			json.Unmarshal(call.resp.Body, &out) != nil || len(out.Scores) != len(groups[k].pairs) {
			missing = append(missing, groups[k].indices...)
			continue
		}
		for j, idx := range groups[k].indices {
			resp.Scores[idx] = out.Scores[j]
		}
	}
	if len(missing) == len(req.Pairs) {
		c.failUnavailable(w, errors.New("all shards failed"))
		return
	}
	if len(missing) > 0 {
		slices.Sort(missing)
		resp.Missing = missing
		resp.Truncated = true
		c.m.truncated.Inc()
		w.Header().Set(api.TruncatedHeader, "true")
	}
	c.lc.WriteJSON(w, http.StatusOK, resp)
}

// ownerOf finds the healthy shard whose row slice covers global item v.
func ownerOf(shards []snapshotState, v int) *snapshotState {
	for i := range shards {
		if v >= shards[i].offset && v < shards[i].offset+shards[i].rows {
			return &shards[i]
		}
	}
	return nil
}

// dimensions returns the fleet's (users, total items) as advertised by
// the healthy shards.
func (c *Coordinator) dimensions(shards []snapshotState) (users, total int) {
	for _, st := range shards {
		if st.users > users {
			users = st.users
		}
		if st.total > total {
			total = st.total
		}
	}
	return users, total
}

// --- /v1/healthz and /v1/info --------------------------------------

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	healthy, mismatch := c.agreement()
	switch {
	case healthy == 0:
		c.failUnavailable(w, errors.New("no healthy shards"))
	case mismatch:
		c.failUnavailable(w, errors.New("healthy shards disagree on model version (run /v1/reload)"))
	default:
		status := "ok"
		if healthy < len(c.shards) {
			status = "degraded"
		}
		c.lc.WriteJSON(w, http.StatusOK, map[string]any{
			"status":         status,
			"shards_healthy": healthy,
			"shards_total":   len(c.shards),
			"uptime_seconds": c.lc.Uptime().Seconds(),
		})
	}
}

func (c *Coordinator) handleInfo(w http.ResponseWriter, _ *http.Request) {
	shards := make([]map[string]any, len(c.shards))
	for i, s := range c.shards {
		st := s.snapshot()
		shards[i] = map[string]any{
			"addr":          st.addr,
			"healthy":       st.healthy,
			"model_version": st.version,
			"offset":        st.offset,
			"rows":          st.rows,
		}
		if st.lastErr != "" {
			shards[i]["last_error"] = st.lastErr
		}
	}
	healthy, mismatch := c.agreement()
	users, total := c.dimensions(c.healthyShards())
	c.lc.WriteJSON(w, http.StatusOK, map[string]any{
		"build":            obs.BuildInfo(),
		"shards":           shards,
		"shards_healthy":   healthy,
		"shards_total":     len(c.shards),
		"version_mismatch": mismatch,
		"users":            users,
		"items":            total,
		"deadline_ms":      c.cfg.Deadline.Milliseconds(),
		"hedge_after_ms":   c.cfg.HedgeAfter.Milliseconds(),
	})
}

// --- /v1/reload ----------------------------------------------------

// handleReload fans the reload out to EVERY shard — healthy or not;
// a version-lagging ejected shard is exactly the one that needs the
// new model — then reprobes so version agreement recovers immediately.
func (c *Coordinator) handleReload(w http.ResponseWriter, r *http.Request) {
	if c.cfg.AdminToken != "" && r.Header.Get("X-Admin-Token") != c.cfg.AdminToken {
		c.lc.Fail(w, http.StatusForbidden, errors.New("reload requires a valid X-Admin-Token"))
		return
	}
	tr := obs.FromContext(r.Context())
	hdr := scatterHeaders(r)
	if tok := r.Header.Get("X-Admin-Token"); tok != "" {
		hdr.Set("X-Admin-Token", tok)
	}
	type shardReload struct {
		Addr         string `json:"addr"`
		Ok           bool   `json:"ok"`
		ModelVersion uint64 `json:"model_version,omitempty"`
		Error        string `json:"error,omitempty"`
	}
	results := make([]shardReload, len(c.shards))
	fanSp := tr.StartSpan("reload_fanout").Set("shards", len(c.shards))
	var wg sync.WaitGroup
	for i, s := range c.shards {
		wg.Add(1)
		go func(i int, s *shardState) {
			defer wg.Done()
			sp := fanSp.StartChild("shard").Set("addr", s.addr)
			defer sp.End()
			resp, err := s.client.Do(r.Context(), http.MethodPost, "/v1/reload", hdr, nil)
			res := shardReload{Addr: s.addr}
			if err != nil {
				res.Error = err.Error()
			} else if resp.Status != http.StatusOK {
				res.Error = fmt.Sprintf("status %d: %s", resp.Status, truncateBody(resp.Body))
			} else {
				var rr struct {
					ModelVersion uint64 `json:"model_version"`
				}
				if jerr := json.Unmarshal(resp.Body, &rr); jerr != nil {
					res.Error = jerr.Error()
				} else {
					res.Ok, res.ModelVersion = true, rr.ModelVersion
				}
			}
			results[i] = res
		}(i, s)
	}
	wg.Wait()
	fanSp.End()
	// Reprobe so the agreement gauge and offsets reflect the new fleet
	// state before the response lands, then reconcile any version skew
	// the fan-out could not erase on its own.
	c.probeAll(r.Context())
	c.reconcile(r.Context(), hdr)
	ok := true
	for _, res := range results {
		ok = ok && res.Ok
	}
	code := http.StatusOK
	if !ok {
		code = http.StatusBadGateway
	}
	c.lc.WriteJSON(w, code, map[string]any{"ok": ok, "shards": results})
}

// reconcile repairs version skew a single fan-out cannot: a shard's
// version is its per-process swap counter, not a content hash, so a
// restarted shard trails the fleet even after reloading once. Each
// round reloads only the healthy shards trailing the fleet maximum —
// every reload serves the same latest model file, so converging the
// counters converges the content — and stops as soon as the healthy
// set agrees (or after a bounded number of rounds, leaving readiness
// failing honestly).
func (c *Coordinator) reconcile(ctx context.Context, hdr http.Header) {
	const maxRounds = 16
	for range maxRounds {
		if _, mismatch := c.agreement(); !mismatch {
			return
		}
		var max uint64
		for _, s := range c.shards {
			if st := s.snapshot(); st.healthy {
				if v, err := strconv.ParseUint(st.version, 10, 64); err == nil && v > max {
					max = v
				}
			}
		}
		advanced := false
		for _, s := range c.shards {
			st := s.snapshot()
			if !st.healthy {
				continue
			}
			if v, err := strconv.ParseUint(st.version, 10, 64); err != nil || v >= max {
				continue
			}
			if resp, err := s.client.Do(ctx, http.MethodPost, "/v1/reload", hdr, nil); err == nil && resp.Status == http.StatusOK {
				advanced = true
			}
		}
		c.probeAll(ctx)
		if !advanced {
			return
		}
	}
}

// --- shared helpers ------------------------------------------------

// proxyResponse relays a shard response verbatim: status, body bytes,
// and the serve headers that matter to clients. Used where one shard's
// answer IS the coordinator's answer (similar proxy, propagated 400s).
func (c *Coordinator) proxyResponse(w http.ResponseWriter, resp *Response) {
	for _, k := range []string{"Content-Type", "X-Model-Version", "X-Retrieval-Mode", "Retry-After", api.TruncatedHeader} {
		if v := resp.Header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(resp.Status)
	w.Write(resp.Body)
}

// stampVersion puts the fleet's agreed model version on the response
// when the healthy shards agree; on disagreement the header is omitted
// (and readiness is already failing).
func (c *Coordinator) stampVersion(w http.ResponseWriter, shards []snapshotState) {
	if len(shards) == 0 {
		return
	}
	v := shards[0].version
	for _, st := range shards[1:] {
		if st.version != v {
			return
		}
	}
	w.Header().Set("X-Model-Version", v)
}

// failUnavailable is the coordinator's 503: the fleet cannot answer at
// all (every shard down or the topology inconsistent). Partial fleet
// failures never land here — they degrade to truncated 200s.
func (c *Coordinator) failUnavailable(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", "1")
	c.lc.Fail(w, http.StatusServiceUnavailable, err)
}

func truncateBody(b []byte) string {
	const max = 256
	if len(b) > max {
		b = b[:max]
	}
	return string(b)
}

// LatencySnapshot captures the coordinator's latency state in the
// schema serve emits, so cmd/gebe-regress gates
// results/COORD_LATENCY.json with the same latency mode.
func (c *Coordinator) LatencySnapshot() api.LatencySnapshot {
	return c.lc.Snapshot(map[string]float64{
		"truncated":        c.m.truncated.Value(),
		"shard_unhealthy":  c.m.ejections.Value(),
		"shard_readmit":    c.m.readmissions.Value(),
		"shard_hedge":      c.m.hedges.Value(),
		"shard_retry":      c.m.retries.Value(),
		"scatter_calls":    c.m.scatterCalls.Value(),
		"scatter_failures": c.m.scatterFailures.Value(),
	})
}
