package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gebe/internal/ann"
	"gebe/internal/api"
	"gebe/internal/bigraph"
	"gebe/internal/budget"
	"gebe/internal/core"
	"gebe/internal/dense"
	"gebe/internal/eval"
	"gebe/internal/obs"
)

// testEmbedding builds a small deterministic embedding plus a training
// graph whose edges give a few users non-empty exclusion sets.
func testEmbedding(t testing.TB) (*core.Embedding, *bigraph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewPCG(42, 0))
	emb := &core.Embedding{
		U:      dense.Random(20, 8, rng),
		V:      dense.Random(35, 8, rng),
		Method: "gebep",
		// Distinctive diagnostics so /v1/info has something to report.
		SigmaScale: 1.5, Sweeps: 7, Converged: true, StopReason: "converged",
	}
	edges := []bigraph.Edge{
		{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 1}, {U: 0, V: 3, W: 1},
		{U: 5, V: 10, W: 1}, {U: 5, V: 11, W: 2},
	}
	g, err := bigraph.New(20, 35, edges)
	if err != nil {
		t.Fatal(err)
	}
	return emb, g
}

// newTestServer builds a Server with its own registry (no cross-test
// metric pollution) and returns it with the registry for assertions.
func newTestServer(t *testing.T, cfg Config) (*Server, *obs.Registry) {
	t.Helper()
	emb, g := testEmbedding(t)
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	s, err := New(emb, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, reg
}

func postJSON(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	return w
}

func decode[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(w.Body).Decode(&v); err != nil {
		t.Fatalf("decoding %q: %v", w.Body.String(), err)
	}
	return v
}

func TestRecommendMatchesEvalScorer(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	w := postJSON(t, h, "/v1/recommend", `{"users":[0,5,7],"n":6}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	resp := decode[api.RecommendResponse](t, w)
	if resp.N != 6 || len(resp.Results) != 3 {
		t.Fatalf("response shape: %+v", resp)
	}
	// The served list must match the eval scorer exactly: same ids, same
	// scores, training items masked (the server has a training graph, so
	// mask_train defaults to true).
	sc := eval.NewScorer(s.model().emb.U, s.model().emb.V)
	for i, user := range []int{0, 5, 7} {
		ids, scores := sc.TopN(user, 6, s.model().trainItems[user])
		got := resp.Results[i]
		if got.User != user || len(got.Items) != len(ids) {
			t.Fatalf("user %d: got %+v want ids %v", user, got, ids)
		}
		for j := range ids {
			if got.Items[j].Item != ids[j] || got.Items[j].Score != scores[j] {
				t.Errorf("user %d item %d: got (%d,%v) want (%d,%v)",
					user, j, got.Items[j].Item, got.Items[j].Score, ids[j], scores[j])
			}
		}
		for _, it := range got.Items {
			if s.model().trainItems[user][it.Item] {
				t.Errorf("user %d: training item %d recommended", user, it.Item)
			}
		}
	}

	// mask_train=false must surface the raw ranking.
	w = postJSON(t, h, "/v1/recommend", `{"user":0,"n":4,"mask_train":false}`)
	resp = decode[api.RecommendResponse](t, w)
	ids, _ := sc.TopN(0, 4, nil)
	for j, it := range resp.Results[0].Items {
		if it.Item != ids[j] {
			t.Errorf("unmasked item %d: got %d want %d", j, it.Item, ids[j])
		}
	}
}

func TestRecommendValidation(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxBatch: 4, MaxN: 8})
	h := s.Handler()
	cases := []struct {
		name, body string
	}{
		{"bad json", `{"users":`},
		{"unknown field", `{"userz":[1]}`},
		{"empty users", `{"users":[]}`},
		{"user and users", `{"user":1,"users":[2]}`},
		{"out of range user", `{"users":[99]}`},
		{"negative user", `{"users":[-1]}`},
		{"negative n", `{"users":[1],"n":-2}`},
		{"n over limit", `{"users":[1],"n":9}`},
		{"batch over limit", `{"users":[1,2,3,4,5]}`},
	}
	for _, tc := range cases {
		if w := postJSON(t, h, "/v1/recommend", tc.body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, w.Code, w.Body)
		} else if decode[api.ErrorResponse](t, w).Error == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}
	// Method and route guards from the mux.
	if w := get(t, h, "/v1/recommend"); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET recommend: status %d", w.Code)
	}
	if w := get(t, h, "/nope"); w.Code != http.StatusNotFound {
		t.Errorf("unknown route: status %d", w.Code)
	}

	// mask_train on a server without a training graph is a client error.
	emb, _ := testEmbedding(t)
	bare, err := New(emb, nil, Config{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if w := postJSON(t, bare.Handler(), "/v1/recommend", `{"user":0,"mask_train":true}`); w.Code != http.StatusBadRequest {
		t.Errorf("mask_train without train: status %d", w.Code)
	}
	// Without a training graph the default is unmasked and must work.
	if w := postJSON(t, bare.Handler(), "/v1/recommend", `{"user":0}`); w.Code != http.StatusOK {
		t.Errorf("bare recommend: status %d: %s", w.Code, w.Body)
	}
}

func TestRecommendCache(t *testing.T) {
	s, reg := newTestServer(t, Config{CacheSize: 8})
	h := s.Handler()
	body := `{"users":[3,4],"n":5}`
	first := decode[api.RecommendResponse](t, postJSON(t, h, "/v1/recommend", body))
	for _, r := range first.Results {
		if r.Cached {
			t.Errorf("first request reported cached for user %d", r.User)
		}
	}
	second := decode[api.RecommendResponse](t, postJSON(t, h, "/v1/recommend", body))
	for i, r := range second.Results {
		if !r.Cached {
			t.Errorf("second request not cached for user %d", r.User)
		}
		if fmt.Sprint(r.Items) != fmt.Sprint(first.Results[i].Items) {
			t.Errorf("cached items differ: %v vs %v", r.Items, first.Results[i].Items)
		}
	}
	if hits := reg.Counter("serve_cache_hit_total", "").Value(); hits != 2 {
		t.Errorf("cache hits = %v, want 2", hits)
	}
	if misses := reg.Counter("serve_cache_miss_total", "").Value(); misses != 2 {
		t.Errorf("cache misses = %v, want 2", misses)
	}
	// A different n is a different cache entry.
	third := decode[api.RecommendResponse](t, postJSON(t, h, "/v1/recommend", `{"users":[3],"n":2}`))
	if third.Results[0].Cached {
		t.Error("different n answered from cache")
	}
	if len(third.Results[0].Items) != 2 {
		t.Errorf("n=2 returned %d items", len(third.Results[0].Items))
	}
}

func TestSimilar(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	for _, side := range []string{"u", "v"} {
		m, norms := s.model().emb.U, s.model().uNorms
		if side == "v" {
			m, norms = s.model().emb.V, s.model().vNorms
		}
		id, n := 3, 5
		w := get(t, h, fmt.Sprintf("/v1/similar?side=%s&id=%d&n=%d", side, id, n))
		if w.Code != http.StatusOK {
			t.Fatalf("side %s: status %d: %s", side, w.Code, w.Body)
		}
		resp := decode[similarResponse](t, w)
		if resp.Side != side || resp.ID != id || len(resp.Neighbors) != n {
			t.Fatalf("side %s: shape %+v", side, resp)
		}
		// Exact cosine check against a naive loop, and ranking sanity.
		prev := math.Inf(1)
		for _, nb := range resp.Neighbors {
			if nb.Item == id {
				t.Errorf("side %s: self in neighbors", side)
			}
			want := dense.Dot(m.Row(id), m.Row(nb.Item)) / (norms[id] * norms[nb.Item])
			if nb.Score != want {
				t.Errorf("side %s neighbor %d: score %v want %v", side, nb.Item, nb.Score, want)
			}
			if nb.Score > prev {
				t.Errorf("side %s: scores not descending", side)
			}
			prev = nb.Score
		}
	}
	// Default side is u; default n applies.
	resp := decode[similarResponse](t, get(t, h, "/v1/similar?id=0"))
	if resp.Side != "u" || len(resp.Neighbors) != 10 {
		t.Errorf("defaults: %+v", resp)
	}
	for _, bad := range []string{
		"/v1/similar",                // missing id
		"/v1/similar?id=zap",         // non-integer id
		"/v1/similar?id=99&side=u",   // out of range
		"/v1/similar?id=1&side=w",    // bad side
		"/v1/similar?id=1&n=-3",      // bad n
		"/v1/similar?id=1&n=1000000", // n over limit
	} {
		if w := get(t, h, bad); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", bad, w.Code)
		}
	}
}

// TestSimilarIsolatedVertex is the zero-norm cosine regression test: an
// isolated vertex embeds as the all-zero row, its norm is 0, and the
// naive cosine 0/0 is NaN — which encoding/json rejects, turning one
// degenerate vertex into a 200-with-empty-body for the whole response.
// The guard defines cosine against (or from) a zero row as 0.
func TestSimilarIsolatedVertex(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 3))
	emb := &core.Embedding{U: dense.Random(6, 4, rng), V: dense.Random(8, 4, rng), Method: "gebep"}
	// Vertex u2 and item v5 are isolated: zero rows on both sides.
	for c := 0; c < 4; c++ {
		emb.U.Row(2)[c] = 0
		emb.V.Row(5)[c] = 0
	}
	s, err := New(emb, nil, Config{Metrics: obs.NewRegistry(), MaxN: 10})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	cases := []struct {
		name, side string
		id         int
		// wantZero lists neighbor ids whose score must be exactly 0;
		// allZero asserts the entire list scored 0.
		wantZero []int
		allZero  bool
	}{
		{name: "isolated u queried", side: "u", id: 2, allZero: true},
		{name: "isolated v queried", side: "v", id: 5, allZero: true},
		{name: "u list contains isolated", side: "u", id: 0, wantZero: []int{2}},
		{name: "v list contains isolated", side: "v", id: 1, wantZero: []int{5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := get(t, h, fmt.Sprintf("/v1/similar?side=%s&id=%d&n=7", tc.side, tc.id))
			if w.Code != http.StatusOK {
				t.Fatalf("status %d: %s", w.Code, w.Body)
			}
			// A NaN anywhere makes encoding/json abort mid-response; a
			// successful decode of the full body is itself the core assert.
			resp := decode[similarResponse](t, w)
			if len(resp.Neighbors) == 0 {
				t.Fatal("empty neighbor list")
			}
			scores := make(map[int]float64, len(resp.Neighbors))
			for _, nb := range resp.Neighbors {
				scores[nb.Item] = nb.Score
				if math.IsNaN(nb.Score) || math.IsInf(nb.Score, 0) {
					t.Errorf("neighbor %d: non-finite score %v", nb.Item, nb.Score)
				}
				if tc.allZero && nb.Score != 0 {
					t.Errorf("neighbor %d of isolated vertex scored %v, want 0", nb.Item, nb.Score)
				}
			}
			for _, id := range tc.wantZero {
				if sc, ok := scores[id]; ok && sc != 0 {
					t.Errorf("isolated neighbor %d scored %v, want 0", id, sc)
				}
			}
		})
	}
}

func TestScorePairs(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	w := postJSON(t, h, "/v1/score", `{"pairs":[[0,1],[5,10],[19,34]]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	resp := decode[api.ScoreResponse](t, w)
	emb := s.model().emb
	want := []float64{emb.Score(0, 1), emb.Score(5, 10), emb.Score(19, 34)}
	if len(resp.Scores) != len(want) {
		t.Fatalf("got %d scores", len(resp.Scores))
	}
	for i := range want {
		if resp.Scores[i] != want[i] {
			t.Errorf("score[%d] = %v, want %v", i, resp.Scores[i], want[i])
		}
	}
	for _, bad := range []string{
		`{"pairs":[]}`,
		`{"pairs":[[0,99]]}`,
		`{"pairs":[[-1,0]]}`,
	} {
		if w := postJSON(t, h, "/v1/score", bad); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", bad, w.Code)
		}
	}
}

func TestHealthzAndInfo(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxInflight: 3, CacheSize: 4, Deadline: time.Second})
	h := s.Handler()
	hz := decode[map[string]any](t, get(t, h, "/v1/healthz"))
	if hz["status"] != "ok" {
		t.Errorf("healthz: %v", hz)
	}
	if _, ok := hz["uptime_seconds"].(float64); !ok {
		t.Errorf("healthz uptime missing: %v", hz)
	}
	info := decode[map[string]any](t, get(t, h, "/v1/info"))
	for key, want := range map[string]any{
		"method": "gebep", "users": 20.0, "items": 35.0, "k": 8.0,
		"sigma_scale": 1.5, "sweeps": 7.0, "converged": true,
		"stop_reason": "converged", "train_edges": 5.0,
		"max_inflight": 3.0, "cache_size": 4.0, "deadline_ms": 1000.0,
	} {
		if info[key] != want {
			t.Errorf("info[%s] = %v, want %v", key, info[key], want)
		}
	}
}

func TestDeadline503(t *testing.T) {
	// A 1ns budget is blown before the first scoring tile: the
	// checkpoint fires deterministically. similar and score map it to
	// 503; recommend degrades to a truncated 200 instead (every list is
	// droppable independently, so partial answers beat none).
	s, reg := newTestServer(t, Config{Deadline: time.Nanosecond})
	h := s.Handler()
	for _, req := range []func() *httptest.ResponseRecorder{
		func() *httptest.ResponseRecorder { return get(t, h, "/v1/similar?id=1") },
		func() *httptest.ResponseRecorder { return postJSON(t, h, "/v1/score", `{"pairs":[[0,0]]}`) },
	} {
		w := req()
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503: %s", w.Code, w.Body)
		}
		if w.Header().Get("Retry-After") == "" {
			t.Error("503 without Retry-After")
		}
	}
	if got := reg.Counter("serve_deadline_total", "").Value(); got != 2 {
		t.Errorf("deadline counter = %v, want 2", got)
	}
	w := postJSON(t, h, "/v1/recommend", `{"user":1}`)
	if w.Code != http.StatusOK {
		t.Fatalf("recommend under blown budget: status %d, want 200: %s", w.Code, w.Body)
	}
	if w.Header().Get(api.TruncatedHeader) != "true" {
		t.Errorf("recommend under blown budget: missing %s header", api.TruncatedHeader)
	}
	resp := decode[api.RecommendResponse](t, w)
	if !resp.Truncated {
		t.Error("recommend under blown budget: truncated flag not set")
	}
	if len(resp.Results) != 1 || resp.Results[0].User != 1 || resp.Results[0].Items != nil {
		t.Errorf("truncated results = %+v, want the named user with null items", resp.Results)
	}
	if got := reg.Counter("serve_truncated_total", "").Value(); got != 1 {
		t.Errorf("truncated counter = %v, want 1", got)
	}
	// healthz does no scoring and must stay 200 under the same budget.
	if w := get(t, h, "/v1/healthz"); w.Code != http.StatusOK {
		t.Errorf("healthz under deadline: status %d", w.Code)
	}
}

// TestRecommendTruncatedMidBatch drives both retrieval paths into a
// deterministic mid-batch budget expiry via the testCheckpoint hook:
// the response must be a 200 carrying the completed prefix, the
// truncated flag, and the X-Gebe-Truncated header — never a 503 that
// throws finished work away.
func TestRecommendTruncatedMidBatch(t *testing.T) {
	users := make([]int, 20)
	for i := range users {
		users[i] = i
	}
	body, _ := json.Marshal(users)
	cases := []struct {
		name string
		mode string
		// allow is how many checkpoint calls succeed before the budget
		// "expires". Exact checks once per 16-user GEMM tile, approx once
		// per user.
		allow        int
		wantComplete int
	}{
		{name: "exact first tile lands", mode: "exact", allow: 1, wantComplete: 16},
		{name: "approx two users land", mode: "approx", allow: 2, wantComplete: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			testCheckpoint = func() func() error {
				calls := 0
				return func() error {
					if calls++; calls > tc.allow {
						return budget.ErrExceeded
					}
					return nil
				}
			}
			defer func() { testCheckpoint = nil }()
			s, reg := newTestServer(t, Config{ANN: &ann.Config{Clusters: 4, Seed: 1}})
			req := fmt.Sprintf(`{"users":%s,"mode":%q}`, body, tc.mode)
			w := postJSON(t, s.Handler(), "/v1/recommend", req)
			if w.Code != http.StatusOK {
				t.Fatalf("status %d, want 200: %s", w.Code, w.Body)
			}
			if w.Header().Get(api.TruncatedHeader) != "true" {
				t.Errorf("missing %s header", api.TruncatedHeader)
			}
			resp := decode[api.RecommendResponse](t, w)
			if !resp.Truncated {
				t.Error("truncated flag not set")
			}
			if len(resp.Results) != len(users) {
				t.Fatalf("%d results, want %d (every requested user named)", len(resp.Results), len(users))
			}
			complete := 0
			for i, r := range resp.Results {
				if r.User != users[i] {
					t.Fatalf("result %d is user %d, want %d", i, r.User, users[i])
				}
				if r.Items == nil {
					continue
				}
				complete++
				if i >= tc.wantComplete {
					t.Errorf("user %d ranked after the budget expired", r.User)
				}
				if len(r.Items) == 0 {
					t.Errorf("user %d has a complete but empty list", r.User)
				}
			}
			if complete != tc.wantComplete {
				t.Errorf("%d complete lists, want %d", complete, tc.wantComplete)
			}
			if got := reg.Counter("serve_truncated_total", "").Value(); got != 1 {
				t.Errorf("truncated counter = %v, want 1", got)
			}
			if got := reg.Counter("serve_deadline_total", "").Value(); got != 0 {
				t.Errorf("deadline counter = %v, want 0 (truncation is not a 503)", got)
			}
		})
	}
}

// TestShardedModelTrainSlicing: a shard is handed the FULL training
// graph (splitting the edge file would scramble ReadEdgeList's
// first-appearance indexing) and must slice it internally — global item
// ids remapped to shard-local rows, off-shard edges dropped.
func TestShardedModelTrainSlicing(t *testing.T) {
	emb, g := testEmbedding(t)
	// Cut V rows [10,20) of the 35-item embedding into a fake shard.
	sharded := *emb
	sharded.V = dense.New(10, emb.V.Cols)
	copy(sharded.V.Data, emb.V.Data[10*emb.V.Cols:20*emb.V.Cols])
	sharded.ShardIndex, sharded.ShardCount = 1, 3
	sharded.ShardOffset, sharded.ShardTotal = 10, 35
	m, err := newModel(1, &sharded, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	// testEmbedding's train edges: user 0 → {1,2,3} (all off-shard),
	// user 5 → {10,11} (on-shard, local rows 0 and 1).
	if m.trainItems[0] != nil {
		t.Errorf("user 0 exclusions %v, want none (all items off-shard)", m.trainItems[0])
	}
	if !m.trainItems[5][0] || !m.trainItems[5][1] || len(m.trainItems[5]) != 2 {
		t.Errorf("user 5 exclusions %v, want local rows {0,1}", m.trainItems[5])
	}
	if m.trainEdges != 2 {
		t.Errorf("trainEdges = %d, want 2 (only on-shard edges kept)", m.trainEdges)
	}
	// The full train graph must validate against ShardTotal, not the
	// shard's own (smaller) V side.
	s, err := New(&sharded, g, Config{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	w := get(t, s.Handler(), "/v1/info")
	info := decode[map[string]any](t, w)
	sh, ok := info["shard"].(map[string]any)
	if !ok {
		t.Fatalf("/v1/info has no shard block: %v", info)
	}
	if sh["index"] != 1.0 || sh["count"] != 3.0 || sh["offset"] != 10.0 || sh["total"] != 35.0 {
		t.Errorf("shard block = %v", sh)
	}
}

// TestDeadlineHeader exercises X-Gebe-Deadline-Ms: a caller-propagated
// budget must bound requests on a server with no configured deadline,
// and a malformed value must be ignored rather than rejected.
func TestDeadlineHeader(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	send := func(path, body, header string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", path, strings.NewReader(body))
		if header != "" {
			req.Header.Set(api.DeadlineHeader, header)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}
	// An already-spent caller budget expires the request immediately:
	// recommend degrades to truncated, similar stays a 503.
	if w := send("/v1/recommend", `{"user":1}`, "0"); w.Code != http.StatusOK || w.Header().Get(api.TruncatedHeader) != "true" {
		t.Errorf("spent header budget: status %d truncated %q, want 200/true", w.Code, w.Header().Get(api.TruncatedHeader))
	}
	req := httptest.NewRequest("GET", "/v1/similar?id=1", nil)
	req.Header.Set(api.DeadlineHeader, "0")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("similar under spent header budget: status %d, want 503", w.Code)
	}
	// A generous budget and a malformed value both leave the request
	// unconstrained.
	for _, hv := range []string{"60000", "soon", ""} {
		if w := send("/v1/recommend", `{"user":1}`, hv); w.Code != http.StatusOK || w.Header().Get(api.TruncatedHeader) != "" {
			t.Errorf("header %q: status %d truncated %q, want clean 200", hv, w.Code, w.Header().Get(api.TruncatedHeader))
		}
	}
}

func TestEndpointMetrics(t *testing.T) {
	s, reg := newTestServer(t, Config{})
	h := s.Handler()
	postJSON(t, h, "/v1/recommend", `{"user":1}`)
	postJSON(t, h, "/v1/recommend", `{"users":[]}`)
	get(t, h, "/v1/healthz")
	if got := reg.Counter("serve_status_recommend_200_total", "").Value(); got != 1 {
		t.Errorf("recommend 200 counter = %v, want 1", got)
	}
	if got := reg.Counter("serve_status_recommend_400_total", "").Value(); got != 1 {
		t.Errorf("recommend 400 counter = %v, want 1", got)
	}
	if got := reg.Histogram("serve_recommend_seconds", "", nil).Count(); got != 2 {
		t.Errorf("recommend histogram count = %v, want 2", got)
	}
	if got := reg.Histogram("serve_healthz_seconds", "", nil).Count(); got != 1 {
		t.Errorf("healthz histogram count = %v, want 1", got)
	}
	// The full metrics surface renders in the Prometheus text format.
	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"serve_inflight", "serve_shed_total", "serve_recommend_seconds_bucket"} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("metrics output missing %s", name)
		}
	}
}
