package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gebe/internal/api"
	"gebe/internal/bigraph"
	"gebe/internal/core"
	"gebe/internal/dense"
	"gebe/internal/eval"
	"gebe/internal/obs"
)

// altEmbedding is a second model with the same shape as testEmbedding's
// but different values, so a swap visibly changes every ranking.
func altEmbedding(t testing.TB) *core.Embedding {
	t.Helper()
	rng := rand.New(rand.NewPCG(99, 7))
	return &core.Embedding{
		U:      dense.Random(20, 8, rng),
		V:      dense.Random(35, 8, rng),
		Method: "gebe",
		Sweeps: 3, Converged: true, StopReason: "converged", WarmStarted: true,
	}
}

// expectTopN computes the reference recommendation list for one user
// directly through the eval scorer over a given embedding.
func expectTopN(emb *core.Embedding, g *bigraph.Graph, user, n int) []api.ScoredItem {
	sc := eval.NewScorer(emb.U, emb.V)
	var skip map[int]bool
	if g != nil {
		skip = make(map[int]bool)
		for _, e := range g.Edges {
			if e.U == user {
				skip[e.V] = true
			}
		}
	}
	ids, scores := sc.TopN(user, n, skip)
	items := make([]api.ScoredItem, len(ids))
	for j := range ids {
		items[j] = api.ScoredItem{Item: ids[j], Score: scores[j]}
	}
	return items
}

func TestSwapBumpsVersion(t *testing.T) {
	s, reg := newTestServer(t, Config{})
	h := s.Handler()
	if v := s.ModelVersion(); v != 1 {
		t.Fatalf("initial version = %d, want 1", v)
	}
	w := get(t, h, "/v1/healthz")
	if got := w.Header().Get("X-Model-Version"); got != "1" {
		t.Errorf("healthz X-Model-Version = %q, want 1", got)
	}

	_, g := testEmbedding(t)
	v, err := s.Swap(altEmbedding(t), g)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 || s.ModelVersion() != 2 {
		t.Fatalf("swapped version = %d / %d, want 2", v, s.ModelVersion())
	}
	info := decode[map[string]any](t, get(t, h, "/v1/info"))
	if info["model_version"] != 2.0 {
		t.Errorf("info model_version = %v, want 2", info["model_version"])
	}
	if info["method"] != "gebe" || info["warm_start"] != true {
		t.Errorf("info not from the new model: method=%v warm_start=%v", info["method"], info["warm_start"])
	}
	w = postJSON(t, h, "/v1/recommend", `{"user":0}`)
	if got := w.Header().Get("X-Model-Version"); got != "2" {
		t.Errorf("recommend X-Model-Version = %q, want 2", got)
	}
	if reg.Counter("serve_model_swaps_total", "").Value() != 1 {
		t.Error("serve_model_swaps_total not incremented")
	}
	if reg.Gauge("serve_model_version", "").Value() != 2 {
		t.Error("serve_model_version gauge not updated")
	}
}

// TestSwapInvalidatesCache is the stale-state regression test: an answer
// cached under version 1 must never be replayed after a hot swap, because
// cache keys are scoped to the model version (and Swap purges anyway).
func TestSwapInvalidatesCache(t *testing.T) {
	s, reg := newTestServer(t, Config{CacheSize: 16})
	h := s.Handler()
	_, g := testEmbedding(t)
	alt := altEmbedding(t)

	body := `{"users":[3],"n":5}`
	first := decode[api.RecommendResponse](t, postJSON(t, h, "/v1/recommend", body))
	warm := decode[api.RecommendResponse](t, postJSON(t, h, "/v1/recommend", body))
	if !warm.Results[0].Cached {
		t.Fatal("second identical query not cached before swap")
	}

	if _, err := s.Swap(alt, g); err != nil {
		t.Fatal(err)
	}
	if s.cache.len() != 0 {
		t.Errorf("cache holds %d entries after swap, want 0", s.cache.len())
	}

	after := decode[api.RecommendResponse](t, postJSON(t, h, "/v1/recommend", body))
	if after.Results[0].Cached {
		t.Fatal("stale cache hit served after model swap")
	}
	want := expectTopN(alt, g, 3, 5)
	got := after.Results[0].Items
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("post-swap items from wrong model:\n got %v\nwant %v", got, want)
	}
	if fmt.Sprint(got) == fmt.Sprint(first.Results[0].Items) {
		t.Error("post-swap ranking identical to old model's (swap had no effect)")
	}
	// The old version's key would miss even without the purge: keys embed
	// the version, so a v1 entry can never answer a v2 lookup.
	if _, ok := s.cache.get(cacheKey(1, 3, 5, true, modeExact, 0)); ok {
		t.Error("version-1 cache entry survived the purge")
	}
	_ = reg
}

func TestSwapValidation(t *testing.T) {
	s, reg := newTestServer(t, Config{})
	// A training graph larger than the embedding must be rejected and the
	// served model left untouched.
	big, err := bigraph.New(50, 60, []bigraph.Edge{{U: 49, V: 59, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Swap(altEmbedding(t), big); err == nil {
		t.Fatal("misaligned training graph accepted")
	}
	if _, err := s.Swap(nil, nil); err == nil {
		t.Fatal("nil embedding accepted")
	}
	if v := s.ModelVersion(); v != 1 {
		t.Errorf("failed swaps changed the version to %d", v)
	}
	if f := reg.Counter("serve_model_swap_failures_total", "").Value(); f != 2 {
		t.Errorf("swap failures = %v, want 2", f)
	}
	if reg.Counter("serve_model_swaps_total", "").Value() != 0 {
		t.Error("failed swaps counted as successes")
	}
}

// postReload issues POST /v1/reload with an optional admin token.
func postReload(t *testing.T, h http.Handler, token string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/reload", strings.NewReader(""))
	if token != "" {
		req.Header.Set("X-Admin-Token", token)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestReloadEndpoint(t *testing.T) {
	emb, g := testEmbedding(t)
	alt := altEmbedding(t)

	t.Run("not configured", func(t *testing.T) {
		s, err := New(emb, g, Config{Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		if w := postReload(t, s.Handler(), ""); w.Code != http.StatusNotImplemented {
			t.Errorf("status %d, want 501", w.Code)
		}
	})

	t.Run("admin token", func(t *testing.T) {
		s, err := New(emb, g, Config{
			Metrics:    obs.NewRegistry(),
			AdminToken: "s3cret",
			Reload: func() (*core.Embedding, *bigraph.Graph, error) {
				return alt, g, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		if w := postReload(t, h, ""); w.Code != http.StatusForbidden {
			t.Errorf("missing token: status %d, want 403", w.Code)
		}
		if w := postReload(t, h, "wrong"); w.Code != http.StatusForbidden {
			t.Errorf("wrong token: status %d, want 403", w.Code)
		}
		if v := s.ModelVersion(); v != 1 {
			t.Fatalf("rejected reloads swapped the model to v%d", v)
		}
		w := postReload(t, h, "s3cret")
		if w.Code != http.StatusOK {
			t.Fatalf("authorized reload: status %d: %s", w.Code, w.Body)
		}
		resp := decode[reloadResponse](t, w)
		if resp.ModelVersion != 2 || !resp.WarmStart || resp.Method != "gebe" {
			t.Errorf("reload response %+v", resp)
		}
		if got := w.Header().Get("X-Model-Version"); got != "2" {
			t.Errorf("reload X-Model-Version = %q, want 2", got)
		}
	})

	t.Run("loader error", func(t *testing.T) {
		reg := obs.NewRegistry()
		s, err := New(emb, g, Config{
			Metrics: reg,
			Reload: func() (*core.Embedding, *bigraph.Graph, error) {
				return nil, nil, errors.New("disk on fire")
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		w := postReload(t, s.Handler(), "")
		if w.Code != http.StatusInternalServerError {
			t.Errorf("status %d, want 500", w.Code)
		}
		if !strings.Contains(decode[api.ErrorResponse](t, w).Error, "disk on fire") {
			t.Error("loader error not surfaced")
		}
		if s.ModelVersion() != 1 {
			t.Error("failed reload swapped the model")
		}
		if reg.Counter("serve_model_swap_failures_total", "").Value() != 1 {
			t.Error("failed reload not counted")
		}
	})
}

// TestConcurrentSwapAndQuery hammers /v1/recommend while POST /v1/reload
// hot-swaps the model back and forth. Run under -race this is the
// drain-free swap's safety net; the response-consistency checks assert
// that every answer — header, ranking, cache state — comes from exactly
// one model version, never a mix and never a stale cache entry.
func TestConcurrentSwapAndQuery(t *testing.T) {
	embA, g := testEmbedding(t)
	embB := altEmbedding(t)
	// The loader alternates models: reload n publishes version n+1, so
	// odd versions serve embA (version 1 is embA from New) and even embB.
	var reloads atomic.Int64
	s, err := New(embA, g, Config{
		Metrics:   obs.NewRegistry(),
		CacheSize: 64,
		Reload: func() (*core.Embedding, *bigraph.Graph, error) {
			if reloads.Add(1)%2 == 1 {
				return embB, g, nil
			}
			return embA, g, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	// Version v serves embA when odd (New started at 1 with embA), embB
	// when even — the swap loop below alternates strictly.
	wantByParity := map[int][]api.ScoredItem{
		1: expectTopN(embA, g, 3, 5),
		0: expectTopN(embB, g, 3, 5),
	}

	const queriers = 8
	const queriesEach = 50
	var wg sync.WaitGroup
	errs := make(chan string, queriers*queriesEach)
	for range queriers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range queriesEach {
				req := httptest.NewRequest("POST", "/v1/recommend", strings.NewReader(`{"users":[3],"n":5}`))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					errs <- fmt.Sprintf("status %d: %s", w.Code, w.Body)
					continue
				}
				v, err := strconv.Atoi(w.Header().Get("X-Model-Version"))
				if err != nil {
					errs <- "missing X-Model-Version"
					continue
				}
				resp := api.RecommendResponse{}
				if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
					errs <- err.Error()
					continue
				}
				want := wantByParity[v%2]
				if fmt.Sprint(resp.Results[0].Items) != fmt.Sprint(want) {
					errs <- fmt.Sprintf("v%d answered with the other model's ranking", v)
				}
			}
		}()
	}

	for i := 0; i < 25; i++ {
		if w := postReload(t, h, ""); w.Code != http.StatusOK {
			t.Fatalf("reload %d: status %d: %s", i, w.Code, w.Body)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if v := s.ModelVersion(); v != 26 {
		t.Errorf("final version = %d, want 26", v)
	}
}
