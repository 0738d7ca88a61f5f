package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gebe/internal/ann"
	"gebe/internal/api"
	"gebe/internal/bigraph"
	"gebe/internal/core"
	"gebe/internal/obs"
)

// annConfig is the test index: few clusters over the 35-item test
// embedding so a full probe (nprobe >= 6) is cheap to request.
func annConfig() *ann.Config {
	return &ann.Config{Clusters: 6, Seed: 11}
}

// TestApproxFullProbeMatchesExact is the serving-layer face of the
// package oracle: mode approx at nprobe = Clusters must return exactly
// the ids and scores mode exact returns — same JSON, different header.
func TestApproxFullProbeMatchesExact(t *testing.T) {
	s, _ := newTestServer(t, Config{ANN: annConfig()})
	h := s.Handler()

	for _, body := range []string{
		`{"users":[0,5,7],"n":6}`,
		`{"user":3,"n":5,"mask_train":false}`,
	} {
		exact := postJSON(t, h, "/v1/recommend", body)
		if exact.Code != http.StatusOK {
			t.Fatalf("exact: status %d: %s", exact.Code, exact.Body)
		}
		if got := exact.Header().Get(retrievalModeHeader); got != modeExact {
			t.Fatalf("exact %s = %q", retrievalModeHeader, got)
		}

		approxBody := strings.TrimSuffix(body, "}") + `,"mode":"approx","nprobe":6}`
		approx := postJSON(t, h, "/v1/recommend", approxBody)
		if approx.Code != http.StatusOK {
			t.Fatalf("approx: status %d: %s", approx.Code, approx.Body)
		}
		if got := approx.Header().Get(retrievalModeHeader); got != modeApprox {
			t.Fatalf("approx %s = %q", retrievalModeHeader, got)
		}

		e := decode[api.RecommendResponse](t, exact)
		a := decode[api.RecommendResponse](t, approx)
		for i := range e.Results {
			ew, aw := e.Results[i], a.Results[i]
			if len(ew.Items) != len(aw.Items) {
				t.Fatalf("user %d: %d exact items vs %d approx", ew.User, len(ew.Items), len(aw.Items))
			}
			for j := range ew.Items {
				if ew.Items[j].Item != aw.Items[j].Item || ew.Items[j].Score != aw.Items[j].Score {
					t.Fatalf("user %d rank %d: exact (%d,%v) approx (%d,%v)",
						ew.User, j, ew.Items[j].Item, ew.Items[j].Score, aw.Items[j].Item, aw.Items[j].Score)
				}
			}
		}
	}
}

// TestApproxPrunes: at nprobe 1 the request still succeeds and the
// answer is a plausible subset — and the responses land in different
// cache entries than exact mode's.
func TestApproxPrunes(t *testing.T) {
	s, _ := newTestServer(t, Config{ANN: annConfig(), CacheSize: 32})
	h := s.Handler()

	exact := `{"user":2,"n":4}`
	approx := `{"user":2,"n":4,"mode":"approx","nprobe":1}`

	if r := decode[api.RecommendResponse](t, postJSON(t, h, "/v1/recommend", exact)); r.Results[0].Cached {
		t.Fatal("first exact query claims cached")
	}
	// Same user in approx mode must MISS (distinct key), then hit.
	if r := decode[api.RecommendResponse](t, postJSON(t, h, "/v1/recommend", approx)); r.Results[0].Cached {
		t.Fatal("approx query hit the exact-mode cache entry")
	}
	if r := decode[api.RecommendResponse](t, postJSON(t, h, "/v1/recommend", approx)); !r.Results[0].Cached {
		t.Fatal("repeated approx query not cached")
	}
	// nprobe 0 canonicalizes to the index default — for this index
	// max(1, 6/8) = 1 — so it shares entries with an explicit nprobe 1.
	noProbe := `{"user":2,"n":4,"mode":"approx"}`
	if r := decode[api.RecommendResponse](t, postJSON(t, h, "/v1/recommend", noProbe)); !r.Results[0].Cached {
		t.Fatal("nprobe 0 did not canonicalize onto the default-probe cache entry")
	}
}

// TestApproxValidation: the mode/nprobe knobs reject malformed and
// unsupported combinations with 400s.
func TestApproxValidation(t *testing.T) {
	withIndex, _ := newTestServer(t, Config{ANN: annConfig()})
	without, _ := newTestServer(t, Config{})

	cases := []struct {
		name string
		h    http.Handler
		body string
		want string
	}{
		{"bad mode", withIndex.Handler(), `{"user":1,"mode":"fuzzy"}`, "mode must be"},
		{"negative nprobe", withIndex.Handler(), `{"user":1,"mode":"approx","nprobe":-2}`, "non-negative"},
		{"nprobe without approx", withIndex.Handler(), `{"user":1,"nprobe":3}`, "requires mode approx"},
		{"no index", without.Handler(), `{"user":1,"mode":"approx"}`, "not enabled"},
	}
	for _, tc := range cases {
		w := postJSON(t, tc.h, "/v1/recommend", tc.body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, w.Code)
			continue
		}
		if e := decode[api.ErrorResponse](t, w); !strings.Contains(e.Error, tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, e.Error, tc.want)
		}
	}
}

// TestInfoReportsANN: /v1/info carries the index shape when enabled and
// a null when not.
func TestInfoReportsANN(t *testing.T) {
	s, _ := newTestServer(t, Config{ANN: annConfig()})
	info := decode[map[string]any](t, get(t, s.Handler(), "/v1/info"))
	a, ok := info["ann"].(map[string]any)
	if !ok {
		t.Fatalf("info ann = %v", info["ann"])
	}
	if a["clusters"] != 6.0 || a["default_nprobe"] != 1.0 || a["int8"] != false {
		t.Errorf("ann info %v", a)
	}
	if bs, ok := a["build_seconds"].(float64); !ok || bs < 0 {
		t.Errorf("ann build_seconds %v", a["build_seconds"])
	}

	plain, _ := newTestServer(t, Config{})
	info = decode[map[string]any](t, get(t, plain.Handler(), "/v1/info"))
	if info["ann"] != nil {
		t.Errorf("ann info on an exact-only server: %v", info["ann"])
	}
}

// TestApproxMetrics: approximate traffic books the ann counters through
// the server's registry.
func TestApproxMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	ann.EnableMetrics(reg)
	defer ann.EnableMetrics(nil)
	s, _ := newTestServer(t, Config{ANN: annConfig()})
	h := s.Handler()
	if w := postJSON(t, h, "/v1/recommend", `{"users":[0,1,2],"mode":"approx","nprobe":2}`); w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	snap := reg.Snapshot()
	if got := snap["ann_queries_total"].(float64); got != 3 {
		t.Errorf("ann_queries_total = %v, want 3", got)
	}
	if got := snap["ann_clusters_probed_total"].(float64); got != 6 {
		t.Errorf("ann_clusters_probed_total = %v, want 6", got)
	}
	if got := snap["ann_candidates_scored_total"].(float64); got <= 0 {
		t.Errorf("ann_candidates_scored_total = %v", got)
	}
}

// TestConcurrentApproxAndReload hammers approximate /v1/recommend while
// reloads rebuild the index. Under -race this checks that index builds
// inside model snapshots never share state with in-flight searches; the
// consistency check pins every answer to exactly one version's index
// (full probe ⇒ answers must match that version's exact ranking).
func TestConcurrentApproxAndReload(t *testing.T) {
	embA, g := testEmbedding(t)
	embB := altEmbedding(t)
	var reloads atomic.Int64
	s, err := New(embA, g, Config{
		Metrics:   obs.NewRegistry(),
		CacheSize: 64,
		ANN:       annConfig(),
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

	wantByParity := map[int][]api.ScoredItem{
		1: expectTopN(embA, g, 3, 5),
		0: expectTopN(embB, g, 3, 5),
	}

	const queriers = 8
	const queriesEach = 40
	body := `{"users":[3],"n":5,"mode":"approx","nprobe":6}`
	var wg sync.WaitGroup
	errs := make(chan string, queriers*queriesEach)
	for range queriers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range queriesEach {
				req := httptest.NewRequest("POST", "/v1/recommend", strings.NewReader(body))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					errs <- fmt.Sprintf("status %d: %s", w.Code, w.Body)
					continue
				}
				if got := w.Header().Get(retrievalModeHeader); got != modeApprox {
					errs <- fmt.Sprintf("%s = %q", retrievalModeHeader, got)
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
					errs <- fmt.Sprintf("v%d approx answer differs from that version's exact ranking", v)
				}
			}
		}()
	}

	for i := 0; i < 20; i++ {
		if w := postReload(t, h, ""); w.Code != http.StatusOK {
			t.Fatalf("reload %d: status %d: %s", i, w.Code, w.Body)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
