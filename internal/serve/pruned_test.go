package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"gebe/internal/api"
	"gebe/internal/bigraph"
	"gebe/internal/core"
	"gebe/internal/dense"
	"gebe/internal/eval"
	"gebe/internal/obs"
)

// TestRecommendPrunedMatchesScorer serves an embedding wide enough for
// the pruned selector (k > eval.PrunedDims): exact lists, masked and
// unmasked, must equal Scorer + TopNExcluding bit for bit, while the
// score span shows that most items were pruned, and /v1/info reports
// the selector's head.
func TestRecommendPrunedMatchesScorer(t *testing.T) {
	s, emb := prunedServer(t)
	h := s.Handler()

	info := decode[map[string]any](t, get(t, h, "/v1/info"))
	pr, _ := info["pruned"].(map[string]any)
	if pr["dims"] != float64(eval.PrunedDims) {
		t.Fatalf("info pruned = %v, want dims %d", info["pruned"], eval.PrunedDims)
	}
	if e, _ := pr["head_energy"].(float64); !(e > 0 && e < 1) {
		t.Errorf("info pruned head_energy = %v, want in (0,1)", pr["head_energy"])
	}

	nu, nv := emb.U.Rows, emb.V.Rows
	users := make([]int, nu)
	for i := range users {
		users[i] = i
	}
	list, _ := json.Marshal(users)
	sc := eval.NewScorer(emb.U, emb.V)
	for _, mask := range []bool{true, false} {
		body := fmt.Sprintf(`{"users":%s,"n":10,"mask_train":%v}`, list, mask)
		req := postJSON(t, h, "/v1/recommend", body)
		if req.Code != http.StatusOK {
			t.Fatalf("status %d: %s", req.Code, req.Body)
		}
		resp := decode[api.RecommendResponse](t, req)
		for i, u := range users {
			var skip []int32
			if mask {
				skip = s.model().trainItems.Of(u)
			}
			ids, scores := sc.TopN(u, 10, skip)
			got := resp.Results[i].Items
			if len(got) != len(ids) {
				t.Fatalf("mask=%v user %d: %d items, want %d", mask, u, len(got), len(ids))
			}
			for j := range ids {
				if got[j].Item != ids[j] || math.Float64bits(got[j].Score) != math.Float64bits(scores[j]) {
					t.Fatalf("mask=%v user %d rank %d: got (%d,%v) want (%d,%v)",
						mask, u, j, got[j].Item, got[j].Score, ids[j], scores[j])
				}
			}
		}
		entry, ok := s.lc.Traces().Get(req.Header().Get("X-Request-ID"))
		if !ok {
			t.Fatal("request trace not retained")
		}
		found := false
		for _, c := range entry.Trace.Children {
			if c.Name != "score" {
				continue
			}
			found = true
			r, _ := c.Attrs["rescored"].(int)
			if r <= 0 || r >= nu*nv/2 {
				t.Errorf("mask=%v: score span rescored %v of %d scored items, want a pruned share", mask, c.Attrs["rescored"], nu*nv)
			}
		}
		if !found {
			t.Errorf("mask=%v: trace has no score span", mask)
		}
	}
}

// prunedServer serves a planted embedding wide enough for the pruned
// selector (k > eval.PrunedDims), with a training graph and request
// tracing on.
func prunedServer(t *testing.T) (*Server, *core.Embedding) {
	t.Helper()
	rng := rand.New(rand.NewPCG(11, 0))
	const nu, nv, k = 40, 1003, 24
	cents := dense.Random(12, k, rng)
	planted := func(rows int) *dense.Matrix {
		m := dense.New(rows, k)
		for i := range rows {
			c := cents.Row(rng.IntN(cents.Rows))
			for j := range k {
				m.Data[i*k+j] = 4*c[j] + 0.5*rng.NormFloat64()
			}
		}
		return m
	}
	emb := &core.Embedding{U: planted(nu), V: planted(nv), Method: "planted"}
	var edges []bigraph.Edge
	for u := range nu {
		for range 5 {
			edges = append(edges, bigraph.Edge{U: u, V: rng.IntN(nv), W: 1})
		}
	}
	g, err := bigraph.New(nu, nv, edges)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(emb, g, Config{TraceRequests: 4, Metrics: obs.NewRegistry(),
		Reload: func() (*core.Embedding, *bigraph.Graph, error) { return emb, g, nil }})
	if err != nil {
		t.Fatal(err)
	}
	return s, emb
}

// TestConcurrentPrunedRecommend drives the pruned path from several
// goroutines at once, across hot swaps: every request checks a scratch
// out of the snapshot's pool, and every list must still be the Scorer's.
func TestConcurrentPrunedRecommend(t *testing.T) {
	s, emb := prunedServer(t)
	h := s.Handler()
	sc := eval.NewScorer(emb.U, emb.V)
	want := make([][]int, emb.U.Rows)
	for u := range want {
		want[u], _ = sc.TopN(u, 5, s.model().trainItems.Of(u))
	}
	const queriers, queriesEach = 4, 30
	var wg sync.WaitGroup
	errs := make(chan string, queriers*queriesEach+1)
	for q := range queriers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queriesEach {
				u := (q*queriesEach + i) % emb.U.Rows
				req := httptest.NewRequest("POST", "/v1/recommend", strings.NewReader(fmt.Sprintf(`{"user":%d,"n":5}`, u)))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				var resp api.RecommendResponse
				if err := json.NewDecoder(w.Body).Decode(&resp); err != nil || w.Code != http.StatusOK {
					errs <- fmt.Sprintf("user %d: status %d, %v", u, w.Code, err)
					continue
				}
				got := make([]int, len(resp.Results[0].Items))
				for j, it := range resp.Results[0].Items {
					got[j] = it.Item
				}
				if !slices.Equal(got, want[u]) {
					errs <- fmt.Sprintf("user %d: got %v, want %v", u, got, want[u])
				}
			}
		}()
	}
	for range 3 {
		if _, err := s.Reload(); err != nil {
			errs <- err.Error()
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
