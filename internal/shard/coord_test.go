package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"math/rand/v2"

	"gebe/internal/api"
	"gebe/internal/bigraph"
	"gebe/internal/core"
	"gebe/internal/dense"
	"gebe/internal/obs"
	"gebe/internal/serve"
)

// testEmbedding mirrors the serve test fixture: a deterministic 20×35
// embedding and a training graph giving a few users exclusion sets.
func testEmbedding(t testing.TB) (*core.Embedding, *bigraph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewPCG(42, 0))
	emb := &core.Embedding{
		U:      dense.Random(20, 8, rng),
		V:      dense.Random(35, 8, rng),
		Method: "gebep",
	}
	edges := []bigraph.Edge{
		{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 1}, {U: 0, V: 3, W: 1},
		{U: 5, V: 10, W: 1}, {U: 5, V: 11, W: 2},
		{U: 7, V: 30, W: 1}, {U: 7, V: 34, W: 1},
	}
	g, err := bigraph.New(20, 35, edges)
	if err != nil {
		t.Fatal(err)
	}
	return emb, g
}

// toggleHandler fronts one shard and fails every request with 503 while
// down — the in-process stand-in for a killed shard process (the CI
// smoke test kills real processes).
type toggleHandler struct {
	down atomic.Bool
	h    http.Handler
}

func (th *toggleHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if th.down.Load() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"shard down"}` + "\n"))
		return
	}
	th.h.ServeHTTP(w, r)
}

// fleet is a test topology: one unsharded comparator server plus count
// sharded servers behind toggleHandlers, all over the same embedding.
type fleet struct {
	unsharded *serve.Server
	shards    []*serve.Server
	toggles   []*toggleHandler
	servers   []*httptest.Server
	coord     *Coordinator
}

func newFleet(t *testing.T, count int, cfg Config) *fleet {
	t.Helper()
	emb, g := testEmbedding(t)
	f := &fleet{}
	un, err := serve.New(emb, g, serve.Config{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	f.unsharded = un
	p, err := NewPartition(emb.V.Rows, count)
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, count)
	for i := 0; i < count; i++ {
		slice := Slice(emb, p, i)
		// Every shard loads the FULL train graph; serve slices the
		// exclusion sets to its rows internally.
		srv, err := serve.New(slice, g, serve.Config{
			Metrics: obs.NewRegistry(),
			Reload: func() (*core.Embedding, *bigraph.Graph, error) {
				return Slice(emb, p, i), g, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		th := &toggleHandler{h: srv.Handler()}
		hs := httptest.NewServer(th)
		t.Cleanup(hs.Close)
		f.shards = append(f.shards, srv)
		f.toggles = append(f.toggles, th)
		f.servers = append(f.servers, hs)
		urls[i] = hs.URL
	}
	cfg.Shards = urls
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.coord = c
	return f
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

// TestGatherBitwiseIdentical is the tentpole invariant: with every
// shard healthy, the coordinator's response bytes equal an unsharded
// server's for the same request — recommend, score, and similar alike.
func TestGatherBitwiseIdentical(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 5} {
		f := newFleet(t, shards, Config{})
		ch, uh := f.coord.Handler(), f.unsharded.Handler()
		posts := []string{
			`{"users":[0,5,7],"n":6}`,
			`{"user":3,"n":1}`,
			`{"users":[0],"n":35}`,
			`{"users":[0,1,2,3,4],"n":10,"mask_train":true}`,
			`{"users":[19]}`,
		}
		for _, body := range posts {
			cw := postJSON(t, ch, "/v1/recommend", body)
			uw := postJSON(t, uh, "/v1/recommend", body)
			if cw.Code != http.StatusOK || uw.Code != http.StatusOK {
				t.Fatalf("shards=%d body=%s: status coord=%d unsharded=%d (%s)",
					shards, body, cw.Code, uw.Code, cw.Body.String())
			}
			if !bytes.Equal(cw.Body.Bytes(), uw.Body.Bytes()) {
				t.Errorf("shards=%d recommend %s:\ncoord:     %s\nunsharded: %s",
					shards, body, cw.Body.String(), uw.Body.String())
			}
			if cw.Header().Get(api.TruncatedHeader) != "" {
				t.Errorf("shards=%d: full-health gather marked truncated", shards)
			}
		}
		score := `{"pairs":[[0,0],[5,34],[19,17],[7,1]]}`
		cw := postJSON(t, ch, "/v1/score", score)
		uw := postJSON(t, uh, "/v1/score", score)
		if !bytes.Equal(cw.Body.Bytes(), uw.Body.Bytes()) {
			t.Errorf("shards=%d score:\ncoord:     %s\nunsharded: %s", shards, cw.Body.String(), uw.Body.String())
		}
		cs := get(t, ch, "/v1/similar?id=4&side=u&n=7")
		us := get(t, uh, "/v1/similar?id=4&side=u&n=7")
		if !bytes.Equal(cs.Body.Bytes(), us.Body.Bytes()) {
			t.Errorf("shards=%d similar:\ncoord:     %s\nunsharded: %s", shards, cs.Body.String(), us.Body.String())
		}
		// Model-version agreement surfaces as the unsharded header.
		if got, want := cw.Header().Get("X-Model-Version"), uw.Header().Get("X-Model-Version"); got != want {
			t.Errorf("shards=%d: X-Model-Version %q != %q", shards, got, want)
		}
	}
}

// TestBadRequestPropagatesVerbatim: shard-side validation answers are
// the coordinator's answers, byte for byte — identical requests meet
// identical validation on every shard.
func TestBadRequestPropagatesVerbatim(t *testing.T) {
	f := newFleet(t, 3, Config{})
	ch, uh := f.coord.Handler(), f.unsharded.Handler()
	body := `{"users":[99],"n":5}` // user out of range shard-side
	cw := postJSON(t, ch, "/v1/recommend", body)
	uw := postJSON(t, uh, "/v1/recommend", body)
	if cw.Code != http.StatusBadRequest || uw.Code != http.StatusBadRequest {
		t.Fatalf("status coord=%d unsharded=%d", cw.Code, uw.Code)
	}
	if !bytes.Equal(cw.Body.Bytes(), uw.Body.Bytes()) {
		t.Errorf("400 body:\ncoord:     %s\nunsharded: %s", cw.Body.String(), uw.Body.String())
	}
	// A bad similar query is the shard's own 400, proxied.
	cs, us := get(t, ch, "/v1/similar?id=1&side=x"), get(t, uh, "/v1/similar?id=1&side=x")
	if cs.Code != http.StatusBadRequest || !bytes.Equal(cs.Body.Bytes(), us.Body.Bytes()) {
		t.Errorf("similar 400:\ncoord:     %d %s\nunsharded: %d %s", cs.Code, cs.Body.String(), us.Code, us.Body.String())
	}
}

// TestCoordinatorValidation: requests the coordinator can reject
// without a scatter never reach a shard.
func TestCoordinatorValidation(t *testing.T) {
	f := newFleet(t, 2, Config{MaxBatch: 3})
	h := f.coord.Handler()
	for _, tc := range []struct {
		body string
		want string
	}{
		{`{"users":[]}`, "users is required"},
		{`{}`, "users is required"},
		{`{"user":1,"users":[2]}`, "not both"},
		{`{"users":[1,2,3,4]}`, "exceeds limit"},
		{`{"users":[1],"n":-2}`, "must be positive"},
		{`{"users":[1],"n":5000}`, "exceeds limit"},
		{`{"users":[1],"bogus":true}`, "unknown field"},
		{`not json`, "bad request body"},
	} {
		w := postJSON(t, h, "/v1/recommend", tc.body)
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), tc.want) {
			t.Errorf("%s: got %d %s, want 400 containing %q", tc.body, w.Code, w.Body.String(), tc.want)
		}
	}
	// A body over the 1 MiB cap is rejected with the same message an
	// unsharded server gives, not a truncated-read decode error.
	huge := `{"users":[` + strings.Repeat("1,", 600_000) + `1]}`
	cw := postJSON(t, h, "/v1/recommend", huge)
	uw := postJSON(t, f.unsharded.Handler(), "/v1/recommend", huge)
	if cw.Code != http.StatusBadRequest || !bytes.Equal(cw.Body.Bytes(), uw.Body.Bytes()) {
		t.Errorf("oversized body: coord %d %s, unsharded %d %s", cw.Code, cw.Body.String(), uw.Code, uw.Body.String())
	}
	if !strings.Contains(cw.Body.String(), "request body too large") {
		t.Errorf("oversized body: %s, want the request-body-too-large message", cw.Body.String())
	}
	if calls := f.coord.m.scatterCalls.Value(); calls != 0 {
		t.Errorf("validation failures scattered %v shard calls", calls)
	}
}

// panicOnceWriter panics on the first WriteHeader — a fault inside the
// coordinator's own response path — and behaves normally afterwards.
type panicOnceWriter struct {
	*httptest.ResponseRecorder
	panicked bool
}

func (w *panicOnceWriter) WriteHeader(code int) {
	if !w.panicked {
		w.panicked = true
		panic("response path exploded")
	}
	w.ResponseRecorder.WriteHeader(code)
}

// TestCoordinatorPanicRecovery: a panic while the coordinator answers a
// gathered request becomes a JSON 500 with a "cause=panic" access line;
// the panic is counted, the in-flight gauge drains, and the next
// request is served.
func TestCoordinatorPanicRecovery(t *testing.T) {
	var logBuf bytes.Buffer
	reg := obs.NewRegistry()
	f := newFleet(t, 2, Config{Metrics: reg, Log: obs.NewTextLogger(&logBuf, slog.LevelInfo)})
	h := f.coord.Handler()
	w := &panicOnceWriter{ResponseRecorder: httptest.NewRecorder()}
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/recommend", strings.NewReader(`{"users":[0,5],"n":4}`)))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", w.Code)
	}
	var e api.ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error != "internal error" {
		t.Errorf("500 body %q not the JSON internal error", w.Body.String())
	}
	if got := reg.Counter("coord_panics_total", "").Value(); got != 1 {
		t.Errorf("coord_panics_total = %v, want 1", got)
	}
	if got := reg.Gauge("coord_inflight", "").Value(); got != 0 {
		t.Errorf("coord_inflight = %v after panic, want 0", got)
	}
	for _, want := range []string{"coord: handler panic", "coord: access", "status=500", "cause=panic"} {
		if !strings.Contains(logBuf.String(), want) {
			t.Errorf("log %q missing %q", logBuf.String(), want)
		}
	}
	if got := f.coord.LatencySnapshot().Counters["panics"]; got != 1 {
		t.Errorf("snapshot panics = %v, want 1", got)
	}
	if w := postJSON(t, h, "/v1/recommend", `{"users":[0,5],"n":4}`); w.Code != http.StatusOK {
		t.Errorf("request after panic: %d %s", w.Code, w.Body.String())
	}
}

// TestKilledShardDegrades: a down shard turns into a partial answer —
// 200 with truncated=true and the X-Gebe-Truncated header, never a 5xx
// — and the prober ejects then readmits it around the outage.
func TestKilledShardDegrades(t *testing.T) {
	f := newFleet(t, 3, Config{FailAfter: 1})
	h := f.coord.Handler()
	f.toggles[1].down.Store(true)

	w := postJSON(t, h, "/v1/recommend", `{"users":[0,5],"n":8}`)
	if w.Code != http.StatusOK {
		t.Fatalf("degraded gather: got %d %s, want 200", w.Code, w.Body.String())
	}
	if w.Header().Get(api.TruncatedHeader) != "true" {
		t.Error("degraded gather missing X-Gebe-Truncated")
	}
	var resp api.RecommendResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Truncated {
		t.Error("degraded gather missing truncated flag")
	}
	// The merged lists still rank the surviving shards' rows.
	for _, ur := range resp.Results {
		if len(ur.Items) == 0 {
			t.Errorf("user %d: no items from surviving shards", ur.User)
		}
	}

	// The prober ejects the shard (FailAfter=1) and healthz degrades.
	f.coord.probeAll(context.Background())
	if got := f.coord.m.ejections.Value(); got < 1 {
		t.Errorf("shard_unhealthy_total = %v, want >= 1", got)
	}
	hw := get(t, h, "/v1/healthz")
	if hw.Code != http.StatusOK || !strings.Contains(hw.Body.String(), "degraded") {
		t.Errorf("healthz during outage: %d %s", hw.Code, hw.Body.String())
	}
	if got := f.coord.m.healthyShards.Value(); got != 2 {
		t.Errorf("shard_healthy = %v, want 2", got)
	}

	// Ejected shards are skipped entirely: the gather stays truncated
	// but issues no calls to the dead shard.
	before := f.coord.m.scatterFailures.Value()
	w = postJSON(t, h, "/v1/recommend", `{"users":[0],"n":4}`)
	if w.Code != http.StatusOK || w.Header().Get(api.TruncatedHeader) != "true" {
		t.Fatalf("post-ejection gather: %d truncated=%q", w.Code, w.Header().Get(api.TruncatedHeader))
	}
	if got := f.coord.m.scatterFailures.Value(); got != before {
		t.Errorf("ejected shard still scattered to: failures %v -> %v", before, got)
	}

	// Recovery: the shard comes back, a probe readmits it, and the
	// gather is whole — and bitwise-identical to unsharded — again.
	f.toggles[1].down.Store(false)
	f.coord.probeAll(context.Background())
	if got := f.coord.m.readmissions.Value(); got != 1 {
		t.Errorf("shard_readmit_total = %v, want 1", got)
	}
	cw := postJSON(t, h, "/v1/recommend", `{"users":[0,5],"n":8}`)
	uw := postJSON(t, f.unsharded.Handler(), "/v1/recommend", `{"users":[0,5],"n":8}`)
	if cw.Code != http.StatusOK || cw.Header().Get(api.TruncatedHeader) != "" {
		t.Fatalf("post-recovery gather: %d truncated=%q", cw.Code, cw.Header().Get(api.TruncatedHeader))
	}
	if !bytes.Equal(cw.Body.Bytes(), uw.Body.Bytes()) {
		t.Errorf("post-recovery not identical:\ncoord:     %s\nunsharded: %s", cw.Body.String(), uw.Body.String())
	}
}

// TestAllShardsDown: with nothing to gather from, the coordinator is
// honestly unavailable — its only 5xx.
func TestAllShardsDown(t *testing.T) {
	f := newFleet(t, 2, Config{FailAfter: 1})
	h := f.coord.Handler()
	for _, th := range f.toggles {
		th.down.Store(true)
	}
	w := postJSON(t, h, "/v1/recommend", `{"users":[0]}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("all-down recommend: got %d, want 503", w.Code)
	}
	f.coord.probeAll(context.Background())
	if w := get(t, h, "/v1/healthz"); w.Code != http.StatusServiceUnavailable {
		t.Errorf("all-down healthz: got %d, want 503", w.Code)
	}
}

// TestScoreDegrades: pairs owned by a dead shard come back as zero
// scores listed in missing, the rest are exact.
func TestScoreDegrades(t *testing.T) {
	f := newFleet(t, 3, Config{FailAfter: 1})
	f.toggles[0].down.Store(true) // owns rows [0,12)
	f.coord.probeAll(context.Background())
	f.coord.probeAll(context.Background()) // second failure not needed (FailAfter=1) but harmless
	h := f.coord.Handler()
	w := postJSON(t, h, "/v1/score", `{"pairs":[[0,0],[5,34],[3,1],[19,20]]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("degraded score: %d %s", w.Code, w.Body.String())
	}
	var resp api.ScoreResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Truncated {
		t.Error("degraded score missing truncated flag")
	}
	if len(resp.Missing) != 2 || resp.Missing[0] != 0 || resp.Missing[1] != 2 {
		t.Errorf("missing = %v, want [0 2]", resp.Missing)
	}
	for _, i := range resp.Missing {
		if resp.Scores[i] != 0 {
			t.Errorf("missing pair %d scored %v, want 0", i, resp.Scores[i])
		}
	}
	// The surviving pairs match the unsharded answer exactly.
	uw := postJSON(t, f.unsharded.Handler(), "/v1/score", `{"pairs":[[0,0],[5,34],[3,1],[19,20]]}`)
	var uresp struct {
		Scores []float64 `json:"scores"`
	}
	if err := json.Unmarshal(uw.Body.Bytes(), &uresp); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 3} {
		if resp.Scores[i] != uresp.Scores[i] {
			t.Errorf("pair %d: %v != unsharded %v", i, resp.Scores[i], uresp.Scores[i])
		}
	}
}

// TestSimilarItemSide501: item rows are partitioned, so item-side
// similarity is explicitly unimplemented rather than silently wrong.
func TestSimilarItemSide501(t *testing.T) {
	f := newFleet(t, 2, Config{})
	w := get(t, f.coord.Handler(), "/v1/similar?id=3&side=v")
	if w.Code != http.StatusNotImplemented {
		t.Errorf("side=v: got %d, want 501", w.Code)
	}
}

// TestVersionMismatchFailsReadiness: a shard serving a different model
// version flips the gauge and fails the coordinator's healthz until a
// coordinated reload reconverges the fleet.
func TestVersionMismatchFailsReadiness(t *testing.T) {
	f := newFleet(t, 2, Config{})
	h := f.coord.Handler()

	// Skew the fleet: reload shard 0 directly, behind the coordinator's
	// back (the restarted-shard scenario).
	if w := postJSON(t, f.shards[0].Handler(), "/v1/reload", ""); w.Code != http.StatusOK {
		t.Fatalf("direct shard reload: %d %s", w.Code, w.Body.String())
	}
	f.coord.probeAll(context.Background())
	if got := f.coord.m.versionMismatch.Value(); got != 1 {
		t.Fatalf("shard_version_mismatch = %v, want 1", got)
	}
	if w := get(t, h, "/v1/healthz"); w.Code != http.StatusServiceUnavailable ||
		!strings.Contains(w.Body.String(), "disagree") {
		t.Errorf("mismatch healthz: %d %s", w.Code, w.Body.String())
	}

	// Recommends still answer (each shard's lists are internally
	// consistent) but readiness steers traffic away until the
	// coordinated reload below reconverges the versions.
	if w := postJSON(t, h, "/v1/recommend", `{"users":[0]}`); w.Code != http.StatusOK {
		t.Errorf("mismatch recommend: %d", w.Code)
	}

	if w := postJSON(t, h, "/v1/reload", ""); w.Code != http.StatusOK {
		t.Fatalf("coordinated reload: %d %s", w.Code, w.Body.String())
	}
	if got := f.coord.m.versionMismatch.Value(); got != 0 {
		t.Errorf("post-reload shard_version_mismatch = %v, want 0", got)
	}
	if w := get(t, h, "/v1/healthz"); w.Code != http.StatusOK {
		t.Errorf("post-reload healthz: %d %s", w.Code, w.Body.String())
	}
}

// TestReloadRequiresToken: the coordinator gates its own reload and
// forwards the token to shards.
func TestReloadRequiresToken(t *testing.T) {
	f := newFleet(t, 2, Config{AdminToken: "sesame"})
	h := f.coord.Handler()
	if w := postJSON(t, h, "/v1/reload", ""); w.Code != http.StatusForbidden {
		t.Errorf("tokenless reload: got %d, want 403", w.Code)
	}
	req := httptest.NewRequest("POST", "/v1/reload", nil)
	req.Header.Set("X-Admin-Token", "sesame")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Errorf("tokened reload: got %d %s, want 200", w.Code, w.Body.String())
	}
}

// TestInfoAggregates: /v1/info names every shard with its slice and
// health, plus the fleet totals.
func TestInfoAggregates(t *testing.T) {
	f := newFleet(t, 3, Config{})
	w := get(t, f.coord.Handler(), "/v1/info")
	if w.Code != http.StatusOK {
		t.Fatalf("info: %d", w.Code)
	}
	var info struct {
		Shards       []map[string]any `json:"shards"`
		ShardsTotal  int              `json:"shards_total"`
		Users, Items int
	}
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.ShardsTotal != 3 || len(info.Shards) != 3 {
		t.Fatalf("shards_total=%d len=%d, want 3", info.ShardsTotal, len(info.Shards))
	}
	if info.Users != 20 || info.Items != 35 {
		t.Errorf("users=%d items=%d, want 20/35", info.Users, info.Items)
	}
	rows := 0
	for _, s := range info.Shards {
		if s["healthy"] != true {
			t.Errorf("shard %v unhealthy in full-health fleet", s["addr"])
		}
		rows += int(s["rows"].(float64))
	}
	if rows != 35 {
		t.Errorf("shard rows sum to %d, want 35", rows)
	}
}

// TestDeadlinePropagation: the coordinator's remaining budget reaches
// shards as X-Gebe-Deadline-Ms, so an exhausted coordinator budget
// surfaces as a truncated 200 (shards cut scoring cooperatively), and
// requests arriving with the header already expired degrade the same
// way without burning a scatter's worth of shard compute.
func TestDeadlinePropagation(t *testing.T) {
	f := newFleet(t, 2, Config{})
	h := f.coord.Handler()
	req := httptest.NewRequest("POST", "/v1/recommend", strings.NewReader(`{"users":[0,5],"n":4}`))
	req.Header.Set(api.DeadlineHeader, "0")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	// An already-expired budget either gathers nothing (503) or gathers
	// shard-truncated responses (200 + truncated); it must never claim a
	// complete answer.
	switch w.Code {
	case http.StatusOK:
		if w.Header().Get(api.TruncatedHeader) != "true" {
			t.Errorf("expired-deadline 200 without truncation: %s", w.Body.String())
		}
	case http.StatusServiceUnavailable:
	default:
		t.Errorf("expired deadline: got %d %s", w.Code, w.Body.String())
	}
}

// TestCoordLatencySnapshot: the snapshot is serve-schema so the regress
// gate reads it unchanged.
func TestCoordLatencySnapshot(t *testing.T) {
	f := newFleet(t, 2, Config{})
	h := f.coord.Handler()
	postJSON(t, h, "/v1/recommend", `{"users":[0]}`)
	snap := f.coord.LatencySnapshot()
	rec, ok := snap.Endpoints["recommend"]
	if !ok || rec.Count != 1 || rec.Empty {
		t.Errorf("recommend endpoint latency = %+v, want count 1", rec)
	}
	if _, ok := snap.Counters["shard_hedge"]; !ok {
		t.Error("snapshot missing shard_hedge counter")
	}
	dir := t.TempDir()
	path := dir + "/COORD_LATENCY.json"
	if err := f.coord.LatencySnapshot().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var back api.LatencySnapshot
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("snapshot does not round-trip: %v", err)
	}
	if len(back.Endpoints) != len(api.Endpoints) {
		t.Errorf("snapshot has %d endpoints, want %d", len(back.Endpoints), len(api.Endpoints))
	}
}

// TestProberLifecycle: Start runs the background prober; Close stops it
// without leaking its goroutine.
func TestProberLifecycle(t *testing.T) {
	f := newFleet(t, 2, Config{ProbeInterval: 5 * time.Millisecond, FailAfter: 1})
	f.coord.Start()
	f.toggles[0].down.Store(true)
	deadline := time.Now().Add(2 * time.Second)
	for f.coord.m.healthyShards.Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("prober never ejected the downed shard")
		}
		time.Sleep(2 * time.Millisecond)
	}
	f.toggles[0].down.Store(false)
	for f.coord.m.healthyShards.Value() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("prober never readmitted the recovered shard")
		}
		time.Sleep(2 * time.Millisecond)
	}
	f.coord.Close()
}
