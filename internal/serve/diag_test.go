package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gebe/internal/api"
	"gebe/internal/obs"
)

// spanNames flattens a span tree's child names (depth-first).
func spanNames(s *obs.Span) []string {
	if s == nil {
		return nil
	}
	var names []string
	for _, c := range s.Children {
		names = append(names, c.Name)
		names = append(names, spanNames(c)...)
	}
	return names
}

func count(names []string, want string) int {
	n := 0
	for _, name := range names {
		if name == want {
			n++
		}
	}
	return n
}

// TestRequestTraceRetrievableByID is the tentpole's acceptance path: a
// /v1/recommend request answers with an X-Request-ID, and that id
// fetches the full span tree — cache → score (tiles + ranking) →
// encode, attributed with batch and tile counts — from
// /debug/requests/{id}.
func TestRequestTraceRetrievableByID(t *testing.T) {
	s, _ := newTestServer(t, Config{TraceRequests: 8})
	h := s.Handler()

	w := postJSON(t, h, "/v1/recommend", `{"users":[0,1,2,5,7,9],"n":5}`)
	if w.Code != http.StatusOK {
		t.Fatalf("recommend: %d %s", w.Code, w.Body)
	}
	id := w.Header().Get("X-Request-ID")
	if id == "" {
		t.Fatal("response carries no X-Request-ID")
	}

	// Summary lists the request.
	sum := get(t, h, "/debug/requests")
	if sum.Code != http.StatusOK {
		t.Fatalf("/debug/requests: %d %s", sum.Code, sum.Body)
	}
	summary := decode[struct {
		Capacity int              `json:"capacity"`
		Count    int              `json:"count"`
		Requests []obs.TraceEntry `json:"requests"`
	}](t, sum)
	if summary.Capacity != 8 || summary.Count == 0 {
		t.Fatalf("summary = %+v, want capacity 8 and entries", summary)
	}
	found := false
	for _, e := range summary.Requests {
		if e.ID == id {
			found = true
			if e.Trace != nil {
				t.Error("summary entries must not carry span trees")
			}
			if e.Retained == "" {
				t.Error("summary entry missing retention reason")
			}
		}
	}
	if !found {
		t.Fatalf("request %s absent from summary %+v", id, summary.Requests)
	}

	// Full tree by id.
	one := get(t, h, "/debug/requests/"+id)
	if one.Code != http.StatusOK {
		t.Fatalf("/debug/requests/%s: %d %s", id, one.Code, one.Body)
	}
	entry := decode[obs.TraceEntry](t, one)
	if entry.ID != id || entry.Status != http.StatusOK || entry.Name != "recommend" {
		t.Fatalf("entry = %+v", entry)
	}
	if entry.Bytes <= 0 || entry.Elapsed <= 0 {
		t.Errorf("entry bytes=%d elapsed=%d, want both positive", entry.Bytes, entry.Elapsed)
	}
	if entry.Trace == nil || entry.Trace.Name != "recommend" {
		t.Fatalf("entry trace = %+v", entry.Trace)
	}
	names := spanNames(entry.Trace)
	for _, phase := range []string{"cache", "score", "encode"} {
		if count(names, phase) != 1 {
			t.Errorf("trace has %d %q spans, want 1 (tree: %v)", count(names, phase), phase, names)
		}
	}
	// 6 users → one 16-row tile; each scored user gets a rank span.
	if got := count(names, "score.tile"); got != 1 {
		t.Errorf("trace has %d score.tile spans, want 1 (tree: %v)", got, names)
	}
	if got := count(names, "rank"); got != 6 {
		t.Errorf("trace has %d rank spans, want 6 (tree: %v)", got, names)
	}
	// Attribute spot checks: the score span carries batch and tile
	// counts (JSON numbers decode as float64).
	var score *obs.Span
	for _, c := range entry.Trace.Children {
		if c.Name == "score" {
			score = c
		}
	}
	if score == nil {
		t.Fatal("no score child")
	}
	if score.Attrs["users"] != 6.0 || score.Attrs["tiles"] != 1.0 {
		t.Errorf("score attrs = %v, want users=6 tiles=1", score.Attrs)
	}
	tile := score.Children[0]
	if tile.Name != "score.tile" || tile.Attrs["users"] != 6.0 || tile.Attrs["items"] != 35.0 {
		t.Errorf("tile span = %s attrs %v, want score.tile users=6 items=35", tile.Name, tile.Attrs)
	}
}

func TestRequestIDPropagation(t *testing.T) {
	s, _ := newTestServer(t, Config{TraceRequests: 4})
	h := s.Handler()

	// A sane upstream id survives.
	req := httptest.NewRequest("GET", "/v1/similar?id=0&n=3", nil)
	req.Header.Set("X-Request-ID", "upstream-abc-123")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if got := w.Header().Get("X-Request-ID"); got != "upstream-abc-123" {
		t.Errorf("upstream id not propagated: %q", got)
	}
	if _, ok := s.lc.Traces().Get("upstream-abc-123"); !ok {
		t.Error("trace not retrievable under the upstream id")
	}

	// A garbage id (control bytes) is replaced with a minted one.
	req = httptest.NewRequest("GET", "/v1/similar?id=0&n=3", nil)
	req.Header.Set("X-Request-ID", "bad\x00id")
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if got := w.Header().Get("X-Request-ID"); got == "bad\x00id" || got == "" {
		t.Errorf("garbage id survived: %q", got)
	}

	// Two requests without ids get distinct ids.
	w1 := postJSON(t, h, "/v1/recommend", `{"user":0}`)
	w2 := postJSON(t, h, "/v1/recommend", `{"user":1}`)
	id1, id2 := w1.Header().Get("X-Request-ID"), w2.Header().Get("X-Request-ID")
	if id1 == "" || id1 == id2 {
		t.Errorf("minted ids %q and %q, want distinct non-empty", id1, id2)
	}
}

func TestDeadlineTraceRetained(t *testing.T) {
	// similar (unlike recommend, which degrades to a truncated 200) still
	// maps a blown budget to 503, so its trace lands on the error ring.
	s, _ := newTestServer(t, Config{TraceRequests: 4, Deadline: time.Nanosecond})
	h := s.Handler()
	w := get(t, h, "/v1/similar?id=1")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", w.Code)
	}
	id := w.Header().Get("X-Request-ID")
	e, ok := s.lc.Traces().Get(id)
	if !ok {
		t.Fatal("blown-deadline trace not retained")
	}
	if e.Status != http.StatusServiceUnavailable || e.Cause != "deadline" {
		t.Errorf("entry status=%d cause=%q, want 503/deadline", e.Status, e.Cause)
	}
}

func TestDebugRequestsDisabledAndMissing(t *testing.T) {
	// Tracing off: the debug routes are not mounted at all.
	s, _ := newTestServer(t, Config{})
	if w := get(t, s.Handler(), "/debug/requests"); w.Code != http.StatusNotFound {
		t.Errorf("/debug/requests with tracing off: %d, want 404", w.Code)
	}
	// Tracing on, unknown id: 404 with a JSON error.
	s2, _ := newTestServer(t, Config{TraceRequests: 4})
	w := get(t, s2.Handler(), "/debug/requests/nope")
	if w.Code != http.StatusNotFound {
		t.Fatalf("unknown id: %d, want 404", w.Code)
	}
	if e := decode[api.ErrorResponse](t, w); e.Error == "" {
		t.Error("404 body not a JSON error")
	}
}

func TestDebugRequestsBypassShedding(t *testing.T) {
	s, _ := newTestServer(t, Config{TraceRequests: 4, MaxInflight: 1})
	h := s.Handler()
	defer parkScoring(t, func() { postJSON(t, h, "/v1/recommend", `{"user":0}`) })()
	if w := get(t, h, "/debug/requests"); w.Code != http.StatusOK {
		t.Errorf("/debug/requests at capacity: %d, want 200 (must bypass limiter)", w.Code)
	}
	if w := postJSON(t, h, "/v1/recommend", `{"user":0}`); w.Code != http.StatusTooManyRequests {
		t.Errorf("recommend at capacity: %d, want 429", w.Code)
	}
}

func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	s, _ := newTestServer(t, Config{
		TraceRequests: 4,
		Log:           obs.NewTextLogger(&buf, slog.LevelInfo),
	})
	h := s.Handler()
	w := postJSON(t, h, "/v1/recommend", `{"users":[0,1],"n":3}`)
	if w.Code != http.StatusOK {
		t.Fatalf("recommend: %d", w.Code)
	}
	id := w.Header().Get("X-Request-ID")
	line := buf.String()
	for _, want := range []string{"serve: access", "id=" + id, "endpoint=recommend", "status=200", "bytes="} {
		if !strings.Contains(line, want) {
			t.Errorf("access log %q missing %q", line, want)
		}
	}

	// A spent caller budget: recommend degrades to a truncated 200 and
	// similar to a 503, each logged with its cause.
	for _, tc := range []struct{ method, path, body, want string }{
		{"POST", "/v1/recommend", `{"user":0}`, "cause=truncated"},
		{"GET", "/v1/similar?id=1", "", "cause=deadline"},
	} {
		buf.Reset()
		req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
		req.Header.Set(api.DeadlineHeader, "0")
		h.ServeHTTP(httptest.NewRecorder(), req)
		if line := buf.String(); !strings.Contains(line, "serve: access") || !strings.Contains(line, tc.want) {
			t.Errorf("%s access log %q missing %q", tc.path, line, tc.want)
		}
	}

	// Shed requests are logged too, with the cause, and no id.
	s2, _ := newTestServer(t, Config{
		MaxInflight: 1,
		Log:         obs.NewTextLogger(&buf, slog.LevelInfo),
	})
	h2 := s2.Handler()
	release := parkScoring(t, func() { postJSON(t, h2, "/v1/recommend", `{"user":0}`) })
	buf.Reset()
	postJSON(t, h2, "/v1/recommend", `{"user":0}`)
	shedLine := buf.String()
	release()
	for _, want := range []string{"serve: access", "endpoint=recommend", "status=429", "cause=shed"} {
		if !strings.Contains(shedLine, want) {
			t.Errorf("shed access log %q missing %q", shedLine, want)
		}
	}
}

func TestLatencySnapshot(t *testing.T) {
	s, _ := newTestServer(t, Config{TraceRequests: 4, CacheSize: 8})
	h := s.Handler()
	for i := 0; i < 5; i++ {
		if w := postJSON(t, h, "/v1/recommend", `{"users":[0,1,2],"n":4}`); w.Code != 200 {
			t.Fatalf("recommend %d: %d", i, w.Code)
		}
	}
	if w := get(t, h, "/v1/similar?id=3&n=2"); w.Code != 200 {
		t.Fatalf("similar: %d", w.Code)
	}

	snap := s.LatencySnapshot()
	rec := snap.Endpoints["recommend"]
	if rec.Count != 5 || rec.SumSeconds <= 0 {
		t.Errorf("recommend stats = %+v, want count 5, positive sum", rec)
	}
	for _, q := range []string{"p50", "p90", "p99"} {
		if rec.Quantiles[q] < 0 {
			t.Errorf("quantile %s = %v", q, rec.Quantiles[q])
		}
	}
	if rec.Quantiles["p99"] < rec.Quantiles["p50"] {
		t.Errorf("p99 %v < p50 %v", rec.Quantiles["p99"], rec.Quantiles["p50"])
	}
	if snap.Endpoints["similar"].Count != 1 {
		t.Errorf("similar count = %d, want 1", snap.Endpoints["similar"].Count)
	}
	// Endpoints that saw traffic are not marked empty; endpoints that
	// didn't are — their all-zero quantiles mean "never measured", not
	// "instant", and the marker is what records the difference.
	if rec.Empty {
		t.Error("recommend marked empty despite 5 requests")
	}
	if sc := snap.Endpoints["score"]; !sc.Empty || sc.Count != 0 {
		t.Errorf("untrafficked score endpoint = %+v, want empty marker", sc)
	}
	// 5 identical batches: 3 misses then 12 hits.
	if snap.Counters["cache_hit"] != 12 || snap.Counters["cache_miss"] != 3 {
		t.Errorf("cache counters = %v", snap.Counters)
	}
	if snap.Build.GoVersion == "" {
		t.Error("snapshot missing build provenance")
	}
	if got := api.SortedEndpoints(snap); len(got) != len(api.Endpoints) || got[0] != "healthz" {
		t.Errorf("sorted endpoints = %v", got)
	}

	// Round-trips through the file form.
	path := filepath.Join(t.TempDir(), "SERVE_LATENCY.json")
	if err := s.LatencySnapshot().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var back api.LatencySnapshot
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("snapshot does not parse: %v", err)
	}
	if back.Endpoints["recommend"].Count != 5 {
		t.Errorf("round-tripped count = %d", back.Endpoints["recommend"].Count)
	}
	if !back.Endpoints["score"].Empty || back.Endpoints["recommend"].Empty {
		t.Error("empty markers did not survive the round trip")
	}
}
