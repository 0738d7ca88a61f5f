package shard

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"gebe/internal/api"
	"gebe/internal/obs"
	"gebe/internal/serve"
)

// TestParseInfo pins which advertised identities the coordinator
// accepts.
func TestParseInfo(t *testing.T) {
	for _, tc := range []struct {
		body string
		want identity
		ok   bool
	}{
		{`{"users":20,"items":35}`, identity{users: 20, rows: 35, count: 1, total: 35}, true},
		{`{"users":20,"items":12,"shard":{"index":1,"count":3,"offset":12,"total":35}}`,
			identity{users: 20, rows: 12, index: 1, count: 3, offset: 12, total: 35}, true},
		{`{"users":20,"items":11,"shard":{"index":2,"count":3,"offset":24,"total":35}}`,
			identity{users: 20, rows: 11, index: 2, count: 3, offset: 24, total: 35}, true},
		{`{"users":0,"items":0}`, identity{count: 1}, true},
		{`{"users":-1,"items":35}`, identity{}, false},
		{`{"users":20,"items":-3}`, identity{}, false},
		{`{"users":20,"items":12,"shard":{"index":0,"count":0,"offset":0,"total":35}}`, identity{}, false},
		{`{"users":20,"items":12,"shard":{"index":3,"count":3,"offset":0,"total":35}}`, identity{}, false},
		{`{"users":20,"items":12,"shard":{"index":-1,"count":3,"offset":0,"total":35}}`, identity{}, false},
		{`{"users":20,"items":12,"shard":{"index":0,"count":3,"offset":-1,"total":35}}`, identity{}, false},
		{`{"users":20,"items":12,"shard":{"index":2,"count":3,"offset":24,"total":35}}`, identity{}, false},
		{`{"users":20,"items":12,"shard":{"index":0,"count":1,"offset":9223372036854775807,"total":-9223372036854775808}}`, identity{}, false},
		{`{"users":20,"items":"x"}`, identity{}, false},
		{`not json`, identity{}, false},
	} {
		id, err := parseInfo([]byte(tc.body))
		if tc.ok {
			if err != nil || id != tc.want {
				t.Errorf("%s: got %+v, %v; want %+v", tc.body, id, err, tc.want)
			}
			continue
		}
		var ie *InfoError
		if !errors.As(err, &ie) {
			t.Errorf("%s: got %+v, %v; want an *InfoError", tc.body, id, err)
		}
	}
}

// fakeShard is a scripted shard: healthz answers 200 with the current
// version header, info answers the current body.
type fakeShard struct {
	version atomic.Value // string
	info    atomic.Value // string
}

func (fs *fakeShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("X-Model-Version", fs.version.Load().(string))
	w.Header().Set("Content-Type", "application/json")
	switch r.URL.Path {
	case "/v1/healthz":
		w.Write([]byte(`{"status":"ok"}`))
	case "/v1/info":
		w.Write([]byte(fs.info.Load().(string)))
	default:
		w.Write([]byte(`{"n":1,"results":[{"user":0,"items":[]}]}`))
	}
}

// TestInconsistentInfoLeavesShardUnknown: a shard advertising a slice
// that contradicts itself is counted, stays out of every scatter, and is
// admitted once it advertises a consistent one; a known shard that
// changes version and then lies is dropped again.
func TestInconsistentInfoLeavesShardUnknown(t *testing.T) {
	fs := &fakeShard{}
	fs.version.Store("1")
	fs.info.Store(`{"users":4,"items":10,"shard":{"index":0,"count":2,"offset":5,"total":12}}`)
	hs := httptest.NewServer(fs)
	t.Cleanup(hs.Close)
	c, err := New(Config{Shards: []string{hs.URL}, FailAfter: 1, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	h := c.Handler()
	check := func(stage string, rejected float64, known bool) {
		t.Helper()
		if got := c.m.infoRejected.Value(); got != rejected {
			t.Errorf("%s: shard_info_rejected_total = %v, want %v", stage, got, rejected)
		}
		if got := len(c.healthyShards()); got != map[bool]int{false: 0, true: 1}[known] {
			t.Errorf("%s: %d scatterable shards, want known=%v", stage, got, known)
		}
		w := postJSON(t, h, "/v1/recommend", `{"users":[0],"n":1}`)
		if want := map[bool]int{false: http.StatusServiceUnavailable, true: http.StatusOK}[known]; w.Code != want {
			t.Errorf("%s: recommend status %d, want %d", stage, w.Code, want)
		}
	}
	check("offset+items beyond total", 1, false)
	if st := c.shards[0].snapshot(); !strings.Contains(st.lastErr, "rejected /v1/info") {
		t.Errorf("last_error %q does not name the rejected info", st.lastErr)
	}

	fs.info.Store(`{"users":4,"items":7,"shard":{"index":1,"count":2,"offset":5,"total":12}}`)
	c.probeAll(context.Background())
	check("consistent", 1, true)

	fs.version.Store("2")
	fs.info.Store(`{"users":4,"items":7,"shard":{"index":2,"count":2,"offset":5,"total":12}}`)
	c.probeAll(context.Background())
	check("index beyond count after a version change", 2, false)
}

// rewriteHandler passes requests through and lets edit tamper with every
// /v1/recommend answer before it leaves the shard.
type rewriteHandler struct {
	h    http.Handler
	edit func(*api.RecommendResponse)
}

func (rh *rewriteHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/recommend" {
		rh.h.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	rh.h.ServeHTTP(rec, r)
	var sr api.RecommendResponse
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &sr) != nil {
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
		return
	}
	rh.edit(&sr)
	body, _ := json.Marshal(sr)
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// tamperedFleet fronts the test embedding's two shards with a
// coordinator; shard 1's recommend answers pass through edit.
func tamperedFleet(t *testing.T, edit func(*api.RecommendResponse)) *Coordinator {
	t.Helper()
	emb, g := testEmbedding(t)
	p, err := NewPartition(emb.V.Rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, 2)
	for i := range urls {
		srv, err := serve.New(Slice(emb, p, i), g, serve.Config{Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		if i == 1 {
			h = &rewriteHandler{h: h, edit: edit}
		}
		hs := httptest.NewServer(h)
		t.Cleanup(hs.Close)
		urls[i] = hs.URL
	}
	c, err := New(Config{Shards: urls, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestGatherRejectsUntrustedAnswers: an answer whose users do not line
// up with the request or whose item ids fall outside the shard's rows is
// treated as a failed call: the merge is truncated, keeps only the other
// shard's rows, and the rejection is counted.
func TestGatherRejectsUntrustedAnswers(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*api.RecommendResponse)
	}{
		{"user_swapped", func(sr *api.RecommendResponse) {
			sr.Results[0].User, sr.Results[1].User = sr.Results[1].User, sr.Results[0].User
		}},
		{"extra_user", func(sr *api.RecommendResponse) {
			sr.Results = append(sr.Results, sr.Results[0])
		}},
		{"item_past_rows", func(sr *api.RecommendResponse) { sr.Results[1].Items[0].Item = 1 << 20 }},
		{"negative_item", func(sr *api.RecommendResponse) { sr.Results[0].Items[2].Item = -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tamperedFleet(t, tc.edit)
			first := c.shards[1].snapshot().offset // shard 1 holds rows [first, 35)
			w := postJSON(t, c.Handler(), "/v1/recommend", `{"users":[0,5],"n":8}`)
			if w.Code != http.StatusOK || w.Header().Get(api.TruncatedHeader) != "true" {
				t.Fatalf("status %d truncated=%q, want a truncated 200", w.Code, w.Header().Get(api.TruncatedHeader))
			}
			var resp api.RecommendResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			for i, ur := range resp.Results {
				if want := []int{0, 5}[i]; ur.User != want || len(ur.Items) == 0 {
					t.Fatalf("result %d: user %d with %d items, want user %d from shard 0", i, ur.User, len(ur.Items), want)
				}
				for _, it := range ur.Items {
					if it.Item >= first {
						t.Errorf("user %d: item %d came from the rejected shard", ur.User, it.Item)
					}
				}
			}
			if got := c.m.answersRejected.Value(); got != 1 {
				t.Errorf("shard_answer_rejected_total = %v, want 1", got)
			}
		})
	}
}

// TestDecodeAnswer covers what the wire cannot carry: a non-finite
// score (encoding/json refuses to write or read one) is rejected too.
func TestDecodeAnswer(t *testing.T) {
	sr, err := decodeAnswer([]byte(`{"n":2,"results":[{"user":3,"items":[{"item":1,"score":0.5},{"item":0,"score":-2}]},{"user":4,"items":null}]}`), []int{3, 4}, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := sr.Results[0].Items; got[0].Item != 11 || got[1].Item != 10 || sr.Results[1].Items != nil {
		t.Errorf("remapped answer %+v", sr.Results)
	}
	for _, body := range []string{
		`{"results":[{"user":3,"items":[{"item":0,"score":1e999}]}]}`,
		`{"results":[{"user":3,"items":[{"item":0,"score":NaN}]}]}`,
		`{"results":[{"user":4,"items":[]}]}`,
		`{"results":[{"user":3,"items":[{"item":2,"score":1}]}]}`,
	} {
		if _, err := decodeAnswer([]byte(body), []int{3, 4}, 2, 10); err == nil {
			t.Errorf("%s: accepted", body)
		}
	}
}
