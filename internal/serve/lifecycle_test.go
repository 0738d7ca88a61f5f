package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"gebe/internal/api"
)

// parkScoring runs send in a goroutine and holds the request it makes
// inside the scorer's first checkpoint — a slow scoring pass through
// the real handler stack, occupying its limiter slot. It returns once
// the request is parked; release lets it finish and waits for send to
// return. send must make exactly one exact-mode, uncached recommend
// request; no other request may reach scoring until release.
func parkScoring(t *testing.T, send func()) (release func()) {
	t.Helper()
	entered, gate, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	testCheckpoint = func() func() error {
		return func() error {
			entered <- struct{}{}
			<-gate
			return nil
		}
	}
	go func() {
		defer close(done)
		send()
	}()
	<-entered
	return func() {
		close(gate)
		<-done
		testCheckpoint = nil
	}
}

// TestShed429 drives load shedding through the full serve stack: with
// the single slot held by a request mid-scoring, the next request is
// shed at once with 429, a JSON error and Retry-After; healthz still
// answers; and the slot frees once the request finishes.
func TestShed429(t *testing.T) {
	s, reg := newTestServer(t, Config{MaxInflight: 1})
	h := s.Handler()
	var parked *httptest.ResponseRecorder
	release := parkScoring(t, func() { parked = postJSON(t, h, "/v1/recommend", `{"user":0}`) })

	w := postJSON(t, h, "/v1/recommend", `{"user":1}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated request: status %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if e := decode[api.ErrorResponse](t, w); e.Error == "" {
		t.Error("429 body not a JSON error")
	}
	if got := reg.Counter("serve_shed_total", "").Value(); got != 1 {
		t.Errorf("shed counter = %v, want 1", got)
	}
	if hz := get(t, h, "/v1/healthz"); hz.Code != http.StatusOK {
		t.Errorf("healthz at capacity: status %d, want 200", hz.Code)
	}

	release()
	if parked.Code != http.StatusOK {
		t.Errorf("in-flight request finished %d after release", parked.Code)
	}
	if w := postJSON(t, h, "/v1/recommend", `{"user":1}`); w.Code != http.StatusOK {
		t.Errorf("post-release request: status %d, want 200", w.Code)
	}
	if got := s.LatencySnapshot().Counters["shed"]; got != 1 {
		t.Errorf("snapshot shed counter = %v, want 1", got)
	}
}

// TestPanicRecovery panics inside scoring: the serve stack answers a
// JSON 500, counts the panic, and releases both the in-flight gauge and
// the limiter slot.
func TestPanicRecovery(t *testing.T) {
	s, reg := newTestServer(t, Config{MaxInflight: 1})
	h := s.Handler()
	testCheckpoint = func() func() error {
		return func() error { panic("scoring exploded") }
	}
	w := postJSON(t, h, "/v1/recommend", `{"user":0}`)
	testCheckpoint = nil
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", w.Code)
	}
	if e := decode[api.ErrorResponse](t, w); e.Error != "internal error" {
		t.Errorf("500 body error = %q", e.Error)
	}
	if got := reg.Counter("serve_panics_total", "").Value(); got != 1 {
		t.Errorf("panic counter = %v, want 1", got)
	}
	if got := reg.Gauge("serve_inflight", "").Value(); got != 0 {
		t.Errorf("inflight gauge = %v after panic, want 0", got)
	}
	if w := postJSON(t, h, "/v1/recommend", `{"user":0}`); w.Code != http.StatusOK {
		t.Errorf("request after panic: status %d, want 200", w.Code)
	}
}

// TestGracefulDrain: SIGTERM with a request mid-scoring keeps the
// server draining until the request finishes 200, then Run exits nil.
func TestGracefulDrain(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan os.Signal, 1)
	runDone := make(chan error, 1)
	go func() { runDone <- api.Run(ln, s.Handler(), stop, 5*time.Second, nil) }()

	code := -1
	release := parkScoring(t, func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/recommend", "application/json",
			strings.NewReader(`{"user":0}`))
		if err != nil {
			return
		}
		resp.Body.Close()
		code = resp.StatusCode
	})

	stop <- syscall.SIGTERM
	select {
	case err := <-runDone:
		t.Fatalf("Run returned %v with a request in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	release()
	if code != http.StatusOK {
		t.Errorf("drained request: status %d, want 200", code)
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Errorf("Run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after drain")
	}
}

// TestConcurrentLoad hammers the full handler stack from many
// goroutines with the race detector in mind: every lifecycle layer,
// the scorer pools, the LRU and the metrics registry run concurrently,
// and every response must be a well-formed 200 or a shed 429.
func TestConcurrentLoad(t *testing.T) {
	s, reg := newTestServer(t, Config{MaxInflight: 4, CacheSize: 16})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	const workers = 8
	const iters = 25
	var wg sync.WaitGroup
	var mu sync.Mutex
	statuses := make(map[int]int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var resp *http.Response
				var err error
				switch i % 4 {
				case 0:
					body := fmt.Sprintf(`{"users":[%d,%d],"n":5}`, (w+i)%20, i%20)
					resp, err = client.Post(ts.URL+"/v1/recommend", "application/json", strings.NewReader(body))
				case 1:
					resp, err = client.Get(fmt.Sprintf("%s/v1/similar?side=v&id=%d&n=3", ts.URL, i%35))
				case 2:
					body := fmt.Sprintf(`{"pairs":[[%d,%d]]}`, w%20, i%35)
					resp, err = client.Post(ts.URL+"/v1/score", "application/json", strings.NewReader(body))
				case 3:
					resp, err = client.Get(ts.URL + "/v1/healthz")
				}
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					t.Errorf("worker %d: status %d: %s", w, resp.StatusCode, body)
					return
				}
				if !json.Valid(body) {
					t.Errorf("worker %d: invalid JSON body %q", w, body)
					return
				}
				mu.Lock()
				statuses[resp.StatusCode]++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	if statuses[http.StatusOK] == 0 {
		t.Fatal("no request succeeded under load")
	}
	if got := reg.Gauge("serve_inflight", "").Value(); got != 0 {
		t.Errorf("inflight gauge = %v after load, want 0", got)
	}
	// Accounting must balance: every answered request shows up either in
	// a per-endpoint status counter or in the shed counter.
	total := 0.0
	for _, ep := range api.Endpoints {
		for _, code := range []int{200, 400, 429, 503} {
			total += reg.Counter(fmt.Sprintf("serve_status_%s_%d_total", ep, code), "").Value()
		}
	}
	total += reg.Counter("serve_shed_total", "").Value()
	if want := float64(statuses[200] + statuses[429]); total != want {
		t.Errorf("status counters sum to %v, want %v (statuses %v)", total, want, statuses)
	}
}
